"""``repro.obs`` — observability for the verification stack.

Structured tracing (:mod:`repro.obs.trace`), metric instruments
(:mod:`repro.obs.metrics`), pluggable sinks (:mod:`repro.obs.sinks`),
trace analysis and search-tree export (:mod:`repro.obs.summarize`), the
``repro.*`` logging hierarchy (:mod:`repro.obs.logconfig`) and the
bench-history regression gate (:mod:`repro.obs.bench`).

The contract with the hot paths: everything here is **zero-cost when
disabled** — callers default to :data:`NULL_TRACER`, whose spans and
events are shared no-ops, and guard per-node event emission behind one
``is not None`` check.
"""

from repro.obs.bench import (
    HISTORY_SCHEMA,
    compare,
    load_history,
    record_run,
    render_report,
)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QUANTILES,
    merge_metrics,
    render_quantiles,
)
from repro.obs.sinks import ConsoleSink, JsonlSink, RingBufferSink, Sink
from repro.obs.summarize import (
    PHASES,
    TraceSummary,
    build_search_tree,
    load_trace,
    render_summary,
    summarize_trace,
    tree_to_dot,
    tree_to_json,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
    new_run_id,
)

__all__ = [
    "ConsoleSink",
    "Counter",
    "Gauge",
    "HISTORY_SCHEMA",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "QUANTILES",
    "RingBufferSink",
    "Sink",
    "Span",
    "TraceSummary",
    "Tracer",
    "as_tracer",
    "build_search_tree",
    "compare",
    "configure_logging",
    "get_logger",
    "load_history",
    "load_trace",
    "merge_metrics",
    "new_run_id",
    "record_run",
    "render_quantiles",
    "render_report",
    "render_summary",
    "summarize_trace",
    "tree_to_dot",
    "tree_to_json",
]
