"""``repro.obs`` — observability for the verification stack.

Structured tracing (:mod:`repro.obs.trace`), metric instruments
(:mod:`repro.obs.metrics`), pluggable sinks (:mod:`repro.obs.sinks`),
trace analysis and search-tree export (:mod:`repro.obs.summarize`) and
the ``repro.*`` logging hierarchy (:mod:`repro.obs.logconfig`).

The contract with the hot paths: everything here is **zero-cost when
disabled** — callers default to :data:`NULL_TRACER`, whose spans and
events are shared no-ops, and guard per-node event emission behind one
``is not None`` check.

The trace-summary names re-export lazily (PEP 562), as in
:mod:`repro.core`: a process that only proves never loads
:mod:`repro.obs.summarize`.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

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
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
    new_run_id,
)

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.obs.summarize import (  # noqa: F401
        PHASES,
        TraceSummary,
        build_search_tree,
        load_trace,
        render_summary,
        summarize_trace,
        tree_to_dot,
        tree_to_json,
    )

#: Lazily re-exported submodule -> the names it defines.
_LAZY: Dict[str, List[str]] = {
    "summarize": [
        "PHASES", "TraceSummary", "build_search_tree", "load_trace",
        "render_summary", "summarize_trace", "tree_to_dot", "tree_to_json",
    ],
}

_NAME_TO_MODULE = {
    name: module for module, names in _LAZY.items() for name in names
}

__all__ = [
    "ConsoleSink",
    "Counter",
    "Gauge",
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
    "configure_logging",
    "get_logger",
    "load_trace",
    "merge_metrics",
    "new_run_id",
    "render_quantiles",
    "render_summary",
    "summarize_trace",
    "tree_to_dot",
    "tree_to_json",
]


def __getattr__(name: str) -> Any:
    if name in _NAME_TO_MODULE:
        module = importlib.import_module(f"repro.obs.{_NAME_TO_MODULE[name]}")
        return getattr(module, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
