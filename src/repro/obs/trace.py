"""Structured tracing: spans, point events and run identities.

A :class:`Tracer` produces two record kinds into its sinks:

* **spans** — ``with tracer.span("node_lp", node=17): ...`` context
  managers measuring wall *and* CPU time with structured attributes;
  nesting is tracked automatically (each span records its parent), so a
  trace is a forest that tools can fold back into call trees;
* **events** — ``tracer.event("node", depth=3, bound=1.25)`` point
  records attached to the currently open span (the branch-and-bound
  search emits one per node, enough to reconstruct the search tree).

Every record carries the tracer's **run id** so traces from many
processes can be merged into one campaign-wide artifact: worker
processes trace into an in-memory ring buffer with an id prefix unique
to their cell, ship the raw records back over the existing result pipe,
and the parent re-emits them into its own sinks (see
:mod:`repro.core.campaign`).

Tracing must be *zero-cost when off*: :data:`NULL_TRACER` is a shared
no-op whose ``span()`` returns one reusable null context manager and
whose ``event()`` does nothing; hot loops additionally guard event
construction behind a single ``is not None`` check.
"""

from __future__ import annotations

import itertools
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "as_tracer",
    "new_run_id",
]


def new_run_id() -> str:
    """A fresh 12-hex-digit campaign/run identity."""
    return uuid.uuid4().hex[:12]


class Span:
    """One timed region of work; use as a context manager.

    Attributes are structured (``span.set(nodes=31)`` merges more in at
    any point before exit).  Durations come from ``time.perf_counter``
    (monotonic — an NTP clock step can never produce a negative or
    inflated ``wall``).  Epoch timestamps (``t_start``/``t_end``) are the
    tracer's epoch anchor plus the ``perf_counter`` reading (see
    :class:`Tracer`), the same clock events are stamped with, so one
    tracer's records are ordered by their timestamps even across a
    wall-clock step, and records from different processes on one
    machine can still be ordered against each other.  CPU time uses
    ``time.process_time``.
    """

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id",
        "t_start", "t_end", "perf_start", "cpu_start", "wall", "cpu",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.t_start = 0.0
        self.t_end = 0.0
        self.perf_start = 0.0
        self.cpu_start = 0.0
        self.wall = 0.0
        self.cpu = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Merge more attributes into the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.span_id, self.parent_id = self._tracer._open(self)
        self.perf_start = time.perf_counter()
        self.t_start = self._tracer.epoch + self.perf_start
        self.cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        perf_end = time.perf_counter()
        self.wall = perf_end - self.perf_start
        self.t_end = self._tracer.epoch + perf_end
        self.cpu = time.process_time() - self.cpu_start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)
        return False

    def record(self) -> Dict[str, Any]:
        """The span as a flat, JSON-serialisable record."""
        return {
            "type": "span",
            "name": self.name,
            "run": self._tracer.run_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "wall": self.wall,
            "cpu": self.cpu,
            "attrs": self.attrs,
        }


class Tracer:
    """Emits span/event records into a list of sinks.

    ``id_prefix`` namespaces span ids so records produced by independent
    tracers (one per campaign worker cell) stay distinguishable after
    they are merged into one trace.

    ``epoch`` anchors the tracer's one clock: ``time.time()`` at
    construction less ``time.perf_counter()`` then.  Span and event
    timestamps are ``epoch`` plus a ``perf_counter`` reading, epoch
    seconds that never step back.
    """

    enabled = True

    def __init__(
        self,
        sinks: Optional[Sequence[Any]] = None,
        run_id: Optional[str] = None,
        id_prefix: str = "",
    ) -> None:
        self.sinks = list(sinks or [])
        self.run_id = run_id or new_run_id()
        self._prefix = id_prefix
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self.epoch = time.time() - time.perf_counter()

    # -- recording ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new (not yet started) span; enter it with ``with``."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A point event under the currently open span (if any)."""
        self.emit({
            "type": "event",
            "name": name,
            "run": self.run_id,
            "span": self._stack[-1].span_id if self._stack else None,
            "t": self.epoch + time.perf_counter(),
            "attrs": attrs,
        })

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one raw record to every sink (relay entry point)."""
        for sink in self.sinks:
            sink.write(record)

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()

    # -- span bookkeeping --------------------------------------------------
    def _open(self, span: Span):
        parent = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        return f"{self._prefix}{next(self._ids)}", parent

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        self.emit(span.record())


class _NullSpan:
    """Shared, allocation-free stand-in for a disabled span."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    wall = 0.0
    cpu = 0.0
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the zero-cost disabled path."""

    enabled = False
    run_id = ""
    sinks: Sequence[Any] = ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        """Drop the event."""

    def emit(self, record: Dict[str, Any]) -> None:
        """Drop the record."""

    def close(self) -> None:
        """Nothing to close."""


NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[Any]) -> Any:
    """Normalise an optional tracer argument (``None`` -> no-op)."""
    return NULL_TRACER if tracer is None else tracer
