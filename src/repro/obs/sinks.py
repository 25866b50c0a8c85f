"""Trace sinks: where span/event/metric records go.

Three implementations cover the stack's needs:

* :class:`RingBufferSink` — bounded in-memory buffer; campaign workers
  trace into one and ship its records back through the result pipe;
* :class:`JsonlSink` — one JSON object per line, the archival format
  ``repro trace summarize`` consumes;
* :class:`ConsoleSink` — human-readable one-liners for interactive runs.

All sinks accept *any* dict record, so relayed records from another
process pass through byte-identically.  :func:`read_jsonl` reads such a
file back (and the caches' JSONL spills) past torn or corrupt lines.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = [
    "Sink", "RingBufferSink", "JsonlSink", "ConsoleSink", "read_jsonl",
]


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars/arrays (and anything else) to JSON types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


class Sink:
    """Interface: ``write`` one record; ``flush``/``close`` resources."""

    def write(self, record: Dict[str, Any]) -> None:
        """Consume one span/event record."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered records out (no-op by default)."""

    def close(self) -> None:
        """Flush and release resources."""
        self.flush()


class RingBufferSink(Sink):
    """Keeps the last ``capacity`` records in memory (None = unbounded)."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._buffer: deque = deque(maxlen=capacity)
        self.dropped = 0
        self.capacity = capacity

    def write(self, record: Dict[str, Any]) -> None:
        """Append, evicting (and counting) the oldest when full."""
        if (
            self.capacity is not None
            and len(self._buffer) == self.capacity
        ):
            self.dropped += 1
        self._buffer.append(record)

    @property
    def records(self) -> List[Dict[str, Any]]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        """Drop every buffered record and reset the drop counter."""
        self._buffer.clear()
        self.dropped = 0


class JsonlSink(Sink):
    """Appends records to ``path``, one JSON object per line."""

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = path
        self._fh = open(path, "a" if append else "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        """Serialise the record as one JSON line."""
        self._fh.write(
            json.dumps(record, default=_json_default) + "\n"
        )

    def flush(self) -> None:
        """Flush the underlying file handle."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying file handle."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


class ConsoleSink(Sink):
    """Human-readable rendering; resolves the stream lazily so it stays
    correct under test harnesses that swap ``sys.stderr``."""

    def __init__(self, stream: Optional[Any] = None) -> None:
        self._stream = stream

    def _resolve(self) -> Any:
        return self._stream if self._stream is not None else sys.stderr

    def write(self, record: Dict[str, Any]) -> None:
        """Render the record as one human-readable line."""
        attrs = " ".join(
            f"{k}={v}" for k, v in record.get("attrs", {}).items()
        )
        if record.get("type") == "span":
            line = (
                f"[{record.get('run', '')}] span {record['name']} "
                f"{record.get('wall', 0.0):.4f}s "
                f"(cpu {record.get('cpu', 0.0):.4f}s) {attrs}"
            )
        else:
            line = (
                f"[{record.get('run', '')}] {record.get('type', 'event')} "
                f"{record['name']} {attrs}"
            )
        print(line.rstrip(), file=self._resolve())


def read_jsonl(
    path: str, decode: Callable[[Any], Any]
) -> Tuple[List[Any], int]:
    """``decode`` applied to each JSON line of ``path``, in file order,
    plus the number of lines skipped.

    A process killed mid-write leaves a torn last line, and a torn line
    can even parse as valid JSON of the wrong shape.  A line that is not
    JSON, or that ``decode`` rejects (a lookup, type, value or library
    error), is skipped and counted; blank lines are ignored.  Callers
    decide how to report the count.
    """
    values: List[Any] = []
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                values.append(decode(json.loads(line)))
            except (
                AttributeError, KeyError, TypeError, ValueError, ReproError
            ):
                skipped += 1
    return values, skipped
