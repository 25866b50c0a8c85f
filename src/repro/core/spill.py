"""Durable JSONL spill files behind the bound and verdict caches.

A spill is append-only: one JSON object per line, reloaded when the
cache is next constructed.  A process killed mid-append leaves a torn
last line, so both directions defend against one:

* :func:`load_spill` skips every line that does not decode, with one
  warning naming the count.  A skipped line is only a cache miss: the
  entry is recomputed, never answered wrongly;
* :func:`append_spill` terminates a torn tail before writing, so a new
  record always starts on a fresh line instead of fusing with the
  partial one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Hashable, Tuple

from repro.obs.logconfig import get_logger
from repro.obs.sinks import read_jsonl

__all__ = ["append_spill", "load_spill"]


def load_spill(
    path: str, decode: Callable[[Any], Tuple[Hashable, Any]]
) -> Dict[Hashable, Any]:
    """The ``key -> entry`` map stored at ``path`` (empty if missing).

    ``decode`` turns one parsed line into ``(key, entry)``; lines it
    rejects are skipped (see :func:`repro.obs.sinks.read_jsonl`).
    """
    if not os.path.exists(path):
        return {}
    pairs, skipped = read_jsonl(path, decode)
    if skipped:
        get_logger("core.spill").warning(
            "%s: skipped %d unreadable line(s); their entries will be "
            "recomputed", path, skipped,
        )
    return dict(pairs)


def append_spill(path: str, record: Dict[str, Any]) -> None:
    """Append one record as a JSON line, after any torn tail."""
    data = (json.dumps(record) + "\n").encode("utf-8")
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)
