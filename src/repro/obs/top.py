"""``repro top``: a self-refreshing console view of a live fleet.

The telemetry plane's human endpoint.  The metrics publisher
(:mod:`repro.obs.export`) appends one snapshot line per tick to a JSONL
file; :func:`top_loop` tails that file and redraws
:func:`render_top`'s dashboard — pool totals, cache hit rates, one row
per worker with its state (idle / busy / STALLED / DEAD), and campaign
progress when the source is a campaign.  Reading the file rather than
talking to the process means one viewer works identically for a
``repro serve`` daemon, an in-process campaign, or a post-mortem on a
snapshot file some dead run left behind.

:func:`render_top` is a pure function of one snapshot record (plus an
optional "now" for age arithmetic), which is what the tests and the
degraded-fleet assertions exercise.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Mapping, Optional

from repro.obs.export import load_snapshots

__all__ = ["render_top", "top_loop"]

#: Worker states rendered uppercase to stand out in the table.
_ALARM_STATES = {"stalled", "dead"}


def _age(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s"
    return f"{seconds / 60:.1f}m"


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{hits / total:.0%}"


def render_top(
    record: Mapping[str, Any], now: Optional[float] = None
) -> str:
    """One snapshot record as a console dashboard (pure function)."""
    now = time.time() if now is None else now
    metrics = record.get("metrics", {}) or {}
    health = record.get("health", {}) or {}
    t = float(record.get("t", now))
    lines = [
        f"repro top — source={record.get('source') or '?'} "
        f"snapshot age {_age(max(0.0, now - t))}",
    ]
    workers = health.get("workers", [])
    lines.append(
        "pool: {workers} worker(s)  queue={queue}  in-flight={busy}  "
        "done={done}  respawns={respawns}  stalls={stalls}".format(
            workers=int(metrics.get("pool.workers", len(workers))),
            queue=int(metrics.get("pool.queue_depth", 0)),
            busy=int(metrics.get("pool.in_flight", 0)),
            done=int(metrics.get("pool.jobs_done", 0)),
            respawns=int(metrics.get("pool.respawns", 0)),
            stalls=int(metrics.get("pool.stalls", 0)),
        )
    )
    lines.append(
        "caches: bounds hit {bh} ({bhits}/{btot})  "
        "verdict hit {vh} ({vhits}/{vtot})".format(
            bh=_rate(metrics.get("bounds_cache.hits", 0),
                     metrics.get("bounds_cache.misses", 0)),
            bhits=int(metrics.get("bounds_cache.hits", 0)),
            btot=int(metrics.get("bounds_cache.hits", 0)
                     + metrics.get("bounds_cache.misses", 0)),
            vh=_rate(metrics.get("verdict_cache.hits", 0),
                     metrics.get("verdict_cache.misses", 0)),
            vhits=int(metrics.get("verdict_cache.hits", 0)),
            vtot=int(metrics.get("verdict_cache.hits", 0)
                     + metrics.get("verdict_cache.misses", 0)),
        )
    )
    if "campaign.cells_total" in metrics:
        total = metrics["campaign.cells_total"]
        done = metrics.get("campaign.cells_done", 0)
        pct = f"{done / total:.0%}" if total else "-"
        lines.append(
            f"campaign: {int(done)}/{int(total)} cells ({pct})"
        )
    split_cells = metrics.get("campaign.split_cells", 0)
    split_proofs = metrics.get("campaign.split_proofs", 0)
    if split_cells or split_proofs:
        lines.append(
            f"split: {int(split_proofs)} sub-region(s) pruned "
            f"statically, {int(split_cells)} solved by the MILP"
        )
    if workers:
        lines.append(
            f"  {'#':>3} {'pid':>8} {'state':<8} {'done':>5} "
            f"{'job':<14} {'age':>7} {'beat':>7}"
        )
        for worker in workers:
            state = str(worker.get("state", "?"))
            shown = state.upper() if state in _ALARM_STATES else state
            job = worker.get("job") or "-"
            job_age = worker.get("job_age")
            beat_age = worker.get("last_heartbeat_age")
            lines.append(
                f"  {worker.get('worker', '?'):>3} "
                f"{worker.get('pid', '?'):>8} {shown:<8} "
                f"{int(worker.get('jobs_done', 0)):>5} "
                f"{str(job):<14.14} {_age(job_age):>7} "
                f"{_age(beat_age):>7}"
            )
    else:
        lines.append("  (no per-worker health in this snapshot)")
    alarms = [
        w for w in workers
        if str(w.get("state", "")) in _ALARM_STATES
    ]
    if alarms:
        lines.append(
            f"ALERT: {len(alarms)} worker(s) degraded "
            f"({', '.join(sorted(str(w.get('state')) for w in alarms))})"
        )
    return "\n".join(lines)


def top_loop(
    path: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    once: bool = False,
    stream: Any = None,
) -> int:
    """Tail a snapshot JSONL and redraw the dashboard.

    ``once`` renders the latest snapshot a single time (post-mortem
    mode); ``iterations`` bounds the refresh loop (for tests; ``None``
    runs until interrupted).  Returns 0 when at least one snapshot was
    rendered, 1 when the file never yielded one.
    """
    stream = sys.stdout if stream is None else stream
    rendered = False
    ticks = 0
    clear = "\x1b[2J\x1b[H" if getattr(stream, "isatty", lambda: False)() else ""
    try:
        while True:
            snapshots = load_snapshots(path)
            if snapshots:
                rendered = True
                stream.write(
                    clear + render_top(snapshots[-1]) + "\n"
                )
            elif not os.path.exists(path):
                stream.write(f"waiting for snapshots at {path}...\n")
            stream.flush()
            ticks += 1
            if once or (iterations is not None and ticks >= iterations):
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0 if rendered else 1
