"""Persistent verification worker pool with shared cross-campaign caches.

``ProcessPoolExecutor``-per-campaign made ``jobs=2`` a 0.91x "speedup":
every :meth:`VerificationCampaign.run` paid worker spawn and pickling
again, rebuilt its :class:`~repro.core.bounds.BoundsCache` from scratch,
and a single worker crash poisoned every pending future (the executor
marks itself broken).  :class:`VerificationPool` replaces that with

* **long-lived workers** — plain ``multiprocessing`` processes speaking
  a tiny message protocol over pipes; they are spawned once, survive
  across campaigns, and are respawned individually after a crash, so a
  killed worker costs exactly the cell (or bound computation) it was
  running — never the rest of the matrix;
* **shared caches** — one content-keyed
  :class:`~repro.core.bounds.BoundsCache` and one
  :class:`VerdictCache` (fingerprint of the *entire* query: network
  parameters, region geometry, objective, kind/threshold, encoder and
  MILP options -> :class:`~repro.core.verifier.VerificationResult`)
  live behind the pool and persist across campaigns, with an optional
  on-disk JSONL spill (``cache_dir``, see :mod:`repro.core.spill`) so
  even a new process pays each computation once.

Campaigns run every cell through a pool (see
:meth:`VerificationCampaign.run`'s ``pool`` argument and the ``--pool``
/ ``--cache-dir`` CLI flags): an attached pool always runs the cells,
parallel runs build an ephemeral one, and serial runs use
:class:`InProcessPool`, the same engine with the caller as its one
worker.  Serial and parallel runs therefore share one verdict cache,
bounds prefetch and trace relay, and produce the same span ids.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional

from repro.core.spill import append_spill, load_spill
from repro.core.verifier import (
    VerificationResult,
    Verdict,
    result_from_dict,
    result_to_dict,
)
from repro.errors import CertificationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import as_tracer

__all__ = [
    "InProcessPool",
    "PoolJob",
    "VerdictCache",
    "VerificationPool",
]


#: Verdicts that are deterministic functions of the query fingerprint
#: and therefore safe to memoise.  TIMEOUT and ERROR are excluded: both
#: depend on the machine/moment, so a retry may legitimately differ.
CACHEABLE_VERDICTS = frozenset(
    {Verdict.VERIFIED, Verdict.FALSIFIED, Verdict.MAX_FOUND}
)


class VerdictCache:
    """Fingerprint-keyed memo of completed verification results.

    Keys come from :func:`repro.core.verifier.verdict_fingerprint`;
    values are full :class:`VerificationResult` objects.  With
    ``spill_path`` every stored verdict is appended to a JSONL file and
    reloaded on construction (unreadable lines are skipped, see
    :mod:`repro.core.spill`), so the memo survives the process.  Hits
    return a defensive copy whose ``metrics`` carry a
    ``verdict_cache_hit`` marker (the verdict/optimum themselves are
    bit-for-bit the stored ones — JSON floats round-trip exactly).
    """

    def __init__(self, spill_path: Optional[str] = None) -> None:
        self._entries: Dict[str, VerificationResult] = {}
        self.hits = 0
        self.misses = 0
        self.spill_path = spill_path
        if spill_path is not None:
            self._entries = load_spill(
                spill_path,
                lambda record: (
                    record["fp"], result_from_dict(record["result"])
                ),
            )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> Optional[VerificationResult]:
        """The memoised result for the fingerprint, or ``None``."""
        stored = self._entries.get(fingerprint)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        metrics = dict(stored.metrics)
        metrics["verdict_cache_hit"] = 1.0
        return dataclasses.replace(
            stored,
            counterexample=(
                None if stored.counterexample is None
                else stored.counterexample.copy()
            ),
            metrics=metrics,
        )

    def put(self, fingerprint: str, result: VerificationResult) -> bool:
        """Memoise a result; refuses non-deterministic verdicts."""
        if result.verdict not in CACHEABLE_VERDICTS:
            return False
        if fingerprint in self._entries:
            return True
        self._entries[fingerprint] = result
        if self.spill_path is not None:
            append_spill(self.spill_path, {
                "fp": fingerprint,
                "result": result_to_dict(result),
            })
        return True


def _execute(kind: str, payload: Any) -> Any:
    """Run one job body; forked workers and :class:`InProcessPool` share it.

    ``"cell"`` verifies a campaign cell task, ``"bounds"`` runs one
    bound computation, ``"ping"`` answers the process id.
    """
    from repro.core.campaign import _compute_bounds_task, _run_cell_task

    if kind == "cell":
        return _run_cell_task(payload)
    if kind == "bounds":
        return _compute_bounds_task(payload)
    if kind == "ping":
        return os.getpid()
    raise CertificationError(f"unknown job kind {kind!r}")


def _pool_worker_main(conn) -> None:
    """Long-lived worker loop: recv task -> run fault-isolated -> reply.

    Messages in: ``(kind, job_id, payload)`` with a job kind
    :func:`_execute` knows; ``None`` asks for a clean shutdown.
    Replies: ``("done", job_id, result)``, or ``("error", job_id,
    traceback)`` when the result could not be produced *or shipped*
    (e.g. it does not pickle) — so the parent always learns the job's
    fate unless the process itself dies, which the parent detects via
    its sentinel.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            break
        kind, job_id, payload = message
        try:
            conn.send(("done", job_id, _execute(kind, payload)))
        except Exception:
            try:
                conn.send(("error", job_id, traceback.format_exc()))
            except Exception:
                return
    try:
        conn.close()
    except Exception:
        pass


class _WorkerHandle:
    """One live worker process plus its parent-side pipe end."""

    __slots__ = ("process", "conn", "job")

    def __init__(self, ctx, index: int) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_pool_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        #: The in-flight :class:`PoolJob`, or ``None`` when idle.
        self.job: Optional["PoolJob"] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 2.0) -> None:
        try:
            if self.alive:
                self.conn.send(None)
        except Exception:
            pass
        self.process.join(timeout)
        if self.alive:
            self.process.terminate()
            self.process.join(timeout)
        try:
            self.conn.close()
        except Exception:
            pass


class PoolJob:
    """Parent-side state of one submitted job."""

    __slots__ = (
        "id", "kind", "payload", "result", "error", "crashed",
        "fingerprint", "t_started",
    )

    def __init__(
        self,
        job_id: int,
        kind: str,
        payload: Any,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.payload = payload
        self.result: Any = None
        self.error: Optional[str] = None
        self.crashed = False
        #: Verdict-cache key; completed cacheable cells are memoised.
        self.fingerprint = fingerprint
        #: ``time.monotonic()`` at dispatch to a worker.
        self.t_started: Optional[float] = None


class VerificationPool:
    """Persistent, crash-resilient worker pool with durable caches.

    ``workers`` follows :func:`repro.core.campaign.resolve_jobs`
    semantics (``None``/``1`` one worker, ``0`` one per CPU).  Workers
    spawn lazily on first dispatch (call :meth:`prewarm` to pay the
    fork cost up front); a worker that dies is respawned and only its
    in-flight job is failed.  ``cache_dir`` makes both caches durable
    (``bounds.jsonl`` / ``verdicts.jsonl`` spill files).  A worker
    death is recorded as a ``pool_worker_crash`` trace event when
    ``tracer`` is set.

    Not thread-safe: one pool serves one driving thread (campaigns use
    it strictly sequentially).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        tracer=None,
        prewarm: bool = False,
    ) -> None:
        from repro.core.campaign import resolve_jobs

        self.workers = resolve_jobs(workers)
        self.tracer = as_tracer(tracer)
        self.cache_dir = cache_dir
        bounds_spill = verdict_spill = None
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            bounds_spill = os.path.join(cache_dir, "bounds.jsonl")
            verdict_spill = os.path.join(cache_dir, "verdicts.jsonl")
        from repro.core.bounds import BoundsCache

        self.bounds_cache = BoundsCache(spill_path=bounds_spill)
        self.verdict_cache = VerdictCache(spill_path=verdict_spill)
        self.metrics = MetricsRegistry()
        # fork reuses the parent's already-imported interpreter, so a
        # fresh worker costs milliseconds, not a re-import; fall back to
        # the platform default where fork does not exist.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._handles: List[_WorkerHandle] = []
        self._queue: deque = deque()
        self._jobs: Dict[int, PoolJob] = {}
        self._ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._closed = False
        if prewarm:
            self.prewarm()

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "VerificationPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __del__(self) -> None:
        try:
            self.shutdown()
        except Exception:
            pass

    def shutdown(self) -> None:
        """Stop every worker; the caches stay readable."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.stop()
        self._handles = []

    def prewarm(self) -> int:
        """Spawn the full worker complement and round-trip a ping each.

        Returns the number of live workers.  After this, the first real
        job pays no fork/import latency — the amortisation a
        per-campaign ``ProcessPoolExecutor`` can never offer.
        """
        self._ensure_workers()
        outstanding = {
            self.submit_task("ping", None).id for _ in self._handles
        }
        deadline = time.monotonic() + 30.0
        while outstanding and time.monotonic() < deadline:
            for job in self.wait(timeout=1.0):
                outstanding.discard(job.id)
        return sum(1 for handle in self._handles if handle.alive)

    # -- scheduling --------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        index = next(self._worker_ids)
        handle = _WorkerHandle(self._ctx, index)
        self._handles.append(handle)
        self.metrics.counter("pool.workers_spawned").inc()
        # The pool never holds more than ``workers`` live processes, so
        # any spawn past the initial complement replaces a dead one.
        if index > self.workers:
            self.metrics.counter("pool.respawns").inc()
        return handle

    def _ensure_workers(self) -> None:
        if self._closed:
            raise CertificationError("pool is shut down")
        # Dead *idle* handles are garbage; a dead handle still holding a
        # job must stay until :meth:`wait` reaps it (its sentinel is
        # ready), or the job — and the campaign waiting on it — would be
        # lost.
        self._handles = [
            h for h in self._handles if h.alive or h.job is not None
        ]
        while sum(1 for h in self._handles if h.alive) < self.workers:
            self._spawn_worker()

    def _enqueue(self, job: PoolJob) -> PoolJob:
        self._jobs[job.id] = job
        self._queue.append(job)
        self.metrics.counter("pool.jobs").inc()
        self._pump()
        return job

    def _pump(self) -> None:
        """Assign queued jobs to idle live workers."""
        if not self._queue:
            return
        self._ensure_workers()
        # Snapshot: _retire() mutates the handle list mid-iteration.
        for handle in list(self._handles):
            if not self._queue:
                return
            if handle.job is not None or not handle.alive:
                continue
            job = self._queue.popleft()
            try:
                handle.conn.send((job.kind, job.id, job.payload))
            except Exception:
                # The worker died between jobs: requeue and respawn.
                self._queue.appendleft(job)
                self._retire(handle)
                continue
            handle.job = job
            job.t_started = time.monotonic()

    def submit_task(
        self, kind: str, payload: Any, fingerprint: Optional[str] = None
    ) -> PoolJob:
        """Queue one job; :meth:`wait` reports it when it completes.

        A job with a ``fingerprint`` whose result carries a cacheable
        verdict is memoised in :attr:`verdict_cache` on completion.
        """
        return self._enqueue(
            PoolJob(next(self._ids), kind, payload, fingerprint)
        )

    def wait(self, timeout: Optional[float] = None) -> List[PoolJob]:
        """Jobs completing since the last call (crash == completion).

        Blocks up to ``timeout`` seconds (``None`` = until at least one
        in-flight job produces a message).  A worker death surfaces as
        its job completing with ``crashed=True`` and the worker is
        replaced; queued jobs are unaffected.
        """
        self._pump()
        completed: List[PoolJob] = []
        busy = [h for h in self._handles if h.job is not None]
        if not busy:
            return completed
        waitable = {h.conn: h for h in busy}
        waitable.update({h.process.sentinel: h for h in busy})
        ready = mp_connection.wait(list(waitable), timeout)
        touched = []
        for item in ready:
            handle = waitable[item]
            if handle not in touched:
                touched.append(handle)
        for handle in touched:
            self._drain(handle, completed)
            if handle.job is not None and not handle.alive:
                self._worker_died(handle, completed)
        self._pump()
        return completed

    def _drain(self, handle: _WorkerHandle, completed) -> None:
        """Consume every buffered message from one worker."""
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                if handle.job is not None:
                    self._worker_died(handle, completed)
                else:
                    self._retire(handle)
                return
            kind, job_id, payload = message
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if kind == "done":
                job.result = payload
            else:  # "error": ran but could not produce/ship a result
                job.error = payload
            handle.job = None
            self._finish(job, completed)

    def _worker_died(self, handle: _WorkerHandle, completed) -> None:
        job = handle.job
        handle.job = None
        exitcode = handle.process.exitcode
        self._retire(handle)
        self.metrics.counter("pool.worker_crashes").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "pool_worker_crash",
                exitcode=exitcode,
                job_kind=job.kind if job else None,
            )
        if job is not None:
            job.crashed = True
            job.error = (
                f"worker process died (exit code {exitcode}) while "
                f"running the {job.kind} job"
            )
            self._finish(job, completed)

    def _retire(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except Exception:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        if handle in self._handles:
            self._handles.remove(handle)
        # Replace it eagerly so queued jobs keep flowing — but never
        # past the configured complement (``_ensure_workers`` may have
        # respawned already while this handle lingered dead-but-busy).
        if (
            not self._closed
            and (self._queue or self._jobs)
            and sum(1 for h in self._handles if h.alive) < self.workers
        ):
            self._spawn_worker()

    def _finish(self, job: PoolJob, completed) -> None:
        self.metrics.counter("pool.jobs_done").inc()
        if job.t_started is not None:
            self.metrics.histogram("pool.job_wall").observe(
                time.monotonic() - job.t_started
            )
        self._jobs.pop(job.id, None)
        completed.append(job)
        if (
            job.fingerprint is not None
            and job.error is None
            and not job.crashed
        ):
            result = getattr(job.result, "result", None)
            if isinstance(result, VerificationResult):
                if self.verdict_cache.put(job.fingerprint, result):
                    self.metrics.counter("pool.verdicts_stored").inc()

    # -- accounting --------------------------------------------------------
    @staticmethod
    def _hit_rate(hits: float, misses: float) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Flat snapshot: worker, job, queue and cache accounting."""
        out = self.metrics.snapshot()
        out["pool.workers"] = sum(
            1 for handle in self._handles if handle.alive
        )
        out["pool.queue_depth"] = len(self._queue)
        out["pool.in_flight"] = sum(
            1 for handle in self._handles if handle.job is not None
        )
        out["bounds_cache.entries"] = len(self.bounds_cache)
        out["bounds_cache.hits"] = self.bounds_cache.hits
        out["bounds_cache.misses"] = self.bounds_cache.misses
        out["bounds_cache.hit_rate"] = self._hit_rate(
            self.bounds_cache.hits, self.bounds_cache.misses
        )
        out["verdict_cache.entries"] = len(self.verdict_cache)
        out["verdict_cache.hits"] = self.verdict_cache.hits
        out["verdict_cache.misses"] = self.verdict_cache.misses
        out["verdict_cache.hit_rate"] = self._hit_rate(
            self.verdict_cache.hits, self.verdict_cache.misses
        )
        return out

    def render_stats(self) -> str:
        """One-line human summary for CLI output."""
        stats = self.stats()
        return (
            f"pool: {int(stats['pool.workers'])} workers, "
            f"{int(stats.get('pool.jobs', 0))} jobs, "
            f"{int(stats['pool.queue_depth'])} queued, "
            f"{int(stats.get('pool.worker_crashes', 0))} crashes; "
            f"verdict cache {int(stats['verdict_cache.hits'])} hits / "
            f"{int(stats['verdict_cache.misses'])} misses "
            f"({stats['verdict_cache.hit_rate']:.0%} hit rate, "
            f"{int(stats['verdict_cache.entries'])} entries); "
            f"bounds cache {int(stats['bounds_cache.hits'])} hits / "
            f"{int(stats['bounds_cache.misses'])} misses "
            f"({stats['bounds_cache.hit_rate']:.0%} hit rate, "
            f"{int(stats['bounds_cache.entries'])} entries)"
        )


class InProcessPool(VerificationPool):
    """A pool whose one worker is the calling thread.

    Serial campaigns run on this: the same job protocol, verdict
    memoisation, caches and metrics as :class:`VerificationPool`, but
    each queued job runs synchronously inside :meth:`wait` and nothing
    is ever forked (:meth:`prewarm` included).  The price is fault
    isolation: a job that kills the interpreter kills the caller too.
    """

    def _ensure_workers(self) -> None:
        if self._closed:
            raise CertificationError("pool is shut down")

    def _pump(self) -> None:
        """Submission only queues; :meth:`wait` runs the jobs."""
        self._ensure_workers()

    def wait(self, timeout: Optional[float] = None) -> List[PoolJob]:
        """Run the oldest queued job to completion and return it.

        ``timeout`` is accepted for interface parity; an in-process job
        cannot be interrupted, so it is ignored.
        """
        completed: List[PoolJob] = []
        if not self._queue:
            return completed
        job = self._queue.popleft()
        job.t_started = time.monotonic()
        try:
            job.result = _execute(job.kind, job.payload)
        except Exception:
            job.error = traceback.format_exc()
        self._finish(job, completed)
        return completed
