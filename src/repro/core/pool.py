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
  on-disk JSONL spill (``cache_dir``) so even a new process pays each
  computation once;
* **an async job API** — ``submit(network, query) -> ticket``, then
  ``poll``/``progress``/``stream`` (live trace records relayed through
  the existing :mod:`repro.obs` pipeline) and ``fetch`` for the final
  verdict — the "verification as a service" surface ``repro serve``
  exposes on stdin/stdout.

Campaigns run every cell through a pool (see
:meth:`VerificationCampaign.run`'s ``pool`` argument and the ``--pool``
/ ``--cache-dir`` CLI flags): an attached pool always runs the cells,
parallel runs build an ephemeral one, and serial runs use
:class:`InProcessPool`, the same engine with the caller as its one
worker.  Serial and parallel runs therefore share one verdict cache,
bounds prefetch, split-shard assembly and trace relay, and produce the
same span ids.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional

from repro.core.verifier import (
    VerificationResult,
    Verdict,
    result_from_dict,
    result_to_dict,
)
from repro.errors import CertificationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import as_tracer, new_run_id

__all__ = [
    "InProcessPool",
    "JobTicket",
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
    reloaded on construction, so the memo survives the process.  Hits
    return a defensive copy whose ``metrics`` carry a
    ``verdict_cache_hit`` marker (the verdict/optimum themselves are
    bit-for-bit the stored ones — JSON floats round-trip exactly).
    """

    def __init__(self, spill_path: Optional[str] = None) -> None:
        self._entries: Dict[str, VerificationResult] = {}
        self.hits = 0
        self.misses = 0
        self.spill_path = spill_path
        if spill_path is not None and os.path.exists(spill_path):
            with open(spill_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    self._entries[record["fp"]] = result_from_dict(
                        record["result"]
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
            with open(self.spill_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "fp": fingerprint,
                    "result": result_to_dict(result),
                }) + "\n")
        return True


class _ConnSink:
    """Worker-side sink streaming trace records to the parent, live.

    Reuses the obs relay record format byte-identically; a broken pipe
    silently drops records (the worker must never die because the
    consumer went away).  ``lock`` serialises pipe writes against the
    worker's heartbeat thread — ``Connection.send`` is not atomic under
    concurrent writers.
    """

    def __init__(self, conn, job_id: int, lock=None) -> None:
        self._conn = conn
        self._job_id = job_id
        self._lock = lock if lock is not None else threading.Lock()

    def write(self, record: Dict[str, Any]) -> None:
        try:
            with self._lock:
                self._conn.send(("progress", self._job_id, record))
        except Exception:
            pass

    def flush(self) -> None:  # Sink protocol
        pass

    def close(self) -> None:
        pass


def _execute(kind: str, payload: Any, extra_sink=None) -> Any:
    """Run one job body; forked workers and :class:`InProcessPool` share it.

    ``"cell"`` verifies a campaign cell task (``extra_sink`` also
    receives its trace records live), ``"bounds"`` runs one bound
    computation, ``"ping"`` answers the process id.
    """
    from repro.core.campaign import _compute_bounds_task, _run_cell_task

    if kind == "cell":
        return _run_cell_task(payload, extra_sink=extra_sink)
    if kind == "bounds":
        return _compute_bounds_task(payload)
    if kind == "ping":
        return os.getpid()
    raise CertificationError(f"unknown job kind {kind!r}")


def _pool_worker_main(
    conn, heartbeat_interval: Optional[float] = None
) -> None:
    """Long-lived worker loop: recv task -> run fault-isolated -> reply.

    Messages in: ``(kind, job_id, payload, stream)`` with a job kind
    :func:`_execute` knows; ``stream`` relays the job's trace records
    live.  ``None`` asks for a clean shutdown.  Replies:
    ``("progress", job_id, record)`` (streamed trace records),
    ``("hb", job_id_or_None, payload)`` (liveness heartbeats from a
    side thread, proving the worker is healthy *even mid-solve*),
    ``("done", job_id, result)``, or ``("error", job_id, traceback)``
    when the result could not be produced *or shipped* (e.g. it does not
    pickle) — so the parent always learns the job's fate unless the
    process itself dies, which the parent detects via its sentinel.

    All pipe writes share one lock: the heartbeat thread and the main
    loop (and any streaming sink) must never interleave bytes on the
    connection.
    """
    send_lock = threading.Lock()
    status: Dict[str, Any] = {"job": None}
    halt = threading.Event()
    if heartbeat_interval:

        def _beat() -> None:
            while not halt.wait(heartbeat_interval):
                try:
                    with send_lock:
                        conn.send((
                            "hb", status["job"],
                            {"t": time.time(), "pid": os.getpid()},
                        ))
                except Exception:
                    return

        threading.Thread(
            target=_beat, name="repro-pool-heartbeat", daemon=True
        ).start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return
            if message is None:
                break
            kind, job_id, payload, stream = message
            status["job"] = job_id
            try:
                extra = (
                    _ConnSink(conn, job_id, lock=send_lock)
                    if stream else None
                )
                out = _execute(kind, payload, extra)
                with send_lock:
                    conn.send(("done", job_id, out))
            except Exception:
                try:
                    with send_lock:
                        conn.send((
                            "error", job_id, traceback.format_exc()
                        ))
                except Exception:
                    return
            finally:
                status["job"] = None
    finally:
        halt.set()
    try:
        conn.close()
    except Exception:
        pass


class _WorkerHandle:
    """One live worker process plus its parent-side pipe end."""

    __slots__ = (
        "process", "conn", "job", "index", "jobs_done",
        "last_heartbeat", "spawned_at",
    )

    def __init__(
        self, ctx, index: int,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, heartbeat_interval),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        #: The in-flight :class:`PoolJob`, or ``None`` when idle.
        self.job: Optional["PoolJob"] = None
        self.index = index
        self.jobs_done = 0
        self.spawned_at = time.time()
        #: Epoch time of the last ``hb`` message (``None`` before the
        #: first; stays ``None`` with heartbeats disabled).
        self.last_heartbeat: Optional[float] = None

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
        "id", "kind", "payload", "stream", "state", "result", "error",
        "crashed", "progress", "fingerprint", "retain", "budget",
        "t_submitted", "t_started", "stall_emitted",
    )

    def __init__(
        self,
        job_id: int,
        kind: str,
        payload: Any,
        stream: bool = False,
        fingerprint: Optional[str] = None,
        retain: bool = False,
        budget: Optional[float] = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        self.payload = payload
        self.stream = stream
        self.state = "queued"
        self.result: Any = None
        self.error: Optional[str] = None
        self.crashed = False
        #: Trace records streamed back while the job runs.
        self.progress: List[Dict[str, Any]] = []
        #: Verdict-cache key; completed cacheable cells are memoised.
        self.fingerprint = fingerprint
        self.retain = retain
        #: Expected runtime (the cell/solve budget); stall detection
        #: fires when the in-flight age exceeds a multiple of this.
        self.budget = budget
        self.t_submitted = time.time()
        self.t_started: Optional[float] = None
        self.stall_emitted = False

    @property
    def age(self) -> float:
        """Seconds since dispatch to a worker (0.0 while queued)."""
        if self.t_started is None:
            return 0.0
        return time.time() - self.t_started

    @property
    def done(self) -> bool:
        return self.state == "done"


@dataclasses.dataclass
class JobTicket:
    """Handle returned by :meth:`VerificationPool.submit`."""

    id: int
    fingerprint: str
    #: ``True`` when the verdict cache answered without any worker time.
    cached: bool = False


class VerificationPool:
    """Persistent, crash-resilient worker pool with durable caches.

    ``workers`` follows :func:`repro.core.campaign.resolve_jobs`
    semantics (``None``/``1`` one worker, ``0`` one per CPU).  Workers
    spawn lazily on first dispatch (call :meth:`prewarm` to pay the
    fork cost up front); a worker that dies is respawned and only its
    in-flight job is failed.  ``cache_dir`` makes both caches durable
    (``bounds.jsonl`` / ``verdicts.jsonl`` spill files).

    Health plane: each worker runs a heartbeat thread proving liveness
    every ``heartbeat_interval`` seconds even mid-solve (``None``
    disables, for overhead comparisons); :meth:`health` returns the
    structured per-worker view (state, in-flight job age, heartbeat
    age) that ``repro serve``'s ``health``/``watch`` ops and ``repro
    top`` render.  A job whose in-flight age exceeds ``stall_factor``
    times its budget is flagged **stalled**: one ``pool_stall`` trace
    event, a ``pool.stalls`` counter tick, and a ``STALLED`` row in the
    dashboards — the job is *not* killed (budget enforcement stays the
    solver's job; the plane only makes the overrun visible).

    Not thread-safe: one pool serves one driving thread (campaigns use
    it strictly sequentially; the only concurrent reader is a
    :class:`~repro.obs.export.MetricsPublisher` calling the read-only
    :meth:`stats`/:meth:`health` accessors).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        tracer=None,
        prewarm: bool = False,
        heartbeat_interval: Optional[float] = 1.0,
        stall_factor: float = 3.0,
    ) -> None:
        from repro.core.campaign import resolve_jobs

        self.workers = resolve_jobs(workers)
        self.tracer = as_tracer(tracer)
        self.run_id = (
            self.tracer.run_id if self.tracer.enabled else new_run_id()
        )
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
        self.heartbeat_interval = heartbeat_interval
        self.stall_factor = stall_factor
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
        self._done: Dict[int, PoolJob] = {}
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
        tickets = [
            self._enqueue(PoolJob(next(self._ids), "ping", None))
            for _ in self._handles
        ]
        outstanding = {job.id for job in tickets}
        deadline = time.monotonic() + 30.0
        while outstanding and time.monotonic() < deadline:
            for job in self.wait(timeout=1.0):
                outstanding.discard(job.id)
        return sum(1 for handle in self._handles if handle.alive)

    # -- scheduling --------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        index = next(self._worker_ids)
        handle = _WorkerHandle(
            self._ctx, index,
            heartbeat_interval=self.heartbeat_interval,
        )
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
                handle.conn.send((job.kind, job.id, job.payload, job.stream))
            except Exception:
                # The worker died between jobs: requeue and respawn.
                self._queue.appendleft(job)
                self._retire(handle)
                continue
            handle.job = job
            job.state = "running"
            job.t_started = time.time()

    def submit_task(
        self,
        kind: str,
        payload: Any,
        fingerprint: Optional[str] = None,
        stream: bool = False,
        retain: bool = False,
        budget: Optional[float] = None,
    ) -> PoolJob:
        """Low-level dispatch (campaigns drive this directly)."""
        job = PoolJob(
            next(self._ids), kind, payload,
            stream=stream, fingerprint=fingerprint, retain=retain,
            budget=budget,
        )
        return self._enqueue(job)

    def wait(self, timeout: Optional[float] = None) -> List[PoolJob]:
        """Jobs completing since the last call (crash == completion).

        Blocks up to ``timeout`` seconds (``None`` = until at least one
        in-flight job produces a message).  A worker death surfaces as
        its job completing with ``crashed=True`` and the worker is
        replaced; queued jobs are unaffected.
        """
        self._pump()
        completed: List[PoolJob] = []
        # Idle workers still send heartbeats; drain them opportunistically
        # so health views stay fresh between jobs (non-blocking — _drain
        # returns as soon as the pipe is empty).
        for handle in list(self._handles):
            if handle.job is None:
                self._drain(handle, completed)
        busy = [h for h in self._handles if h.job is not None]
        if not busy:
            self._check_stalls()
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
        self._check_stalls()
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
            if kind == "hb":
                handle.last_heartbeat = time.time()
                continue
            job = self._jobs.get(job_id)
            if job is None:
                continue
            if kind == "progress":
                job.progress.append(payload)
                continue
            if kind == "done":
                job.result = payload
            else:  # "error": ran but could not produce/ship a result
                job.error = payload
            handle.job = None
            handle.jobs_done += 1
            self._finish(job, completed)

    def _stall_threshold(self, job: PoolJob) -> Optional[float]:
        if job.budget is None or job.budget <= 0:
            return None
        return self.stall_factor * job.budget

    def _check_stalls(self) -> None:
        """Flag in-flight jobs that blew far past their budget.

        Emits one ``pool_stall`` trace event per job (not per check)
        and keeps the ``pool.stalls`` counter in step; the stalled flag
        clears itself when the job eventually completes or its worker
        is reaped.
        """
        for handle in self._handles:
            job = handle.job
            if job is None or job.stall_emitted:
                continue
            threshold = self._stall_threshold(job)
            if threshold is None or job.age <= threshold:
                continue
            job.stall_emitted = True
            self.metrics.counter("pool.stalls").inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "pool_stall",
                    job_id=job.id,
                    job_kind=job.kind,
                    worker=handle.index,
                    pid=handle.process.pid,
                    age=job.age,
                    budget=job.budget,
                    stall_factor=self.stall_factor,
                )

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
        job.state = "done"
        self.metrics.counter("pool.jobs_done").inc()
        if job.t_started is not None:
            self.metrics.histogram("pool.job_wall").observe(job.age)
        self._jobs.pop(job.id, None)
        if job.retain:
            self._done[job.id] = job
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

    # -- the async verification-job API ------------------------------------
    def submit(
        self,
        network,
        query,
        encoder_options=None,
        milp_options=None,
        cell_time_limit: Optional[float] = None,
        network_name: Optional[str] = None,
        stream: bool = False,
    ) -> JobTicket:
        """Submit one verification query; returns a ticket immediately.

        ``query`` is a :class:`repro.core.campaign.CampaignQuery` (or a
        :class:`~repro.core.properties.SafetyProperty`, converted).  A
        verdict-cache hit completes the ticket instantly without
        touching any worker; otherwise the query ships to a worker with
        any cached bounds for its region attached.  ``stream=True``
        relays the worker's trace records live (see :meth:`stream`).
        """
        from repro.core.campaign import (
            CampaignCell,
            CampaignQuery,
            _new_task,
            _task_fingerprint,
        )
        from repro.core.encoder import EncoderOptions
        from repro.core.properties import SafetyProperty
        from repro.milp.branch_and_bound import MILPOptions

        if isinstance(query, SafetyProperty):
            query = CampaignQuery(
                name=query.name,
                region=query.region,
                objective=query.objective,
                kind="prove",
                threshold=query.threshold,
            )
        task = _new_task(
            0, network_name or network.architecture_id, network, query,
            encoder_options or EncoderOptions(),
            milp_options or MILPOptions(time_limit=120.0),
            cell_time_limit,
        )
        fingerprint = _task_fingerprint(task)
        cached = self.verdict_cache.get(fingerprint)
        if cached is not None:
            self.metrics.counter("pool.verdict_hits").inc()
            job = PoolJob(
                next(self._ids), "cell", task,
                fingerprint=fingerprint, retain=True,
            )
            job.state = "done"
            job.result = CampaignCell(
                network_id=task.network_name,
                property_name=query.name,
                result=cached,
            )
            self._done[job.id] = job
            return JobTicket(job.id, fingerprint, cached=True)
        self.metrics.counter("pool.verdict_misses").inc()
        entry = self.bounds_cache.peek(task.bounds_key)
        if entry is not None:
            task.bounds, task.bounds_error = entry
        if self.tracer.enabled or stream:
            task.trace_cfg = (self.run_id, f"q{next(self._ids)}.")
        job = self.submit_task(
            "cell", task,
            fingerprint=fingerprint, stream=stream, retain=True,
            budget=cell_time_limit or task.milp_options.time_limit,
        )
        return JobTicket(job.id, fingerprint)

    def _ticket_job(self, ticket: JobTicket) -> PoolJob:
        job = self._done.get(ticket.id) or self._jobs.get(ticket.id)
        if job is None:
            raise CertificationError(
                f"unknown ticket {ticket.id} (already fetched?)"
            )
        return job

    def poll(self, ticket: JobTicket) -> str:
        """``"queued"`` / ``"running"`` / ``"done"`` (non-blocking)."""
        if ticket.id not in self._done:
            self.wait(timeout=0)
        return self._ticket_job(ticket).state

    def progress(self, ticket: JobTicket, since: int = 0) -> List[dict]:
        """Trace records streamed so far (``since`` = skip that many)."""
        if ticket.id not in self._done:
            self.wait(timeout=0)
        return list(self._ticket_job(ticket).progress[since:])

    def stream(self, ticket: JobTicket):
        """Yield live trace records until the job completes."""
        cursor = 0
        while True:
            job = self._ticket_job(ticket)
            while cursor < len(job.progress):
                yield job.progress[cursor]
                cursor += 1
            if job.done:
                return
            self.wait(timeout=0.05)

    def fetch(
        self, ticket: JobTicket, timeout: Optional[float] = None
    ) -> VerificationResult:
        """Block until the job completes; crashes degrade to ERROR.

        Fault isolation is preserved at the API surface too: a killed
        worker or an unshippable result yields a
        :attr:`Verdict.ERROR` result carrying the diagnostic rather
        than an exception.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            job = self._ticket_job(ticket)
            if job.done:
                break
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            self.wait(timeout=remaining)
            if (
                deadline is not None
                and time.monotonic() >= deadline
                and not self._ticket_job(ticket).done
            ):
                raise CertificationError(
                    f"ticket {ticket.id} not done within {timeout}s"
                )
        job = self._done.pop(ticket.id)
        if job.error is not None or job.crashed:
            return VerificationResult(
                verdict=Verdict.ERROR,
                description=f"worker failed: {job.error}",
            )
        return job.result.result

    # -- accounting --------------------------------------------------------
    @staticmethod
    def _hit_rate(hits: float, misses: float) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def _worker_state(self, handle: _WorkerHandle) -> str:
        if not handle.alive:
            return "dead"
        job = handle.job
        if job is None:
            return "idle"
        if job.stall_emitted:
            return "stalled"
        return "busy"

    def stats(self) -> Dict[str, float]:
        """Flat snapshot: worker, job, queue and cache accounting.

        Includes per-worker gauges (``pool.worker<i>.jobs_done`` /
        ``.job_age`` / ``.alive``) so an exported snapshot carries the
        same per-worker view :meth:`health` structures.
        """
        self._check_stalls()
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
        for handle in self._handles:
            prefix = f"pool.worker{handle.index}"
            out[f"{prefix}.alive"] = 1.0 if handle.alive else 0.0
            out[f"{prefix}.jobs_done"] = handle.jobs_done
            out[f"{prefix}.job_age"] = (
                handle.job.age if handle.job is not None else 0.0
            )
        return out

    def health(self) -> Dict[str, Any]:
        """Structured fleet health: one record per worker plus totals.

        The JSON-friendly view behind ``repro serve``'s ``health`` /
        ``watch`` ops and the per-worker table in ``repro top``.
        """
        self._check_stalls()
        now = time.time()
        workers = []
        for handle in self._handles:
            job = handle.job
            workers.append({
                "worker": handle.index,
                "pid": handle.process.pid,
                "state": self._worker_state(handle),
                "jobs_done": handle.jobs_done,
                "job": job.id if job is not None else None,
                "job_kind": job.kind if job is not None else None,
                "job_age": job.age if job is not None else None,
                "job_budget": job.budget if job is not None else None,
                "last_heartbeat_age": (
                    None if handle.last_heartbeat is None
                    else max(0.0, now - handle.last_heartbeat)
                ),
                "uptime": max(0.0, now - handle.spawned_at),
            })
        snapshot = self.metrics.snapshot()
        return {
            "t": now,
            "workers": workers,
            "queue_depth": len(self._queue),
            "in_flight": sum(
                1 for w in workers if w["job"] is not None
            ),
            "jobs_done": int(snapshot.get("pool.jobs_done", 0)),
            "crashes": int(snapshot.get("pool.worker_crashes", 0)),
            "respawns": int(snapshot.get("pool.respawns", 0)),
            "stalls": int(snapshot.get("pool.stalls", 0)),
        }

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
        job.state = "running"
        job.t_started = time.time()
        try:
            job.result = _execute(job.kind, job.payload)
        except Exception:
            job.error = traceback.format_exc()
        if job.stream and job.error is None:
            # Nothing can read the stream mid-job in-process: relay the
            # cell's own records once it is done.
            job.progress.extend(getattr(job.result, "trace_records", []))
        self._finish(job, completed)
        return completed
