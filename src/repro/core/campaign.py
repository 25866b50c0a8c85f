"""Verification campaigns: many networks x many properties, one artifact.

Table II is a campaign — the same query across a family of networks plus
a decision query on the largest.  :class:`VerificationCampaign` makes
that a first-class object: register networks and properties (decision
queries) or max queries, run the full matrix, collect per-cell results,
render the matrix, and export the campaign as certification evidence.

Scalability levers (cf. Kuper et al., *Toward Scalable Verification for
Safety-Critical Deep Networks*):

* **parallel cells** — every (network, query) cell is independent, so the
  matrix fans out over ``jobs`` worker processes;
* **bound reuse** — pre-activation bounds are computed once per unique
  (network, region geometry, bound mode) triple and shared by all cells
  that need them, keyed on *content* (never on object identity);
* **fault isolation** — a solver exception or an exhausted per-cell
  budget becomes an ``ERROR``/``TIMEOUT`` cell carrying the captured
  traceback; a *crashed worker process* is confined to the one cell (or
  the one bound computation) it was running; the rest of the matrix
  always completes;
* **one execution path** — every run drives the same pipelined
  fan-out against a pool: forked
  :class:`repro.core.pool.VerificationPool` workers for parallel runs,
  an :class:`repro.core.pool.InProcessPool` (the caller is the one
  worker) for serial ones.  Verdict cache, bounds prefetch and trace
  relay therefore exist once, and serial and parallel runs produce the
  same span ids.  A cell with input-region bisection on is an ordinary
  cell job too: its worker's :class:`~repro.core.verifier.Verifier`
  runs :class:`repro.analysis.split.RegionBisectionDriver`, whose
  shards share the cell's one MILP deadline and whose plan traces
  under the cell's span.  An attached persistent pool
  (``campaign.run(pool=...)``) always runs the cells: consecutive
  campaigns reuse its warm workers, share one content-keyed bounds
  cache, and skip cells whose full query fingerprint already has a
  memoised verdict.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import bounds as bounds_mod
from repro.core.bounds import LayerBounds, bounds_cache_key
from repro.core.encoder import EncoderOptions
from repro.core.pool import InProcessPool, VerificationPool
from repro.core.properties import (
    InputRegion,
    OutputObjective,
    SafetyProperty,
)
from repro.core.verifier import (
    VerificationResult,
    Verdict,
    Verifier,
    verdict_fingerprint,
)
from repro.errors import CertificationError
from repro.milp.branch_and_bound import MILPOptions
from repro.nn.network import FeedForwardNetwork
from repro.obs.sinks import RingBufferSink
from repro.obs.trace import Tracer, as_tracer
from repro.report.tables import render_generic

#: Explicit matrix mark for every verdict — no raw enum-value fallback.
VERDICT_MARKS: Dict[Verdict, str] = {
    Verdict.VERIFIED: "proved",
    Verdict.FALSIFIED: "FALSIFIED",
    Verdict.MAX_FOUND: "max-found",
    Verdict.TIMEOUT: "time-out",
    Verdict.ERROR: "ERROR",
}

#: Verdicts that count as a successfully completed cell: a proved
#: property, or a max query solved to optimality.
PASSING_VERDICTS = frozenset({Verdict.VERIFIED, Verdict.MAX_FOUND})

#: ``progress(completed, total, cell)`` — invoked after every cell.
ProgressHook = Callable[[int, int, "CampaignCell"], None]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a worker count.

    ``None``/``1`` mean serial in-process execution, ``0`` means "one
    worker per CPU" (``os.cpu_count()``), any other positive value is
    taken literally.
    """
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise CertificationError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclasses.dataclass
class CampaignQuery:
    """One column of the campaign matrix.

    ``kind`` is ``"prove"`` (decision query: objective <= threshold over
    the region) or ``"max"`` (maximise the objective over the region).
    """

    name: str
    region: InputRegion
    objective: OutputObjective
    kind: str = "prove"
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("prove", "max"):
            raise CertificationError(
                f"query kind must be 'prove' or 'max', got {self.kind!r}"
            )

    def as_property(self) -> SafetyProperty:
        """The query as a :class:`SafetyProperty` (decision kind only)."""
        if self.kind != "prove":
            raise CertificationError(
                f"max query {self.name!r} has no property form"
            )
        return SafetyProperty(
            name=self.name,
            region=self.region,
            objective=self.objective,
            threshold=self.threshold,
        )


@dataclasses.dataclass
class CampaignCell:
    """One (network, query) verification outcome."""

    network_id: str
    property_name: str
    result: VerificationResult
    traceback: Optional[str] = None
    #: Raw trace records produced while verifying this cell (workers
    #: trace into a ring buffer; the parent re-emits these into its own
    #: sinks — the cross-process relay).
    trace_records: List[dict] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.result.verdict in PASSING_VERDICTS


@dataclasses.dataclass
class CampaignReport:
    """All cells of a finished campaign."""

    cells: List[CampaignCell]
    wall_time: float = 0.0
    jobs: int = 1

    @property
    def all_passed(self) -> bool:
        """Every cell passed.  An *empty* campaign answers ``False``:
        a report that verified nothing must never read as a safety
        certificate (``pass_rate`` is likewise 0.0, not vacuously 1.0).
        """
        return bool(self.cells) and all(c.passed for c in self.cells)

    @property
    def pass_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.passed for c in self.cells) / len(self.cells)

    @property
    def total_cell_time(self) -> float:
        """Summed per-cell solver time — the serial-equivalent cost."""
        return sum(c.result.wall_time for c in self.cells)

    @property
    def speedup(self) -> float:
        """Observed parallel speedup: cell time over campaign wall time.

        Degenerate clocks are reported honestly instead of pretending
        parity: with no measured wall time the ratio is 1.0 only when
        the cells also report zero time (nothing ran, nothing gained) —
        nonzero cell time against a zero wall clock is unbounded
        speedup, not 1.0.
        """
        if self.wall_time <= 0.0:
            return 1.0 if self.total_cell_time <= 0.0 else math.inf
        return self.total_cell_time / self.wall_time

    @property
    def total_lp_iterations(self) -> int:
        """Simplex iterations summed over every cell's node LPs."""
        return sum(c.result.lp_iterations for c in self.cells)

    @property
    def static_proofs(self) -> int:
        """Cells proved by the symbolic static analyzer — no MILP built."""
        return sum(
            1 for c in self.cells if c.result.solver == "static"
        )

    @property
    def certified_cells(self) -> int:
        """Cells whose result ships a checker-accepted proof certificate.

        Only certify-mode runs produce these (see
        :attr:`repro.core.encoder.EncoderOptions.certify`); every
        counted certificate was already replayed through
        :func:`repro.proof.check.check_certificate` before it was
        attached, so this is a count of *independently checkable*
        verdicts, not of emission attempts.
        """
        return sum(1 for c in self.cells if c.result.certified)

    @property
    def split_cells(self) -> int:
        """Sub-regions handed to the MILP by the bisection driver.

        Sub-region work is folded into its parent cell's result (the
        shards never appear in ``cells``), so ``total_cell_time`` and
        ``speedup`` count every shard's solve time exactly once.
        """
        return sum(c.result.split_cells for c in self.cells)

    @property
    def split_proofs(self) -> int:
        """Sub-regions pruned statically by the per-shard prescreen."""
        return sum(c.result.split_proofs for c in self.cells)

    def failures(self) -> List[CampaignCell]:
        """Cells that did not complete (falsified, timed out, errored)."""
        return [c for c in self.cells if not c.passed]

    def errors(self) -> List[CampaignCell]:
        """Cells that errored (isolated faults), tracebacks attached."""
        return [
            c for c in self.cells
            if c.result.verdict is Verdict.ERROR
        ]

    def verdict_counts(self) -> Dict[Verdict, int]:
        """How many cells ended in each verdict (all five keys present)."""
        counts = {verdict: 0 for verdict in Verdict}
        for cell in self.cells:
            counts[cell.result.verdict] += 1
        return counts

    def cell(
        self, network_id: str, property_name: str
    ) -> CampaignCell:
        """Look up one cell; raises on unknown coordinates."""
        for candidate in self.cells:
            if (
                candidate.network_id == network_id
                and candidate.property_name == property_name
            ):
                return candidate
        raise CertificationError(
            f"no cell ({network_id!r}, {property_name!r}) in campaign"
        )

    def render(self) -> str:
        """Matrix rendering: networks as rows, queries as columns."""
        networks = sorted({c.network_id for c in self.cells})
        properties = sorted({c.property_name for c in self.cells})
        rows = []
        index: Dict[Tuple[str, str], CampaignCell] = {
            (c.network_id, c.property_name): c for c in self.cells
        }
        for net in networks:
            row = [net]
            for prop in properties:
                cell = index.get((net, prop))
                if cell is None:
                    row.append("-")
                    continue
                mark = VERDICT_MARKS[cell.result.verdict]
                row.append(f"{mark} ({cell.result.wall_time:.1f}s)")
            rows.append(row)
        return render_generic(
            ["network"] + properties, rows,
            title="verification campaign",
        )

    def summary(self) -> str:
        """One-paragraph campaign accounting: verdicts, time, speedup."""
        counts = self.verdict_counts()
        parts = [
            f"{count} {VERDICT_MARKS[verdict]}"
            for verdict, count in counts.items()
            if count
        ]
        from repro.obs.metrics import render_quantiles

        lines = [
            f"campaign: {len(self.cells)} cells "
            f"({', '.join(parts) if parts else 'empty'})",
            f"wall time {self.wall_time:.1f}s with {self.jobs} "
            f"worker{'s' if self.jobs != 1 else ''}; "
            f"cell time {self.total_cell_time:.1f}s "
            f"(speedup {self.speedup:.1f}x)",
        ]
        if self.cells:
            lines.append(
                "cell wall "
                + render_quantiles(
                    [c.result.wall_time for c in self.cells]
                )
            )
        if self.static_proofs:
            lines.append(
                f"static analysis: {self.static_proofs} cell"
                f"{'s' if self.static_proofs != 1 else ''} proved "
                "symbolically (no MILP built)"
            )
        if self.certified_cells:
            lines.append(
                f"proof certificates: {self.certified_cells} cell"
                f"{'s' if self.certified_cells != 1 else ''} carry a "
                "checker-accepted repro-proof/1 witness"
            )
        if self.split_cells or self.split_proofs:
            lines.append(
                f"region bisection: {self.split_proofs} sub-region"
                f"{'s' if self.split_proofs != 1 else ''} pruned "
                f"statically, {self.split_cells} solved by the MILP"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class _CellTask:
    """Everything one worker needs to verify a single cell."""

    index: int
    network_name: str
    network: FeedForwardNetwork
    query: CampaignQuery
    encoder_options: EncoderOptions
    milp_options: MILPOptions
    cell_time_limit: Optional[float]
    bounds_key: Tuple[str, str, str]
    bounds: Optional[List[LayerBounds]] = None
    bounds_error: Optional[str] = None
    #: Rendered error diagnostics from the static pre-solve audit; a
    #: cell carrying one becomes an ERROR cell without any solver time.
    audit_error: Optional[str] = None
    #: ``(run_id, span_id_prefix)`` when the campaign is traced; the
    #: worker builds a relay tracer from it (see :func:`_worker_tracer`).
    trace_cfg: Optional[Tuple[str, str]] = None


def _new_task(
    index: int,
    network_name: str,
    network: FeedForwardNetwork,
    query: CampaignQuery,
    encoder_options: EncoderOptions,
    milp_options: MILPOptions,
    cell_time_limit: Optional[float],
) -> _CellTask:
    """A cell task keyed on its network, region and bound mode."""
    return _CellTask(
        index=index,
        network_name=network_name,
        network=network,
        query=query,
        encoder_options=encoder_options,
        milp_options=milp_options,
        cell_time_limit=cell_time_limit,
        bounds_key=bounds_cache_key(
            network, query.region, encoder_options.bound_mode
        ),
    )


def _worker_tracer(trace_cfg: Optional[Tuple[str, str]]):
    """``(tracer, sink)`` for a worker-side relay, or ``(None, None)``.

    The tracer writes into an in-memory ring buffer whose records ride
    back to the parent on the result object; the id prefix keeps span
    ids from independent workers disjoint after the merge.
    """
    if trace_cfg is None:
        return None, None
    run_id, prefix = trace_cfg
    sink = RingBufferSink()
    return Tracer([sink], run_id=run_id, id_prefix=prefix), sink


def _effective_milp_options(task: "_CellTask") -> MILPOptions:
    """The MILP options a worker will actually solve the cell with.

    The per-cell wall-clock budget is folded into the solver's time
    limit; verdict fingerprints must hash *these* options, or a cached
    verdict could leak across campaigns with different cell budgets.
    """
    milp = task.milp_options
    if task.cell_time_limit is not None:
        milp = dataclasses.replace(
            milp,
            time_limit=min(milp.time_limit, task.cell_time_limit),
        )
    return milp


def _task_fingerprint(task: "_CellTask") -> str:
    """Verdict-cache key of the cell's *entire* query."""
    return verdict_fingerprint(
        task.network,
        task.query.region,
        task.query.objective,
        task.query.kind,
        task.query.threshold,
        task.encoder_options,
        _effective_milp_options(task),
    )


def _sink_records(sink: Optional[RingBufferSink]) -> List[dict]:
    return sink.records if sink is not None else []


def _compute_bounds_task(
    payload: Tuple[Tuple[str, str, str], FeedForwardNetwork,
                   InputRegion, Optional[Tuple[str, str]]],
) -> Tuple[Tuple[str, str, str], Optional[List[LayerBounds]],
           Optional[str], List[dict]]:
    """Worker: one fault-isolated bound computation (plus its trace).

    The key's third part is the bound-mode token.  The engine resolves
    through :mod:`repro.core.bounds` at call time, with ``tracer=`` only
    when traced, exactly as :meth:`BoundsCache.lookup` calls it.
    """
    key, network, region, trace_cfg = payload
    tracer, sink = _worker_tracer(trace_cfg)
    if tracer is None:
        bounds, error = bounds_mod.compute_bounds_entry(
            network, region, key[2]
        )
    else:
        bounds, error = bounds_mod.compute_bounds_entry(
            network, region, key[2], tracer=tracer
        )
    return key, bounds, error, _sink_records(sink)


def _error_cell(
    task: _CellTask,
    message: str,
    trace: Optional[str],
    wall: float,
    records: Optional[List[dict]] = None,
) -> CampaignCell:
    return CampaignCell(
        network_id=task.network_name,
        property_name=task.query.name,
        result=VerificationResult(
            verdict=Verdict.ERROR,
            wall_time=wall,
            description=message,
        ),
        traceback=trace,
        trace_records=records or [],
    )


def _run_cell_task(task: _CellTask) -> CampaignCell:
    """Worker: verify one cell; every failure becomes an ERROR cell."""
    start = time.monotonic()
    tracer, sink = _worker_tracer(task.trace_cfg)
    trc = as_tracer(tracer)
    # Decided before solving: a rejected audit or a failed bound set.
    if task.audit_error is not None:
        detail = task.audit_error
        message = "static audit rejected the cell's inputs: " + "; ".join(
            detail.splitlines()
        )
    else:
        detail = task.bounds_error
        message = (
            f"bound computation failed for region "
            f"{task.query.region.name!r}"
        )
    if detail is not None:
        with trc.span(
            "cell", network=task.network_name, query=task.query.name,
            kind=task.query.kind,
        ) as span:
            span.set(verdict=Verdict.ERROR.value)
        return _error_cell(
            task, message, detail, 0.0, records=_sink_records(sink)
        )
    milp = _effective_milp_options(task)
    try:
        with trc.span(
            "cell", network=task.network_name, query=task.query.name,
            kind=task.query.kind,
        ) as span:
            try:
                verifier = Verifier(
                    task.network, task.encoder_options, milp,
                    tracer=tracer,
                )
                if task.query.kind == "max":
                    result = verifier.maximize(
                        task.query.region,
                        task.query.objective,
                        precomputed_bounds=task.bounds,
                        raise_on_infeasible=False,
                    )
                else:
                    result = verifier.prove(
                        task.query.as_property(),
                        precomputed_bounds=task.bounds,
                    )
            except Exception:
                span.set(verdict=Verdict.ERROR.value)
                raise
            wall = time.monotonic() - start
            if (
                task.cell_time_limit is not None
                and wall > task.cell_time_limit
                and result.verdict not in (Verdict.TIMEOUT, Verdict.ERROR)
            ):
                # The solver finished but blew the cell's wall-clock
                # budget (e.g. in encoding work the MILP time limit
                # cannot see).
                result = dataclasses.replace(
                    result,
                    verdict=Verdict.TIMEOUT,
                    description=(
                        f"{result.description} "
                        f"[cell budget {task.cell_time_limit:.1f}s "
                        f"exceeded: {wall:.1f}s]"
                    ).strip(),
                )
            span.set(verdict=result.verdict.value, wall=result.wall_time)
    except Exception as exc:
        return _error_cell(
            task,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
            time.monotonic() - start,
            records=_sink_records(sink),
        )
    return CampaignCell(
        task.network_name, task.query.name, result,
        trace_records=_sink_records(sink),
    )


class VerificationCampaign:
    """Collects networks and queries, runs the full matrix.

    ``jobs`` sets the worker count: ``None``/``1`` run the cells in
    this process, ``0`` fans them out over one worker process per CPU,
    ``n > 1`` over exactly ``n`` workers.  ``cell_time_limit`` is a
    per-cell wall-clock budget; a cell that exhausts it reports
    ``TIMEOUT`` instead of stalling the campaign.
    """

    def __init__(
        self,
        encoder_options: Optional[EncoderOptions] = None,
        milp_options: Optional[MILPOptions] = None,
        jobs: Optional[int] = None,
        cell_time_limit: Optional[float] = None,
        audit: bool = True,
    ) -> None:
        self.encoder_options = encoder_options or EncoderOptions()
        self.milp_options = milp_options or MILPOptions(time_limit=120.0)
        self.jobs = jobs
        self.cell_time_limit = cell_time_limit
        #: Run the static soundness audit (:mod:`repro.analysis.audit`)
        #: over every network and region before solving; cells whose
        #: inputs carry *error* diagnostics become ERROR cells without
        #: spending any solver time.  Pure inspection: clean inputs are
        #: verified exactly as with ``audit=False``.
        self.audit = audit
        self._networks: Dict[str, FeedForwardNetwork] = {}
        self._queries: Dict[str, CampaignQuery] = {}

    def add_network(
        self, network: FeedForwardNetwork, name: Optional[str] = None
    ) -> str:
        """Register a network under ``name`` (default: architecture id)."""
        name = name or network.architecture_id
        if name in self._networks:
            raise CertificationError(
                f"duplicate network name {name!r} in campaign"
            )
        self._networks[name] = network
        return name

    def add_property(self, prop: SafetyProperty) -> str:
        """Register a safety property as a decision query."""
        return self.add_query(
            CampaignQuery(
                name=prop.name,
                region=prop.region,
                objective=prop.objective,
                kind="prove",
                threshold=prop.threshold,
            )
        )

    def add_max_query(
        self,
        name: str,
        region: InputRegion,
        objective: OutputObjective,
    ) -> str:
        """Register a max query (Table II's middle column)."""
        return self.add_query(
            CampaignQuery(
                name=name, region=region, objective=objective, kind="max"
            )
        )

    def add_query(self, query: CampaignQuery) -> str:
        """Register a query (names must be unique across both kinds)."""
        if query.name in self._queries:
            raise CertificationError(
                f"duplicate property name {query.name!r} in campaign"
            )
        self._queries[query.name] = query
        return query.name

    @property
    def size(self) -> Tuple[int, int]:
        return len(self._networks), len(self._queries)

    # -- execution -------------------------------------------------------------
    def run(
        self,
        jobs: Optional[int] = None,
        progress: Optional[ProgressHook] = None,
        tracer=None,
        pool=None,
    ) -> CampaignReport:
        """Verify every query on every network.

        Pre-activation bounds are computed once per unique (network,
        region geometry) pair and shared across that region's queries.
        ``jobs`` overrides the campaign-level setting for this run;
        ``progress`` is invoked after every completed cell.  With a
        ``tracer``, every cell (and shared bound prefetch) is traced
        under a ``c<i>.``/``b<i>.`` span-id prefix and relayed into the
        parent's sinks under one run id, the same ids in every mode.

        ``pool`` attaches a persistent
        :class:`repro.core.pool.VerificationPool`, which then runs every
        cell (with no explicit ``jobs``, its worker count is the
        reported fan-out).  Without one, a run with several workers and
        cells builds an ephemeral pool; anything else runs on an
        :class:`repro.core.pool.InProcessPool`.
        """
        if not self._networks or not self._queries:
            raise CertificationError(
                "campaign needs at least one network and one property"
            )
        tracer = as_tracer(tracer)
        requested = jobs if jobs is not None else self.jobs
        if requested is None and pool is not None:
            workers = pool.workers
        else:
            workers = resolve_jobs(requested)
        start = time.monotonic()
        tasks = self._build_tasks()
        if self.audit:
            self._audit_tasks(tasks, tracer)
        if tracer.enabled:
            for task in tasks:
                task.trace_cfg = (tracer.run_id, f"c{task.index}.")
        owned = pool is None
        if owned:
            if workers > 1 and len(tasks) > 1:
                pool = VerificationPool(
                    workers=workers,
                    tracer=tracer if tracer.enabled else None,
                )
            else:
                pool = InProcessPool()
                workers = 1
        try:
            cells = self._run_pooled(tasks, pool, progress, tracer)
        finally:
            if owned:
                pool.shutdown()
        report = CampaignReport(
            cells=cells,
            wall_time=time.monotonic() - start,
            jobs=workers,
        )
        if tracer.enabled:
            tracer.event(
                "campaign",
                cells=len(cells),
                wall_time=report.wall_time,
                jobs=workers,
                pass_rate=report.pass_rate,
            )
        return report

    def _audit_tasks(self, tasks: List[_CellTask], tracer) -> None:
        """Static pre-solve audit: attach error diagnostics to cells.

        Each distinct network and region is audited once; a cell whose
        network *or* region carries error diagnostics gets the rendered
        report attached and is turned into an ERROR cell by the runner
        before any bounds or MILP work happens.
        """
        from repro.analysis.audit import audit_network, audit_region

        with tracer.span("audit", cells=len(tasks)) as span:
            network_reports = {
                name: audit_network(network)
                for name, network in self._networks.items()
            }
            region_reports = {
                query.name: audit_region(query.region)
                for query in self._queries.values()
            }
            flagged = 0
            for task in tasks:
                parts = []
                net_report = network_reports[task.network_name]
                if net_report.has_errors:
                    parts.append(net_report.render())
                region_report = region_reports[task.query.name]
                if region_report.has_errors:
                    parts.append(region_report.render())
                if parts:
                    task.audit_error = "\n".join(parts)
                    flagged += 1
            span.set(
                flagged=flagged,
                errors=sum(
                    len(r.errors)
                    for r in (
                        list(network_reports.values())
                        + list(region_reports.values())
                    )
                ),
            )

    def _build_tasks(self) -> List[_CellTask]:
        tasks: List[_CellTask] = []
        for net_name, network in self._networks.items():
            for query in self._queries.values():
                tasks.append(_new_task(
                    len(tasks), net_name, network, query,
                    self.encoder_options, self.milp_options,
                    self.cell_time_limit,
                ))
        return tasks

    def _run_pooled(
        self,
        tasks: List[_CellTask],
        pool,
        progress: Optional[ProgressHook],
        tracer,
    ) -> List[CampaignCell]:
        """Pipelined two-stage fan-out with per-key fault isolation.

        Each *unique* (network, region geometry, mode) bound set is one
        independent pool job; a cell dispatches the moment its bound
        set resolves (no barrier between the stages).  A crashed bounds
        job degrades exactly the cells sharing that ``bounds_key`` to
        ``bounds_error`` ERROR cells — historically ``pool.map`` raised
        out of the whole stage and aborted the campaign.  A crashed
        cell job becomes an ERROR cell for that cell alone.  Cells
        whose query fingerprint has a memoised verdict never reach a
        worker at all.
        """
        from repro.analysis.split import bisects

        cells: List[Optional[CampaignCell]] = [None] * len(tasks)
        total = len(tasks)
        done_count = 0

        def finish(task: _CellTask, cell: CampaignCell) -> None:
            nonlocal done_count
            for record in cell.trace_records:
                tracer.emit(record)
            cells[task.index] = cell
            done_count += 1
            if progress is not None:
                progress(done_count, total, cell)

        outstanding = 0
        job_to_task: Dict[int, _CellTask] = {}
        job_to_key: Dict[int, Tuple[str, str, str]] = {}
        fingerprints: Dict[int, str] = {}

        def dispatch_cell(task: _CellTask) -> None:
            nonlocal outstanding
            job = pool.submit_task("cell", task, fingerprints[task.index])
            job_to_task[job.id] = task
            outstanding += 1

        # Decided-before-solving cells (audit rejections) and verdict
        # cache hits run in-process: there is no solver work to fan out.
        # A cell its verifier will bisect skips the bounds stage: the
        # driver bounds every box once itself, the whole-region
        # prescreen's screen being the plan's root, so the parent
        # region's shared bound set would be dead weight.
        by_key: Dict[Tuple[str, str, str], List[_CellTask]] = {}
        for task in tasks:
            if task.audit_error is not None:
                finish(task, _run_cell_task(task))
                continue
            fingerprint = _task_fingerprint(task)
            fingerprints[task.index] = fingerprint
            cached = pool.verdict_cache.get(fingerprint)
            if cached is not None:
                finish(task, CampaignCell(
                    task.network_name, task.query.name, cached
                ))
            elif bisects(
                task.network, task.query.region, task.query.objective,
                task.encoder_options,
            ):
                dispatch_cell(task)
            else:
                by_key.setdefault(task.bounds_key, []).append(task)

        def resolve_key(key, entry) -> None:
            """Attach a bounds entry to its cells and dispatch them."""
            bounds, error = entry
            for task in by_key[key]:
                task.bounds, task.bounds_error = bounds, error
                if error is not None:
                    # No solver work left in this cell; degrade it to a
                    # bounds_error ERROR cell right here in the parent.
                    finish(task, _run_cell_task(task))
                else:
                    dispatch_cell(task)

        # Stage 1: one pool job per unique unresolved bounds key; cached
        # keys resolve instantly.  Submitted per-future (never a
        # pool.map batch) so one crashing computation cannot take the
        # others down with it.
        for i, (key, group) in enumerate(by_key.items()):
            entry = pool.bounds_cache.peek(key)
            if entry is not None:
                resolve_key(key, entry)
                continue
            task = group[0]
            payload = (
                key, task.network, task.query.region,
                (tracer.run_id, f"b{i}.") if tracer.enabled else None,
            )
            job = pool.submit_task("bounds", payload)
            job_to_key[job.id] = key
            outstanding += 1

        # Stage 2 (pipelined): drain completions; bounds completions
        # release their cells immediately.
        while outstanding:
            for job in pool.wait():
                outstanding -= 1
                key = job_to_key.pop(job.id, None)
                if key is not None:
                    if job.error is not None:
                        entry = (None, job.error)
                    else:
                        _, bounds, error, records = job.result
                        for record in records:
                            tracer.emit(record)
                        entry = (bounds, error)
                    pool.bounds_cache.seed(key, *entry)
                    resolve_key(key, entry)
                    continue
                task = job_to_task.pop(job.id)
                if job.error is not None:
                    cell = _error_cell(
                        task,
                        f"worker failed: {job.error.splitlines()[-1]}"
                        if not job.crashed
                        else f"worker failed: {job.error}",
                        job.error,
                        0.0,
                    )
                else:
                    cell = job.result
                finish(task, cell)
        return [cell for cell in cells if cell is not None]
