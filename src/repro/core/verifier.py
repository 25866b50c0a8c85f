"""Formal verification queries over encoded networks.

Two query types reproduce the paper's Table II:

* **max queries** — "what is the maximum lateral velocity the predictor
  can suggest while a vehicle is on the left?" (the table's middle
  column); and
* **decision queries** — "prove the lateral velocity can never exceed
  3 m/s" (the table's last row), realised as an infeasibility check on
  the violation-witness encoding.

Every counterexample is *replayed through the real network* before being
reported, so MILP numerics can never produce a spurious witness.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import LayerBounds, total_ambiguous
from repro.core.encoder import (
    EncodedNetwork,
    EncoderOptions,
    attach_objective,
    attach_violation_constraint,
    compute_bounds,
    encode_network,
)
from repro.core.properties import (
    InputRegion,
    OutputObjective,
    SafetyProperty,
)
from repro.errors import EncodingError
from repro.milp.branch_and_bound import MILPOptions, solve_milp
from repro.milp.status import SolveStatus
from repro.nn.network import FeedForwardNetwork
from repro.obs.trace import as_tracer

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.analysis.symbolic import SymbolicScreen


#: Diagnostic for a max query over an empty input region (raised, or
#: carried by an ERROR result under ``raise_on_infeasible=False``).
INFEASIBLE_REGION_MESSAGE = (
    "max query infeasible: the input region is empty"
)


class Verdict(enum.Enum):
    """Outcome of a verification query."""

    VERIFIED = "verified"         # property proven
    FALSIFIED = "falsified"       # counterexample found and replayed
    MAX_FOUND = "max_found"       # max query solved to optimality
    TIMEOUT = "timeout"           # budget exhausted (paper: "time-out")
    ERROR = "error"


@dataclasses.dataclass
class VerificationResult:
    """Result of one query.

    ``value`` is the proven maximum for max queries (or the best incumbent
    under a timeout); ``counterexample`` is an input witness, already
    validated against the real network; ``network_value`` its replayed
    objective value.
    """

    verdict: Verdict
    value: float = math.nan
    best_bound: float = math.nan
    counterexample: Optional[np.ndarray] = None
    network_value: float = math.nan
    wall_time: float = 0.0
    nodes: int = 0
    num_binaries: int = 0
    description: str = ""
    lp_iterations: int = 0
    #: Which engine produced the verdict: ``"milp"`` (branch and bound)
    #: or ``"static"`` (a symbolic output bound cleared the threshold and
    #: no MILP was ever built — see
    #: :func:`repro.analysis.symbolic.symbolic_objective_bounds`).
    solver: str = "milp"
    #: Telemetry snapshot (split-driver counters); the properties
    #: below read from this mapping.
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Independent proof certificate (a ``repro-proof/1`` payload, see
    #: :mod:`repro.proof`) attached to VERIFIED verdicts when the query
    #: ran with ``EncoderOptions.certify``.  Every certificate is
    #: checked once with :func:`repro.proof.check.check_certificate`
    #: before being attached (a split proof's as a whole tree); a
    #: verdict the checker cannot confirm ships *without* a certificate
    #: rather than with a broken one.
    certificate: Optional[Dict] = None

    @property
    def timed_out(self) -> bool:
        return self.verdict is Verdict.TIMEOUT

    @property
    def certified(self) -> bool:
        """True when a checker-accepted certificate is attached."""
        return self.certificate is not None

    @property
    def split_cells(self) -> int:
        """Surviving sub-regions the bisection driver handed to the MILP."""
        return int(self.metrics.get("split_cells", 0))

    @property
    def split_proofs(self) -> int:
        """Sub-regions the per-sub-region prescreen discharged statically."""
        return int(self.metrics.get("split_proofs", 0))


def _options_token(options) -> str:
    """A stable, content-complete token for an options dataclass.

    Fields are serialised in sorted order with ``repr`` (floats
    round-trip exactly), so equal-but-distinct option objects share a
    token and *any* field change produces a new one.
    """
    fields = dataclasses.asdict(options)
    return ";".join(f"{k}={fields[k]!r}" for k in sorted(fields))


def verdict_fingerprint(
    network: FeedForwardNetwork,
    region: InputRegion,
    objective: OutputObjective,
    kind: str,
    threshold: float,
    encoder_options: EncoderOptions,
    milp_options: "MILPOptions",
) -> str:
    """Content hash identifying one verification query's full inputs.

    Two queries share a fingerprint iff they would run the exact same
    decision procedure: same network parameters, same region geometry,
    same objective functional, same kind/threshold and the same encoder
    and MILP options (a different time or node limit can change
    the verdict, so every option field participates).  This is the key
    of the cross-campaign verdict cache: repeated queries on the same
    cell cost one lookup instead of one solve.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(network.fingerprint().encode())
    digest.update(region.fingerprint().encode())
    for idx in sorted(objective.coefficients):
        digest.update(f"{idx}:{objective.coefficients[idx]!r};".encode())
    digest.update(f"|{kind}|{threshold!r}|".encode())
    digest.update(_options_token(encoder_options).encode())
    digest.update(b"|")
    digest.update(_options_token(milp_options).encode())
    return digest.hexdigest()


def result_to_dict(result: VerificationResult) -> Dict:
    """A JSON-serialisable form of a result (see :func:`result_from_dict`).

    Floats survive the round trip bit-for-bit (``json`` emits shortest
    round-trip reprs), so a cached verdict is indistinguishable from the
    solve that produced it.
    """
    return {
        "verdict": result.verdict.value,
        "value": None if math.isnan(result.value) else result.value,
        "best_bound": (
            None if math.isnan(result.best_bound) else result.best_bound
        ),
        "counterexample": (
            None if result.counterexample is None
            else np.asarray(result.counterexample, dtype=float).tolist()
        ),
        "network_value": (
            None if math.isnan(result.network_value)
            else result.network_value
        ),
        "wall_time": result.wall_time,
        "nodes": result.nodes,
        "num_binaries": result.num_binaries,
        "description": result.description,
        "lp_iterations": result.lp_iterations,
        "solver": result.solver,
        "metrics": dict(result.metrics),
        "certificate": result.certificate,
    }


def result_from_dict(payload: Dict) -> VerificationResult:
    """Rebuild a :class:`VerificationResult` written by
    :func:`result_to_dict`."""
    counterexample = payload.get("counterexample")
    return VerificationResult(
        verdict=Verdict(payload["verdict"]),
        value=(
            math.nan if payload.get("value") is None
            else float(payload["value"])
        ),
        best_bound=(
            math.nan if payload.get("best_bound") is None
            else float(payload["best_bound"])
        ),
        counterexample=(
            None if counterexample is None
            else np.asarray(counterexample, dtype=float)
        ),
        network_value=(
            math.nan if payload.get("network_value") is None
            else float(payload["network_value"])
        ),
        wall_time=float(payload.get("wall_time", 0.0)),
        nodes=int(payload.get("nodes", 0)),
        num_binaries=int(payload.get("num_binaries", 0)),
        description=payload.get("description", ""),
        lp_iterations=int(payload.get("lp_iterations", 0)),
        solver=payload.get("solver", "milp"),
        metrics={
            k: v for k, v in payload.get("metrics", {}).items()
        },
        certificate=payload.get("certificate"),
    )


@dataclasses.dataclass
class TableIIRow:
    """One row of the paper's Table II."""

    architecture: str
    #: The verified maximum lateral velocity over the mixture
    #: components, or ``None`` when no maximum was found.
    max_velocity: Optional[float]
    wall_time: float
    timed_out: bool
    num_binaries: int = 0
    #: Why a component query failed (neither solved nor timed out); a
    #: row with an error carries no value, since the maximum of the
    #: other components would understate the true one.
    error: Optional[str] = None

    def render(self) -> str:
        """The row in the paper's Table II layout."""
        if self.error is not None:
            value = "n.a. (verification error)"
        elif self.max_velocity is None:
            value = "n.a. (unable to find maximum)"
        else:
            value = f"{self.max_velocity:.6f}"
        time_str = "time-out" if self.timed_out else f"{self.wall_time:.1f}s"
        return f"{self.architecture:>8}  {value:>32}  {time_str:>10}"


class Verifier:
    """Verification engine bound to one network.

    ``tracer`` (a :class:`repro.obs.Tracer`) turns on phase spans: every
    query wraps itself in a ``query`` span with nested ``bounds`` /
    ``encode`` / ``solve`` phases (plus per-node solver events), so a
    trace answers "where did the time go" per query.  The default is the
    shared no-op tracer.
    """

    #: Whether :meth:`_checked` replays a certificate before it is
    #: attached; off only for a bisection shard's verifier.
    _gates_certificates = True

    def __init__(
        self,
        network: FeedForwardNetwork,
        encoder_options: Optional[EncoderOptions] = None,
        milp_options: Optional[MILPOptions] = None,
        tracer=None,
    ) -> None:
        self.network = network
        self.encoder_options = encoder_options or EncoderOptions()
        self.milp_options = milp_options or MILPOptions()
        self.tracer = as_tracer(tracer)

    # -- queries -----------------------------------------------------------------
    def maximize(
        self,
        region: InputRegion,
        objective: OutputObjective,
        precomputed_bounds: Optional[List[LayerBounds]] = None,
        raise_on_infeasible: bool = True,
        screen: Optional["SymbolicScreen"] = None,
    ) -> VerificationResult:
        """Maximise a linear output functional over the region.

        An empty (infeasible) input region raises :class:`EncodingError`
        by default; with ``raise_on_infeasible=False`` it degrades to a
        :attr:`Verdict.ERROR` result carrying the message — campaign
        runners use this so one empty region cannot abort a whole matrix.
        ``screen`` is the region's
        :class:`~repro.analysis.symbolic.SymbolicScreen` when the caller
        already computed it (a bisection shard); its layer bounds seed
        the bound engine.
        """
        with self.tracer.span(
            "query", kind="max", objective=objective.description,
            region=region.name, network=self.network.architecture_id,
        ) as span:
            result = self._maximize(
                region, objective, precomputed_bounds,
                raise_on_infeasible, screen,
            )
            span.set(verdict=result.verdict.value, nodes=result.nodes)
            return result

    def _split_driver(
        self, region: InputRegion, objective: OutputObjective
    ):
        """The bisection driver, or ``None`` when the query does not
        bisect (see :func:`repro.analysis.split.bisects`)."""
        from repro.analysis.split import RegionBisectionDriver, bisects

        if not bisects(
            self.network, region, objective, self.encoder_options
        ):
            return None
        return RegionBisectionDriver(
            self.network, self.encoder_options, self.milp_options,
            tracer=self.tracer,
        )

    def _maximize(
        self,
        region: InputRegion,
        objective: OutputObjective,
        precomputed_bounds: Optional[List[LayerBounds]],
        raise_on_infeasible: bool,
        screen: Optional["SymbolicScreen"],
    ) -> VerificationResult:
        start = time.monotonic()
        driver = self._split_driver(region, objective)
        if driver is not None:
            return driver.maximize(
                region, objective, start=start,
                raise_on_infeasible=raise_on_infeasible,
            )
        encoded = encode_network(
            self.network,
            region,
            self.encoder_options,
            precomputed_bounds=precomputed_bounds,
            tracer=self.tracer,
            seed_bounds=None if screen is None else screen.bounds,
        )
        attach_objective(encoded, objective, maximize=True)
        with self.tracer.span(
            "solve", binaries=encoded.num_binaries,
        ):
            result = solve_milp(
                encoded.model, self._search_options(start),
                tracer=self.tracer, complete=encoded.complete,
                branch_scores=encoded.branch_scores,
            )
        wall = time.monotonic() - start

        if result.status is SolveStatus.OPTIMAL:
            witness, replayed = self._replay(encoded, result.x, objective)
            if abs(replayed - result.objective) > 1e-3:
                raise EncodingError(
                    "soundness self-check failed: MILP optimum "
                    f"{result.objective:.6g} does not match the replayed "
                    f"network value {replayed:.6g}"
                )
            return VerificationResult(
                verdict=Verdict.MAX_FOUND,
                value=result.objective,
                best_bound=result.best_bound,
                counterexample=witness,
                network_value=replayed,
                wall_time=wall,
                nodes=result.nodes,
                num_binaries=encoded.num_binaries,
                description=objective.description,
                lp_iterations=result.lp_iterations,
            )
        if result.status in (SolveStatus.TIMEOUT, SolveStatus.NODE_LIMIT):
            witness = None
            replayed = math.nan
            if result.x is not None:
                witness, replayed = self._replay(
                    encoded, result.x, objective
                )
            return VerificationResult(
                verdict=Verdict.TIMEOUT,
                value=result.objective,
                best_bound=result.best_bound,
                counterexample=witness,
                network_value=replayed,
                wall_time=wall,
                nodes=result.nodes,
                num_binaries=encoded.num_binaries,
                description=objective.description,
                lp_iterations=result.lp_iterations,
            )
        if result.status is SolveStatus.INFEASIBLE:
            message = INFEASIBLE_REGION_MESSAGE
            if raise_on_infeasible:
                raise EncodingError(message)
            return VerificationResult(
                verdict=Verdict.ERROR,
                wall_time=wall,
                nodes=result.nodes,
                num_binaries=encoded.num_binaries,
                description=message,
                lp_iterations=result.lp_iterations,
            )
        return VerificationResult(
            verdict=Verdict.ERROR,
            wall_time=wall,
            nodes=result.nodes,
            num_binaries=encoded.num_binaries,
            description=objective.description,
            lp_iterations=result.lp_iterations,
        )

    def prove(
        self,
        prop: SafetyProperty,
        precomputed_bounds: Optional[List[LayerBounds]] = None,
        screen: Optional["SymbolicScreen"] = None,
    ) -> VerificationResult:
        """Decision query: prove ``objective <= threshold`` on the region.

        A static prescreen runs first (:meth:`_prescreen`); when it is
        inconclusive the query encodes the *violation* (objective >=
        threshold) and checks feasibility: infeasible means the
        property holds.  Certified and uncertified queries screen with
        the same fixed-policy chain.  ``screen`` is the region's
        :class:`~repro.analysis.symbolic.SymbolicScreen` when the
        caller already computed it (a bisection shard); it is used
        instead of bounding the region again.
        """
        with self.tracer.span(
            "query", kind="prove", property=prop.name,
            region=prop.region.name,
            network=self.network.architecture_id,
        ) as span:
            result = self._prove(prop, precomputed_bounds, screen)
            span.set(verdict=result.verdict.value, nodes=result.nodes)
            return result

    def _checked(self, certificate: Optional[Dict]) -> Optional[Dict]:
        """Gate a freshly assembled certificate through the checker.

        Nothing the checker rejects is ever attached to a result — a
        broken emitter degrades to "no certificate", never to a
        certificate that fails downstream audits.  This is the only
        check a static or MILP certificate gets on the proving path.
        A bisection shard's verifier skips it
        (:attr:`_gates_certificates`): the shard's certificate only
        fills a leaf of the parent's partition tree, and
        :func:`repro.proof.emit.assemble_split_certificate` checks the
        whole tree once, so a bad shard still costs the parent its
        certificate.
        """
        if certificate is None or not self._gates_certificates:
            return certificate
        from repro.proof.check import check_certificate

        return None if check_certificate(certificate).has_errors \
            else certificate

    def _prescreen(
        self,
        prop: SafetyProperty,
        precomputed_bounds: Optional[List[LayerBounds]],
        screen: Optional["SymbolicScreen"],
    ) -> Tuple[Optional[VerificationResult], Optional["SymbolicScreen"]]:
        """The whole-region static prescreen of a decision query.

        Back-substitutes the objective functional to the input region
        with the fixed-policy chain
        (:func:`repro.analysis.symbolic.symbolic_screen`); when the
        resulting sound upper bound clears the threshold — with the
        encoder's numeric safety margin to spare — the property is
        VERIFIED with ``solver="static"``, no MILP built.  Under
        ``certify`` that result carries the chain as a checked
        ``static`` certificate; a chain the checker rejects falls
        through to the MILP.  An uncertified query with
        ``precomputed_bounds`` (any sound layer bounds, e.g. the cell's
        shared LP-tightened set) bounds the objective over them
        instead, which sharpens the relaxations.

        Returns ``(result, screen)``: ``result`` is ``None`` when the
        MILP must decide, and ``screen`` is the region's
        :class:`~repro.analysis.symbolic.SymbolicScreen` (the one
        passed in, else computed here when the prescreen or the
        certificate needs it; ``None`` when the network shape is
        outside the symbolic fragment).  The bisection plan, the MILP
        encoding and LP tightening of the same query reuse it.
        """
        from repro.analysis.symbolic import (
            symbolic_objective_bounds,
            symbolic_screen,
        )

        start = time.monotonic()
        options = self.encoder_options
        coefficients = prop.objective.coefficients
        try:
            if not options.static_prescreen:
                if screen is None and options.certify:
                    # A certified MILP encodes with the chain's bounds.
                    screen = symbolic_screen(
                        self.network, prop.region, coefficients
                    )
                return None, screen
            with self.tracer.span(
                "static", property=prop.name,
                network=self.network.architecture_id,
            ) as span:
                if precomputed_bounds is not None and not options.certify:
                    _, upper = symbolic_objective_bounds(
                        self.network, prop.region, coefficients,
                        bounds=precomputed_bounds,
                    )
                else:
                    if screen is None:
                        screen = symbolic_screen(
                            self.network, prop.region, coefficients
                        )
                    upper = screen.objective_upper
                proved = upper <= prop.threshold - options.bound_margin
                span.set(upper=upper, proved=proved)
        except EncodingError:
            return None, None  # unsupported shape: the MILP path decides
        if not proved:
            return None, screen
        certificate = None
        if options.certify:
            from repro.proof.emit import assemble_static_certificate

            certificate = self._checked(assemble_static_certificate(
                self.network, prop.region, prop.objective, prop.threshold,
                options.bound_margin, prop.name, screen,
            ))
            if certificate is None:
                return None, screen
        return VerificationResult(
            verdict=Verdict.VERIFIED,
            value=prop.threshold,
            best_bound=upper,
            wall_time=time.monotonic() - start,
            description=prop.name,
            solver="static",
            certificate=certificate,
        ), screen

    def _prove(
        self,
        prop: SafetyProperty,
        precomputed_bounds: Optional[List[LayerBounds]],
        screen: Optional["SymbolicScreen"],
    ) -> VerificationResult:
        start = time.monotonic()
        static, screen = self._prescreen(prop, precomputed_bounds, screen)
        if static is not None:
            return static
        driver = self._split_driver(prop.region, prop.objective)
        if driver is not None:
            return driver.prove(prop, start=start, root=screen)
        certify = self.encoder_options.certify and screen is not None
        if certify:
            # Encode with the chain's bounds, which the checker
            # re-derives; the search is the uncertified one.
            precomputed_bounds = screen.bounds
        encoded = encode_network(
            self.network,
            prop.region,
            self.encoder_options,
            precomputed_bounds=precomputed_bounds,
            tracer=self.tracer,
            seed_bounds=None if screen is None else screen.bounds,
        )
        attach_violation_constraint(encoded, prop.objective, prop.threshold)
        attach_objective(encoded, prop.objective, maximize=True)
        with self.tracer.span(
            "solve", binaries=encoded.num_binaries,
        ):
            result = solve_milp(
                encoded.model, self._search_options(start),
                tracer=self.tracer, complete=encoded.complete,
                branch_scores=encoded.branch_scores,
            )
        wall = time.monotonic() - start

        if result.status is SolveStatus.INFEASIBLE:
            certificate = None
            if certify:
                from repro.proof.emit import assemble_milp_certificate

                certificate = self._checked(assemble_milp_certificate(
                    self.network, prop.region, prop.objective,
                    prop.threshold, self.encoder_options.bound_margin,
                    prop.name, screen, encoded.model, result.proof,
                ))
            return VerificationResult(
                verdict=Verdict.VERIFIED,
                value=prop.threshold,
                wall_time=wall,
                nodes=result.nodes,
                num_binaries=encoded.num_binaries,
                description=prop.name,
                certificate=certificate,
                lp_iterations=result.lp_iterations,
            )
        if result.has_incumbent:
            witness, replayed = self._replay(
                encoded, result.x, prop.objective
            )
            if replayed >= prop.threshold - 1e-4:
                return VerificationResult(
                    verdict=Verdict.FALSIFIED,
                    value=result.objective,
                    counterexample=witness,
                    network_value=replayed,
                    wall_time=wall,
                    nodes=result.nodes,
                    num_binaries=encoded.num_binaries,
                    description=prop.name,
                    lp_iterations=result.lp_iterations,
                )
        if result.status in (SolveStatus.TIMEOUT, SolveStatus.NODE_LIMIT):
            return VerificationResult(
                verdict=Verdict.TIMEOUT,
                wall_time=wall,
                nodes=result.nodes,
                num_binaries=encoded.num_binaries,
                description=prop.name,
                lp_iterations=result.lp_iterations,
            )
        return VerificationResult(
            verdict=Verdict.ERROR,
            wall_time=wall,
            nodes=result.nodes,
            num_binaries=encoded.num_binaries,
            description=prop.name,
            lp_iterations=result.lp_iterations,
        )

    def ambiguity_report(self, region: InputRegion) -> int:
        """Binary-variable count the encoding will need over this region."""
        bounds = compute_bounds(
            self.network, region, self.encoder_options,
            tracer=self.tracer,
        )
        return total_ambiguous(bounds, self.network)

    # -- internals --------------------------------------------------------------------
    def _search_options(self, start: float) -> MILPOptions:
        """The MILP options with what is left of the query's time limit.

        Bounding, encoding and the search spend from one budget that
        starts with the query (``start``), so the search gets the limit
        less the time already spent, and at least 0.01 s, but never
        more than the whole limit: a zero limit still means no search.
        """
        limit = self.milp_options.time_limit
        left = limit - (time.monotonic() - start)
        return dataclasses.replace(
            self.milp_options, time_limit=max(left, min(limit, 0.01))
        )

    def _replay(
        self,
        encoded: EncodedNetwork,
        solution: np.ndarray,
        objective: OutputObjective,
    ):
        """Re-run the MILP witness through the real network."""
        witness = encoded.input_point(solution)
        outputs = self.network.forward(witness)[0]
        return witness, objective.value(outputs)
