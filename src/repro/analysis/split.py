"""Input-region bisection: the second completeness axis.

Branch-and-bound makes the MILP complete by splitting on *ReLU phases*;
this module adds the complementary axis of Wang et al., "Efficient
Formal Safety Analysis of Neural Networks" (symbolic intervals +
iterative input bisection) and Xiang et al., "Specification-Guided
Safety Verification for Feedforward Neural Networks": split the *input
box*, re-run the cheap fixed-policy symbolic prescreen on each sub-box,
and hand only the survivors to the MILP.  Narrower boxes stabilise
ReLUs, so every surviving shard carries fewer binaries than its parent.
Shards are independent, but on the Table II workloads a plan rarely keeps
more than one or two, so :class:`RegionBisectionDriver` solves them one
after the other under the query's one MILP deadline; a campaign gets
its parallelism from independent cells instead.

Each box is bounded once, and both halves of a bisection are bounded
in one call (:func:`repro.analysis.symbolic.symbolic_screens`): one
backward pass per layer screens the pair, with the objective joined to
the output layer's pass.  The root reuses the whole-region prescreen
the verifier already ran, every survivor carries its screen
(:attr:`SplitLeaf.screen`) into its shard — the certified shard
encodes from its chain, the uncertified one seeds LP tightening with
its symbolic bounds — and the split dimension comes from the
sensitivity the same pass computed.  The depth-first order, the stall
gate and the running best lower bound see the two halves one after
the other, as if they had been screened apart.  Certified and
uncertified plans make the same screens; a certified plan also
serializes each pruned box's chain into its tree.

The split dimension is chosen by **sensitivity**: the back-substituted
affine forms of the objective (computed by the prescreen itself)
expose per-input-dimension coefficients; ``|coefficient| x
box width`` estimates how much of the bound's slack each dimension is
responsible for, and bisecting the biggest contributor shrinks the
relaxation fastest.

Degenerate-split guard (the bugfix this module ships with): a dimension
whose width is below ``2 * split_min_width`` — pinned features have
exactly zero width — is never bisected; a node with no splittable
dimension falls through to the MILP instead of recursing forever.  The
floor is :data:`repro.tolerances.SPLIT_MIN_WIDTH`; a smaller
user-supplied ``split_min_width`` is clamped up to it.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.symbolic import (
    SymbolicScreen,
    _check_supported,
    _objective_row,
    input_sensitivity,
    symbolic_screen,
    symbolic_screens,
)
from repro.core.properties import (
    InputRegion,
    OutputObjective,
    SafetyProperty,
)
from repro.errors import EncodingError
from repro.nn.network import FeedForwardNetwork
from repro.obs.metrics import merge_metrics
from repro.obs.trace import as_tracer
from repro.tolerances import SPLIT_MIN_WIDTH

__all__ = [
    "SplitLeaf",
    "SplitPlan",
    "RegionBisectionDriver",
    "bisects",
    "input_sensitivity",
]

#: Optimism multiplier of the stall gate: bisection tightening is
#: superlinear (narrower boxes stabilise ReLUs, which tightens the
#: relaxation itself, not just the concretisation), so the linear
#: projection ``improvement x remaining_depth`` under-predicts what
#: descending can still achieve.  Descend while ``improvement x
#: remaining x SPLIT_STALL_OPTIMISM >= gap-to-cutoff``; stall to a
#: single MILP shard otherwise.  Without this gate a max query whose
#: sub-regions never prune (e.g. the full operational region) pays
#: ``2**depth`` MILPs for one answer.
SPLIT_STALL_OPTIMISM = 2.0


@dataclasses.dataclass
class SplitLeaf:
    """A surviving sub-region destined for the MILP."""

    region: InputRegion
    depth: int
    #: Prescreen bounds on the objective over this sub-region.
    lower: float
    upper: float
    #: Certify mode: this leaf's node in :attr:`SplitPlan.tree`, to be
    #: filled with the shard's own proof evidence once it is solved.
    slot: Optional[Dict] = None
    #: The sub-region's prescreen: the shard encodes from its bounds
    #: (certified) or seeds LP tightening with them, instead of
    #: bounding the box again.
    screen: Optional[SymbolicScreen] = None


@dataclasses.dataclass
class SplitPlan:
    """The bisection frontier: survivors plus accounting.

    ``proofs`` counts sub-regions discharged statically by the
    per-sub-region prescreen (the campaign's ``split_proofs``);
    ``survivors`` are the MILP shards (``split_cells``).
    """

    survivors: List[SplitLeaf]
    proofs: int = 0
    explored: int = 0
    degenerate: int = 0
    #: Nodes kept whole because the measured per-level tightening,
    #: projected over the remaining depth, could not reach the prune
    #: cutoff (see :data:`SPLIT_STALL_OPTIMISM`).
    stalled: int = 0
    max_depth: int = 0
    wall_time: float = 0.0
    #: Sound upper bound on the objective over the whole parent region
    #: (max of every explored node's prescreen upper).
    upper_bound: float = -math.inf
    #: Certify mode (decision queries only): the partition tree for the
    #: ``split`` certificate.  Internal nodes carry ``split_dim`` and
    #: ``low``/``high`` children; pruned leaves already carry their
    #: chain evidence; survivor leaves are the (initially empty) slots
    #: referenced by :attr:`SplitLeaf.slot`.
    tree: Optional[Dict] = None
    #: Encoder bound margin the prune cutoffs used (embedded in the
    #: emitted certificate so the checker replays the same cutoff).
    margin: float = 0.0

    @property
    def all_pruned(self) -> bool:
        return not self.survivors

    def as_metrics(self) -> Dict[str, float]:
        """Plan accounting as flat result/span metric entries."""
        return {
            "split_cells": float(len(self.survivors)),
            "split_proofs": float(self.proofs),
            "split_explored": float(self.explored),
            "split_degenerate": float(self.degenerate),
            "split_stalled": float(self.stalled),
            "split_max_depth": float(self.max_depth),
            "split_plan_time": float(self.wall_time),
        }


def bisects(
    network: FeedForwardNetwork,
    region: InputRegion,
    objective: OutputObjective,
    encoder_options,
) -> bool:
    """Whether a :class:`~repro.core.verifier.Verifier` with these
    options answers a query over ``region`` with the bisection driver.

    Split must be on and the network shape and the objective inside the
    symbolic engine's fragment; otherwise the unsplit MILP decides,
    exactly as without ``--split``.
    """
    if not encoder_options.split:
        return False
    try:
        _check_supported(network, region)
        _objective_row(network, objective.coefficients)
    except EncodingError:
        return False
    return True


class RegionBisectionDriver:
    """Split → prescreen → prune → solve the survivors.

    ``plan`` builds the frontier (pure analysis, no MILP); ``prove`` /
    ``maximize`` additionally solve the surviving shards one after the
    other under one shared MILP deadline and assemble the single parent
    verdict.  This is the only split executor: a
    :class:`~repro.core.verifier.Verifier` with ``split`` on runs it,
    and so does a campaign cell, inside its worker.
    """

    def __init__(
        self,
        network: FeedForwardNetwork,
        encoder_options=None,
        milp_options=None,
        tracer=None,
    ) -> None:
        from repro.core.encoder import EncoderOptions
        from repro.milp.branch_and_bound import MILPOptions

        self.network = network
        self.encoder_options = encoder_options or EncoderOptions()
        self.milp_options = milp_options or MILPOptions()
        self.tracer = as_tracer(tracer)
        #: The degenerate-split floor: user knob clamped up to the
        #: repo-wide tolerance so a zero or negative width can never
        #: recurse (satellite bugfix).
        self.min_width = max(
            float(self.encoder_options.split_min_width), SPLIT_MIN_WIDTH
        )
        self.depth = max(int(self.encoder_options.split_depth), 0)

    # -- planning -----------------------------------------------------------
    def _split_dim(
        self,
        region: InputRegion,
        sensitivity: np.ndarray,
    ) -> Optional[int]:
        """Most influential splittable dimension, or ``None``.

        A dimension is splittable iff both halves would stay at least
        ``min_width`` wide; among those, ``sensitivity x width`` picks
        the one whose relaxation slack a bisection shrinks most.  Zero
        total score means the objective does not depend on any
        splittable input — splitting cannot help, fall to the MILP.
        """
        widths = region.widths()
        splittable = widths >= 2.0 * self.min_width
        if not bool(np.any(splittable)):
            return None
        score = sensitivity * widths
        score[~splittable] = -1.0
        dim = int(np.argmax(score))
        if score[dim] <= 0.0:
            return None
        return dim

    def plan(
        self,
        region: InputRegion,
        objective: OutputObjective,
        threshold: Optional[float] = None,
        root: Optional[SymbolicScreen] = None,
    ) -> SplitPlan:
        """Bisect the region into a pruned frontier of MILP shards.

        Every box is bounded once: ``root`` may carry the region's own
        screen from the whole-region prescreen, and each survivor keeps
        its screen for its MILP shard.

        With a ``threshold`` (decision query) a node is pruned as soon
        as its prescreen upper bound clears ``threshold -
        bound_margin``.  Without one (max query) nodes are pruned
        against the *running best lower bound*: a sub-box whose upper
        bound cannot reach the best lower bound seen anywhere cannot
        contain the maximum; the arg-max node always survives, so the
        assembled optimum is exact.

        Descent is **gated on measured progress**: both children are
        prescreened at bisection time, and when neither is immediately
        prunable and the observed tightening — projected over the
        remaining depth with :data:`SPLIT_STALL_OPTIMISM` headroom —
        cannot close the node's gap to the prune cutoff, the node is
        kept whole as a single MILP shard.  A query whose sub-regions
        never prune (the typical full-operational-region max) therefore
        costs one MILP plus a handful of prescreens instead of
        ``2**depth`` MILPs.

        Raises :class:`~repro.errors.EncodingError` when the network
        shape or the objective is outside the symbolic engine's
        fragment; :func:`bisects` keeps such queries on the unsplit
        MILP.
        """
        t0 = time.monotonic()
        margin = self.encoder_options.bound_margin
        survivors: List[SplitLeaf] = []
        proofs = explored = degenerate = stalled = max_depth = 0
        best_lower = -math.inf
        upper_bound = -math.inf
        kind = "max" if threshold is None else "prove"
        # Certify mode records the partition tree (decision queries
        # only — max queries have no VERIFIED verdict to certify).
        certify = (
            getattr(self.encoder_options, "certify", False)
            and threshold is not None
        )
        tree: Optional[Dict] = {} if certify else None
        with self.tracer.span(
            "split", region=region.name, kind=kind,
            depth_limit=self.depth, min_width=self.min_width,
            network=self.network.architecture_id,
        ) as span:
            if root is None:
                root = symbolic_screen(
                    self.network, region, objective.coefficients
                )
            stack: List[Tuple] = [(region, 0, root, tree)]
            while stack:
                node, depth, screen, slot = stack.pop()
                lo, hi = screen.objective_lower, screen.objective_upper
                explored += 1
                max_depth = max(max_depth, depth)
                upper_bound = max(upper_bound, hi)
                best_lower = max(best_lower, lo)
                cutoff = (
                    threshold - margin if threshold is not None
                    else best_lower - margin
                )
                if hi <= cutoff:
                    proofs += 1
                    if slot is not None:
                        from repro.proof.emit import chain_payload

                        slot["kind"] = "pruned"
                        slot["chain"] = chain_payload(screen)
                    self.tracer.event(
                        "split", action="prune", region=node.name,
                        depth=depth, upper=hi, cutoff=cutoff,
                    )
                    continue
                dim = (
                    self._split_dim(node, screen.sensitivity)
                    if depth < self.depth else None
                )
                if dim is None:
                    if depth < self.depth:
                        degenerate += 1
                    survivors.append(SplitLeaf(
                        node, depth, lo, hi, slot=slot, screen=screen,
                    ))
                    self.tracer.event(
                        "split",
                        action="degenerate" if depth < self.depth
                        else "milp",
                        region=node.name, depth=depth, upper=hi,
                    )
                    continue
                halves = node.bisect(dim)
                child_screens = symbolic_screens(
                    self.network, halves, objective.coefficients
                )
                child_slots = ({}, {}) if slot is not None else (None, None)
                children = [
                    (half, depth + 1, c_screen, child_slot)
                    for half, c_screen, child_slot in zip(
                        halves, child_screens, child_slots
                    )
                ]
                for c_screen in child_screens:
                    best_lower = max(best_lower, c_screen.objective_lower)
                if threshold is None:
                    cutoff = best_lower - margin
                improvement = max(0.0, hi - max(
                    c_screen.objective_upper for c_screen in child_screens
                ))
                prunable = any(
                    c_screen.objective_upper <= cutoff
                    for c_screen in child_screens
                )
                remaining = self.depth - depth
                if not prunable and (
                    improvement * remaining * SPLIT_STALL_OPTIMISM
                    < hi - cutoff
                ):
                    stalled += 1
                    survivors.append(SplitLeaf(
                        node, depth, lo, hi, slot=slot, screen=screen,
                    ))
                    self.tracer.event(
                        "split", action="milp", region=node.name,
                        depth=depth, upper=hi, stalled=True,
                        improvement=improvement, gap=hi - cutoff,
                    )
                    continue
                if slot is not None:
                    # The slot becomes an internal node; the children
                    # own the two sub-boxes from here on.
                    slot["split_dim"] = dim
                    slot["low"], slot["high"] = child_slots
                self.tracer.event(
                    "split", action="bisect", region=node.name,
                    dim=dim, depth=depth,
                    width=float(node.widths()[dim]),
                )
                stack.extend(children)
            if threshold is None and survivors:
                # Final sweep with the fully-raised lower bound: nodes
                # prescreened early may now be provably maximum-free.
                kept = []
                for leaf in survivors:
                    if leaf.upper <= best_lower - margin:
                        proofs += 1
                        self.tracer.event(
                            "split", action="prune",
                            region=leaf.region.name, depth=leaf.depth,
                            upper=leaf.upper, cutoff=best_lower - margin,
                        )
                    else:
                        kept.append(leaf)
                survivors = kept
            span.set(
                explored=explored, proofs=proofs,
                survivors=len(survivors), degenerate=degenerate,
                stalled=stalled,
            )
        return SplitPlan(
            survivors=survivors,
            proofs=proofs,
            explored=explored,
            degenerate=degenerate,
            stalled=stalled,
            max_depth=max_depth,
            wall_time=time.monotonic() - t0,
            upper_bound=upper_bound,
            tree=tree,
            margin=margin,
        )

    # -- serial execution ---------------------------------------------------
    def _leaf_verifier(self, remaining: float):
        """A plain (unsplit, no-prescreen) verifier for one shard.

        The plan already prescreened every survivor, and the shard is
        handed that screen (:attr:`SplitLeaf.screen`), so it neither
        re-screens nor re-bounds its box; ``split=False`` stops the
        leaf from recursing.  The shard does not check its own
        certificate: its evidence is checked once, as a leaf of the
        parent's tree (:func:`assemble_prove`).
        """
        from repro.core.verifier import Verifier

        verifier = Verifier(
            self.network,
            dataclasses.replace(
                self.encoder_options, split=False, static_prescreen=False,
            ),
            dataclasses.replace(
                self.milp_options, time_limit=max(remaining, 0.01),
            ),
            tracer=self.tracer,
        )
        verifier._gates_certificates = False
        return verifier

    def prove(
        self,
        prop: SafetyProperty,
        start: Optional[float] = None,
        root: Optional[SymbolicScreen] = None,
    ) -> "VerificationResult":
        """Decision query via bisection; one assembled parent verdict.

        The MILP time limit bounds the whole query: the plan and every
        shard's bounding, encoding and search spend from one deadline
        that starts with the query (each shard gets what is left of it,
        and its search what is left after its bounding); a budget
        exhausted mid-split reports TIMEOUT, never ERROR.
        ``root`` is the region's screen when the caller's whole-region
        prescreen already computed it (see :meth:`plan`).
        """
        from repro.core.verifier import Verdict, VerificationResult

        t0 = start if start is not None else time.monotonic()
        deadline = t0 + self.milp_options.time_limit
        plan = self.plan(
            prop.region, prop.objective, prop.threshold, root=root
        )
        leaves: List[VerificationResult] = []
        timed_out = False
        for leaf in plan.survivors:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                timed_out = True
                break
            leaf_prop = dataclasses.replace(prop, region=leaf.region)
            result = self._leaf_verifier(remaining).prove(
                leaf_prop, screen=leaf.screen
            )
            if leaf.slot is not None:
                from repro.proof.emit import fill_leaf_slot

                fill_leaf_slot(leaf.slot, result.certificate)
            leaves.append(result)
            if result.verdict is Verdict.FALSIFIED:
                break
        return assemble_prove(
            prop, plan, leaves, self.network,
            wall_time=time.monotonic() - t0, budget_exhausted=timed_out,
        )

    def maximize(
        self,
        region: InputRegion,
        objective: OutputObjective,
        start: Optional[float] = None,
        raise_on_infeasible: bool = True,
    ) -> "VerificationResult":
        """Max query via bisection; the optimum over shard optima.

        Only a shard whose MILP is infeasible counts as empty.  Any
        other error of a shard (say a failed soundness self-check)
        propagates, as it does from the unsplit verifier: skipping that
        shard could report a value below the true maximum.
        """
        from repro.core.verifier import (
            INFEASIBLE_REGION_MESSAGE,
            Verdict,
            VerificationResult,
        )

        t0 = start if start is not None else time.monotonic()
        deadline = t0 + self.milp_options.time_limit
        plan = self.plan(region, objective, threshold=None)
        leaves: List[VerificationResult] = []
        empty = 0
        timed_out = False
        for leaf in plan.survivors:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                timed_out = True
                break
            result = self._leaf_verifier(remaining).maximize(
                leaf.region, objective, screen=leaf.screen,
                raise_on_infeasible=False,
            )
            if (
                result.verdict is Verdict.ERROR
                and result.description.startswith(INFEASIBLE_REGION_MESSAGE)
            ):
                # A linear side constraint can empty a sub-box even
                # when the parent region is non-empty; an empty shard
                # simply cannot contain the maximum.
                empty += 1
                continue
            leaves.append(result)
        if not leaves and empty and not timed_out:
            if raise_on_infeasible:
                raise EncodingError(INFEASIBLE_REGION_MESSAGE)
            return VerificationResult(
                verdict=Verdict.ERROR,
                wall_time=time.monotonic() - t0,
                description=INFEASIBLE_REGION_MESSAGE,
                solver="split",
                metrics=plan.as_metrics(),
            )
        return assemble_max(
            objective, plan, leaves,
            wall_time=time.monotonic() - t0, budget_exhausted=timed_out,
            empty=empty,
        )


# -- verdict assembly ---------------------------------------------------------

def _merge_leaf_telemetry(result, leaves) -> None:
    """Fold shard solver work into the assembled parent result.

    Nodes/LP iterations/metrics are summed (each shard's work happened
    exactly once); ``num_binaries`` takes the hardest shard, which is
    the honest answer to "how big was the MILP".
    """
    for leaf in leaves:
        result.nodes += leaf.nodes
        result.lp_iterations += leaf.lp_iterations
        result.num_binaries = max(result.num_binaries, leaf.num_binaries)
        merge_metrics(result.metrics, leaf.metrics)


def assemble_prove(
    prop: SafetyProperty,
    plan: SplitPlan,
    leaves,
    network: FeedForwardNetwork,
    wall_time: float,
    budget_exhausted: bool = False,
) -> "VerificationResult":
    """One parent verdict from per-shard decision results.

    Any counterexample falsifies the parent (the witness is re-checked
    by forward evaluation against the real network and the parent
    region, so shard bookkeeping errors cannot fabricate one); with
    none, all shards must be VERIFIED — a missing or inconclusive shard
    degrades to TIMEOUT (budget) or ERROR, never to VERIFIED.
    """
    from repro.core.verifier import Verdict, VerificationResult

    solved = len(leaves)
    expected = len(plan.survivors)
    for leaf in leaves:
        if leaf.verdict is not Verdict.FALSIFIED:
            continue
        witness = leaf.counterexample
        replayed = float(
            prop.objective.value(network.forward(witness)[0])
        )
        if (
            replayed < prop.threshold - 1e-4
            or not prop.region.contains(witness)
        ):
            raise EncodingError(
                "split soundness self-check failed: shard witness does "
                "not violate the property on the parent region"
            )
        result = VerificationResult(
            verdict=Verdict.FALSIFIED,
            value=leaf.value,
            counterexample=witness,
            network_value=replayed,
            wall_time=wall_time,
            description=prop.name,
            solver="split",
            metrics=plan.as_metrics(),
        )
        _merge_leaf_telemetry(result, leaves)
        return result

    verdicts = [leaf.verdict for leaf in leaves]
    if expected == 0:
        # Every sub-region was pruned statically: the property holds.
        verdict = Verdict.VERIFIED
    elif (
        budget_exhausted or solved < expected
        or Verdict.TIMEOUT in verdicts
    ):
        verdict = Verdict.TIMEOUT
    elif Verdict.ERROR in verdicts:
        verdict = Verdict.ERROR
    elif all(v is Verdict.VERIFIED for v in verdicts):
        verdict = Verdict.VERIFIED
    else:
        verdict = Verdict.ERROR
    certificate = None
    if verdict is Verdict.VERIFIED and plan.tree is not None:
        from repro.proof.emit import assemble_split_certificate

        certificate = assemble_split_certificate(
            network, prop.region, prop.objective, prop.threshold,
            plan.margin, prop.name, plan.tree,
        )
    result = VerificationResult(
        verdict=verdict,
        value=prop.threshold if verdict is Verdict.VERIFIED else math.nan,
        best_bound=plan.upper_bound if expected == 0 else math.nan,
        wall_time=wall_time,
        description=prop.name,
        solver="split",
        metrics=plan.as_metrics(),
        certificate=certificate,
    )
    _merge_leaf_telemetry(result, leaves)
    return result


def assemble_max(
    objective: OutputObjective,
    plan: SplitPlan,
    leaves,
    wall_time: float,
    budget_exhausted: bool = False,
    empty: int = 0,
) -> "VerificationResult":
    """One parent optimum from per-shard max results.

    The maximum over shard optima is the parent optimum (pruned shards
    provably cannot contain it).  Any shard short of MAX_FOUND makes
    the parent inconclusive — TIMEOUT when a budget ran out anywhere,
    ERROR otherwise.
    """
    from repro.core.verifier import Verdict, VerificationResult

    best = None
    timed_out = budget_exhausted or (
        len(leaves) + empty < len(plan.survivors)
    )
    errored = False
    for leaf in leaves:
        if leaf.verdict is Verdict.TIMEOUT:
            timed_out = True
        elif leaf.verdict is not Verdict.MAX_FOUND:
            errored = True
        if best is None or (
            not math.isnan(leaf.value) and leaf.value > best.value
        ):
            best = leaf
    if timed_out:
        verdict = Verdict.TIMEOUT
    elif errored or best is None:
        verdict = Verdict.ERROR
    else:
        verdict = Verdict.MAX_FOUND
    result = VerificationResult(
        verdict=verdict,
        value=best.value if best is not None else math.nan,
        best_bound=(
            max(plan.upper_bound, best.best_bound)
            if best is not None and not math.isnan(best.best_bound)
            else plan.upper_bound
        ),
        counterexample=None if best is None else best.counterexample,
        network_value=(
            math.nan if best is None else best.network_value
        ),
        wall_time=wall_time,
        description=objective.description,
        solver="split",
        metrics=plan.as_metrics(),
    )
    _merge_leaf_telemetry(result, leaves)
    return result
