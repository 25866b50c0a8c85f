"""Branch-and-bound for mixed-integer linear programs.

The engine is classical in shape — LP relaxation per node, pruning by
bound, forward-pass completion as its primal heuristic — but the node
loop is built for reoptimisation speed:

* every node LP runs on one persistent HiGHS model
  (:class:`~repro.milp.scipy_backend.HighsSession`): a node only resets
  the column box, and HiGHS re-solves from the basis its previous node
  left behind;
* **branching** takes the caller's per-column scores when it has them:
  an encoded ReLU network scores each fractional phase column by how
  much its neuron's relaxation overestimates the objective at the LP
  point (:meth:`repro.core.encoder.EncodedNetwork.branch_scores`).  A
  model without scores, or a node where no score is positive, branches
  on the most fractional column;
* node selection is a **best-first/plunging hybrid**: after branching the
  search dives on the most promising child to find incumbents early,
  returning to the global best-bound node when a dive is pruned;
* per-node bookkeeping (fractional columns, branching scores, the
  fixed literals of a pruned leaf) is array arithmetic over the integer
  columns, not a Python loop;
* a caller that knows how to complete an LP point into a feasible one
  (an encoded ReLU network does: a forward pass from the point's
  inputs, :meth:`repro.core.encoder.EncodedNetwork.complete`) hands the
  search a ``complete`` hook, and every branched node's completion is an
  incumbent candidate.

The search imports nothing from the encoder: both network hooks are
plain callables over LP points.

Wall-clock and node budgets make ``time-out`` a first-class answer,
matching the paper's Table II where the widest network exhausts its
budget.  A node LP that fails numerically, or an integral LP point the
model's feasibility check rejects, ends the search as ``error``: such a
node is never pruned as if it were infeasible.  With a
:class:`repro.obs.Tracer` attached the search emits one ``node`` event
per processed node (depth, branch variable and its name, LP iterations,
bound) — enough to reconstruct the search tree — guarded by a single
``if`` so disabled tracing costs nothing on the hot loop.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.milp.expr import Sense
from repro.milp.model import Model
from repro.tolerances import (
    BRANCH_DOMAIN_TOL,
    GAP_TOL,
    INCUMBENT_IMPROVEMENT_TOL,
    INCUMBENT_TOL,
    INTEGRALITY_TOL,
)
from repro.milp import scipy_backend
from repro.milp.solution import LPResult, MILPResult
from repro.milp.status import SolveStatus


@dataclasses.dataclass
class MILPOptions:
    """Tunables for :func:`solve_milp`.

    Attributes:
        time_limit: Wall-clock budget in seconds of one search.  A
            ``Verifier`` query passes the search what is left of this
            limit after its bounding and encoding, so the whole query,
            not only its search, stays within it.
        node_limit: Maximum branch-and-bound nodes to process.

    There is no switch for certification: the search reads the model
    exactly as given and always records a leaf-cover infeasibility
    proof (:attr:`repro.milp.solution.MILPResult.proof`), so certified
    and uncertified queries run the same search.
    """

    time_limit: float = math.inf
    node_limit: int = 200000


@dataclasses.dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    lb: np.ndarray = dataclasses.field(compare=False)
    ub: np.ndarray = dataclasses.field(compare=False)
    depth: int = dataclasses.field(compare=False, default=0)
    #: Parent node's tiebreak id (-1 at the root) — tree telemetry only.
    parent: int = dataclasses.field(compare=False, default=-1)
    #: Column branched on to create this node (-1 at the root).
    branch_var: int = dataclasses.field(compare=False, default=-1)
    #: Down (-1) or up (+1) child of the branching.
    branch_dir: int = dataclasses.field(compare=False, default=0)


def _pick_branch_var(
    cols: np.ndarray, values: np.ndarray,
    scores: Optional[np.ndarray] = None,
) -> int:
    """Choose the column to branch on among the fractional integer
    columns ``cols`` (LP values ``values``).

    ``scores`` are the caller's per-column branching scores (an encoded
    network's neuron scores, :meth:`EncodedNetwork.branch_scores
    <repro.core.encoder.EncodedNetwork.branch_scores>`): the column with
    the largest one wins.  Without scores, or when none is positive, the
    most fractional column wins (largest distance to the nearest
    integer).  Ties go to the first column.
    """
    if scores is None or not (scores > 0.0).any():
        scores = np.minimum(
            values - np.floor(values), np.ceil(values) - values
        )
    return int(cols[np.argmax(scores)])


class _Search:
    """One branch-and-bound run; owns all node-loop state."""

    def __init__(
        self, model: Model, options: MILPOptions, start: float,
        tracer=None,
        complete: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        branch_scores: Optional[
            Callable[[np.ndarray, np.ndarray], np.ndarray]
        ] = None,
    ) -> None:
        self.options = options
        self.model = model
        self.complete = complete
        self.branch_scores = branch_scores
        self.start = start
        #: ``None`` when tracing is off — the hot node loop pays one
        #: ``is not None`` check and nothing else.
        self.trace = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self.c, A_ub, b_ub, A_eq, b_eq, bounds = model.dense_arrays()
        self.n = model.num_vars
        self.int_idx = np.array(model.integer_indices, dtype=int)
        self.root_lb = np.array([b[0] for b in bounds])
        self.root_ub = np.array([b[1] for b in bounds])
        int_lb = self.root_lb[self.int_idx]
        int_ub = self.root_ub[self.int_idx]
        #: Root box of the integer columns, and which of them are free
        #: there (leaf recording compares node boxes against it).
        self.int_root = (int_lb, int_ub, int_lb != int_ub)
        #: One compiled model for the whole search; each node only
        #: resets the column box, and HiGHS re-solves from the basis its
        #: previous node left behind.
        self.session = scipy_backend.HighsSession(
            self.c, A_ub, b_ub, A_eq, b_eq, bounds
        )
        self.incumbent_x: Optional[np.ndarray] = None
        self.incumbent_obj = math.inf  # internal minimisation objective
        #: Smallest bound among nodes pruned against the incumbent.  The
        #: search prunes a node whose bound is within ``GAP_TOL`` of the
        #: incumbent, so this can sit below it, and the reported best
        #: bound has to include it.
        self.pruned_bound = math.inf
        self.nodes = 0
        self.lp_iterations = 0
        self.counter = itertools.count()
        self.heap: List[_Node] = []
        self.dive_stack: List[_Node] = []
        # -- infeasibility-proof recording ----------------------------------
        self.proof_leaves: List[dict] = []
        self.proof_incomplete = False

    # -- helpers -----------------------------------------------------------
    def _timed_out(self) -> bool:
        return time.monotonic() - self.start > self.options.time_limit

    def _pruned(self, bound: float) -> bool:
        """Whether a node with this bound cannot beat the incumbent by
        more than ``GAP_TOL``; a pruned bound is kept for the result."""
        if bound < self.incumbent_obj - GAP_TOL:
            return False
        self.pruned_bound = min(self.pruned_bound, bound)
        return True

    def _try_incumbent(self, x: np.ndarray) -> bool:
        """Adopt ``x`` as the incumbent if it is better and feasible;
        returns whether it was adopted."""
        obj = float(self.c @ x)
        if obj >= self.incumbent_obj - INCUMBENT_IMPROVEMENT_TOL or (
            not self.model.is_feasible(x, tol=INCUMBENT_TOL)
        ):
            return False
        self.incumbent_obj = obj
        self.incumbent_x = x.copy()
        if self.trace is not None:
            self.trace.event("incumbent", objective=obj, nodes=self.nodes)
        return True

    def _try_completion(self, x: np.ndarray) -> None:
        """Offer the completion of LP point ``x`` as an incumbent."""
        if self.complete is not None:
            self._try_incumbent(self.complete(x))

    # -- infeasibility-proof recording --------------------------------------
    def _record_leaf(
        self, node_lb: np.ndarray, node_ub: np.ndarray, result: LPResult
    ) -> None:
        """Record a pruned leaf (fixed literals + Farkas ray), if possible.

        A leaf is recordable only when the LP backend certified it
        INFEASIBLE with a ray and every integer column is either fully
        fixed by branching or still at its root bounds (so the fixed
        literals describe the leaf exactly).  Anything else poisons the
        proof — better no certificate than a wrong one.
        """
        if self.proof_incomplete:
            return
        if result.status is not SolveStatus.INFEASIBLE:
            self.proof_incomplete = True
            return
        farkas = getattr(result, "farkas", None)
        if farkas is None:
            self.proof_incomplete = True
            return
        int_lb, int_ub, free = self.int_root
        lb = node_lb[self.int_idx]
        ub = node_ub[self.int_idx]
        fixed = lb == ub
        if (~fixed & ((lb != int_lb) | (ub != int_ub))).any():
            self.proof_incomplete = True
            return
        literals = fixed & free
        self.proof_leaves.append({
            "fixed": dict(zip(
                self.int_idx[literals].tolist(),
                np.round(lb[literals]).astype(int).tolist(),
            )),
            "farkas": np.asarray(farkas, dtype=float),
        })

    def _proof_payload(self, status: SolveStatus) -> dict:
        """The ``MILPResult.proof`` dict."""
        return {
            "complete": (
                status is SolveStatus.INFEASIBLE
                and not self.proof_incomplete
            ),
            "leaves": self.proof_leaves,
        }

    def _fractional(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Integer columns whose LP value is fractional at ``x``, and
        those values."""
        values = x[self.int_idx]
        mask = np.abs(values - np.round(values)) > INTEGRALITY_TOL
        return self.int_idx[mask], values[mask]

    def _branch_var(
        self, x: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> int:
        """The column to branch on at LP point ``x``, whose fractional
        integer columns are ``cols`` (values ``values``)."""
        scores = (
            None if self.branch_scores is None
            else self.branch_scores(x, cols)
        )
        return _pick_branch_var(cols, values, scores)

    def _push_children(self, node: _Node, result: LPResult, j: int) -> None:
        """Branch on column ``j``; dive on the more promising child."""
        xj = float(result.x[j])
        frac = xj - math.floor(xj)
        children: List[_Node] = []
        down_ub = node.ub.copy()
        down_ub[j] = math.floor(xj)
        if down_ub[j] >= node.lb[j] - BRANCH_DOMAIN_TOL:
            children.append(_Node(
                result.objective, next(self.counter),
                node.lb.copy(), down_ub, node.depth + 1,
                parent=node.tiebreak,
                branch_var=j, branch_dir=-1,
            ))
        up_lb = node.lb.copy()
        up_lb[j] = math.ceil(xj)
        if up_lb[j] <= node.ub[j] + BRANCH_DOMAIN_TOL:
            children.append(_Node(
                result.objective, next(self.counter),
                up_lb, node.ub.copy(), node.depth + 1,
                parent=node.tiebreak,
                branch_var=j, branch_dir=+1,
            ))
        if len(children) < 2:
            # A skipped child leaves part of the node's box uncovered.
            self.proof_incomplete = True
        if not children:
            return
        # Dive on the child the LP point leans toward (the
        # rounding direction) — it is the cheapest route to an incumbent.
        dive_dir = -1 if frac < 0.5 else +1
        dive = max(
            children,
            key=lambda ch: (ch.branch_dir == dive_dir),
        )
        for child in children:
            if child is dive:
                self.dive_stack.append(child)
            else:
                heapq.heappush(self.heap, child)

    def _open_bounds(self) -> List[float]:
        return (
            [node.bound for node in self.heap]
            + [node.bound for node in self.dive_stack]
        )

    def _node_event(self, node: _Node, result: LPResult) -> None:
        """One search-tree telemetry event (tracing enabled only)."""
        attrs = {
            "node": node.tiebreak,
            "parent": node.parent,
            "depth": node.depth,
            "branch_var": node.branch_var,
            "branch_dir": node.branch_dir,
            "lp_iterations": result.iterations,
            "status": result.status.value,
        }
        if node.branch_var >= 0:
            # The column's name: ``d_<layer>_<index>`` in a network
            # encoding, so the tree says which neuron it split.
            attrs["branch"] = self.model.variables[node.branch_var].name
        if result.status is SolveStatus.OPTIMAL:
            attrs["bound"] = float(result.objective)
        self.trace.event("node", **attrs)

    # -- main loop ---------------------------------------------------------
    def run(self) -> MILPResult:
        options = self.options
        sign = -1.0 if self.model.sense is Sense.MAXIMIZE else 1.0
        objective_constant = self.model.objective.constant

        root_node = _Node(
            -math.inf, next(self.counter), self.root_lb, self.root_ub, 0
        )
        root = self.session.solve(lb=self.root_lb, ub=self.root_ub)
        self.lp_iterations += root.iterations
        if self.trace is not None:
            self._node_event(root_node, root)
        if root.status is SolveStatus.INFEASIBLE:
            self._record_leaf(self.root_lb, self.root_ub, root)
            return self._finish(SolveStatus.INFEASIBLE, sign,
                                objective_constant, -math.inf)
        if root.status is SolveStatus.UNBOUNDED:
            self.proof_incomplete = True
            return self._finish(SolveStatus.UNBOUNDED, sign,
                                objective_constant, -math.inf)
        if root.status is not SolveStatus.OPTIMAL:
            self.proof_incomplete = True
            return self._finish(SolveStatus.ERROR, sign,
                                objective_constant, -math.inf)

        x = root.x
        cols, values = self._fractional(x)
        if not cols.size:
            # An integral relaxation point is never part of an
            # infeasibility cover.  If the feasibility check rejects it,
            # the root proves nothing: dropping it would turn a
            # tolerance disagreement into a false proof.
            self.proof_incomplete = True
            status = (
                SolveStatus.OPTIMAL if self._try_incumbent(x)
                else SolveStatus.ERROR
            )
            return self._finish(status, sign, objective_constant,
                                root.objective)
        self._try_completion(x)
        j = self._branch_var(x, cols, values)
        self._push_children(root_node, root, j)

        best_open_bound = root.objective
        status = SolveStatus.OPTIMAL
        while self.heap or self.dive_stack:
            if self._timed_out():
                status = SolveStatus.TIMEOUT
                break
            if self.nodes >= options.node_limit:
                status = SolveStatus.NODE_LIMIT
                break
            if self.dive_stack:
                node = self.dive_stack.pop()
                if self._pruned(node.bound):
                    continue
            else:
                node = heapq.heappop(self.heap)
                best_open_bound = node.bound
                if self._pruned(node.bound):
                    # Best-first order: every remaining node is at least
                    # as bad (the dive stack is empty here by construction).
                    best_open_bound = self.incumbent_obj
                    self.heap.clear()
                    break
            self.nodes += 1
            result = self.session.solve(lb=node.lb, ub=node.ub)
            self.lp_iterations += result.iterations
            if self.trace is not None:  # sole tracing cost when disabled
                self._node_event(node, result)
            if result.status is SolveStatus.INFEASIBLE:
                self._record_leaf(node.lb, node.ub, result)
                continue
            if result.status is not SolveStatus.OPTIMAL:
                # A failed LP proves nothing about its node: pruning it
                # could turn a solver error into a false proof.
                self.proof_incomplete = True
                status = SolveStatus.ERROR
                break
            if self._pruned(result.objective):
                continue
            x = result.x
            assert x is not None
            cols, values = self._fractional(x)
            if not cols.size:
                # Integral leaf — never part of an infeasibility cover.
                # It beats the incumbent (checked above), so a rejected
                # point leaves its node unresolved, like a failed LP.
                self.proof_incomplete = True
                if not self._try_incumbent(x):
                    status = SolveStatus.ERROR
                    break
                continue
            self._try_completion(x)
            j = self._branch_var(x, cols, values)
            self._push_children(node, result, j)

        return self._finish(status, sign, objective_constant,
                            best_open_bound)

    def _finish(
        self,
        status: SolveStatus,
        sign: float,
        objective_constant: float,
        best_open_bound: float,
    ) -> MILPResult:
        wall = time.monotonic() - self.start
        if self.trace is not None:
            self.trace.event(
                "search_done", status=status.value, nodes=self.nodes,
                lp_iterations=self.lp_iterations,
                lp_seconds=self.session.lp_seconds,
            )
        if status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED,
                      SolveStatus.ERROR):
            return MILPResult(
                status, nodes=self.nodes,
                lp_iterations=self.lp_iterations, wall_time=wall,
                proof=self._proof_payload(status),
            )
        if status is SolveStatus.OPTIMAL:
            if self.incumbent_x is None:
                return MILPResult(
                    SolveStatus.INFEASIBLE, nodes=self.nodes,
                    lp_iterations=self.lp_iterations, wall_time=wall,
                    proof=self._proof_payload(SolveStatus.INFEASIBLE),
                )
            best_bound_internal = min(self.incumbent_obj, self.pruned_bound)
        else:
            open_bounds = self._open_bounds() + [best_open_bound]
            best_bound_internal = min(min(open_bounds), self.pruned_bound,
                                      self.incumbent_obj)
        objective = (
            sign * self.incumbent_obj + objective_constant
            if self.incumbent_x is not None
            else math.nan
        )
        best_bound = sign * best_bound_internal + objective_constant
        return MILPResult(
            status,
            x=self.incumbent_x,
            objective=objective,
            best_bound=best_bound,
            nodes=self.nodes,
            lp_iterations=self.lp_iterations,
            wall_time=wall,
            proof=self._proof_payload(status),
        )


def solve_milp(
    model: Model,
    options: Optional[MILPOptions] = None,
    tracer=None,
    complete: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    branch_scores: Optional[
        Callable[[np.ndarray, np.ndarray], np.ndarray]
    ] = None,
) -> MILPResult:
    """Solve a MILP model; returns the best incumbent and a proven bound.

    The result's ``objective`` and ``best_bound`` are reported in the
    *model's* sense (a maximisation model gets an upper best_bound).
    ``tracer`` (a :class:`repro.obs.Tracer`) enables per-node search-tree
    telemetry; ``None`` keeps the node loop instrumentation-free.
    ``complete`` maps a fractional LP point to a candidate point of the
    model (for an encoded network, :meth:`EncodedNetwork.complete
    <repro.core.encoder.EncodedNetwork.complete>`); each candidate still
    has to pass :meth:`Model.is_feasible <repro.milp.model.Model.is_feasible>`
    before it becomes the incumbent.  Without it the search has no
    primal heuristic: incumbents come from integral LP points only.
    ``branch_scores`` maps an LP point and its fractional integer
    columns to one score per column (for an encoded network,
    :meth:`EncodedNetwork.branch_scores
    <repro.core.encoder.EncodedNetwork.branch_scores>`); the search
    branches on the best-scored column, or on the most fractional one
    when no score is positive or there is no hook.

    An OPTIMAL result's ``best_bound`` is the incumbent's value, or the
    best bound among the nodes pruned within ``GAP_TOL`` of it when that
    is better: the true optimum lies between ``objective`` and
    ``best_bound``.
    """
    options = options or MILPOptions()
    return _Search(
        model, options, time.monotonic(), tracer=tracer, complete=complete,
        branch_scores=branch_scores,
    ).run()
