"""Bounded-variable revised simplex: the test suite's independent LP oracle.

Written from scratch in dense NumPy, sharing no code with HiGHS, so the
tests can cross-check every LP the prover relies on — node relaxations,
LP bound tightening, Farkas rays — against a second engine.  It is not
on any proving path.

Box bounds stay *native*: the working system is ``A x = b`` with
``l <= x <= u`` per column — slack columns absorb the inequality rows,
nothing is split, and no bound ever becomes a row.  :func:`solve_lp` runs
a two-phase primal simplex: phase 1 works over per-row artificial
columns that are fixed to zero afterwards; an infeasible phase 1 leaves a
Farkas ray in the same sign convention HiGHS rays follow
(:class:`repro.milp.solution.LPResult`).  ``B^{-1}`` is maintained
explicitly with product-form pivot updates and periodic refactorisation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.milp.solution import LPResult
from repro.milp.status import SolveStatus

#: Nonbasic-at-lower-bound / nonbasic-at-upper-bound / basic / nonbasic free
#: (free nonbasics rest at zero).
AT_LOWER, AT_UPPER, BASIC, FREE = 0, 1, 2, 3

#: Generic "this float is zero" threshold (basis algebra, ratio ties).
_EPS = 1e-9
#: Reduced-cost (dual feasibility) tolerance.
_DUAL_TOL = 1e-7
#: Minimum acceptable pivot magnitude; smaller pivots destroy precision.
_PIVOT_TOL = 1e-7
_BLAND_AFTER = 2000
_REFACTOR_EVERY = 64
_MAX_ITER_DEFAULT = 50000


class NumericalTrouble(RuntimeError):
    """The factorisation degraded beyond repair (the solve reports ERROR)."""


@dataclasses.dataclass
class StandardLP:
    """``min c @ x  s.t.  A x = b,  l <= x <= u`` built once per model.

    Columns are laid out ``[structural | slacks | artificials]``; the
    artificial block (one column per row) is fixed to ``[0, 0]`` and only
    relaxed internally during phase 1 of a cold start.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    num_structural: int

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    @property
    def art_cols(self) -> np.ndarray:
        """The artificial block: row ``i``'s artificial column is
        ``art_cols[i]``."""
        return np.arange(self.num_cols - self.num_rows, self.num_cols)

    def node_bounds(
        self,
        lb: Optional[np.ndarray] = None,
        ub: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full-length bound arrays with node bounds on the structurals."""
        lower = self.lower.copy()
        upper = self.upper.copy()
        if lb is not None:
            lower[: self.num_structural] = lb
        if ub is not None:
            upper[: self.num_structural] = ub
        return lower, upper


def standardize(
    c: np.ndarray,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    bounds: Optional[Sequence[Tuple[float, float]]] = None,
) -> StandardLP:
    """Build the equality-form LP (slack and artificial columns appended)."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if bounds is None:
        bounds = [(0.0, math.inf)] * n
    if len(bounds) != n:
        raise ValueError("bounds length must match number of columns")
    num_ub = 0 if A_ub is None else A_ub.shape[0]
    num_eq = 0 if A_eq is None else A_eq.shape[0]
    m = num_ub + num_eq

    A_struct = np.zeros((m, n))
    b = np.zeros(m)
    if num_ub:
        A_struct[:num_ub] = A_ub
        b[:num_ub] = b_ub
    if num_eq:
        A_struct[num_ub:] = A_eq
        b[num_ub:] = b_eq

    slack = np.zeros((m, num_ub))
    slack[:num_ub] = np.eye(num_ub)
    A = np.hstack([A_struct, slack, np.eye(m)])

    lower = np.concatenate([
        np.array([bd[0] for bd in bounds], dtype=float),
        np.zeros(num_ub),
        np.zeros(m),
    ])
    upper = np.concatenate([
        np.array([bd[1] for bd in bounds], dtype=float),
        np.full(num_ub, math.inf),
        np.zeros(m),
    ])
    c_full = np.concatenate([c, np.zeros(num_ub + m)])
    return StandardLP(A, b, c_full, lower, upper, n)


class _Solver:
    """One revised-simplex run over a :class:`StandardLP` with node bounds."""

    def __init__(
        self, lp: StandardLP, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        self.lp = lp
        self.A = lp.A
        self.b = lp.b
        self.lower = lower
        self.upper = upper
        self.m, self.n = lp.A.shape
        self.iterations = 0
        self._since_refactor = 0
        self.basic = np.zeros(self.m, dtype=np.int64)
        self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.Binv = np.eye(self.m)
        self.x = np.zeros(self.n)
        #: Infeasibility ray over the rows, set when phase 1 ends with a
        #: positive optimum (the primal has no feasible point).
        self.farkas_ray: Optional[np.ndarray] = None

    # -- basis management ---------------------------------------------------
    def factorize(self) -> None:
        B = self.A[:, self.basic]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalTrouble("singular basis matrix") from exc
        if not np.all(np.isfinite(self.Binv)):
            raise NumericalTrouble("non-finite basis inverse")
        self._since_refactor = 0

    def compute_x(self) -> None:
        """Recompute the full primal point from the basis and statuses."""
        x = np.where(self.status == AT_UPPER, self.upper, self.lower)
        x[self.status == FREE] = 0.0
        x[self.basic] = 0.0
        x[self.basic] = self.Binv @ (self.b - self.A @ x)
        self.x = x

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = cost[self.basic] @ self.Binv
        return cost - y @ self.A

    def _pivot_update(self, r: int, w: np.ndarray) -> None:
        """Product-form update of ``B^{-1}`` after ``basic[r]`` is replaced."""
        if abs(w[r]) < _PIVOT_TOL:
            raise NumericalTrouble("pivot element too small")
        row = self.Binv[r] / w[r]
        factors = w.copy()
        factors[r] = 0.0
        self.Binv -= np.outer(factors, row)
        self.Binv[r] = row
        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            self.factorize()

    # -- primal simplex -----------------------------------------------------
    def primal(self, cost: np.ndarray, max_iter: int) -> str:
        """Minimise ``cost`` from the current (primal-feasible) basis."""
        movable = self.upper - self.lower > _EPS
        while True:
            if self.iterations >= max_iter:
                return "iteration_limit"
            d = self.reduced_costs(cost)
            bland = self.iterations >= _BLAND_AFTER
            at_lo = (self.status == AT_LOWER) & movable & (d < -_DUAL_TOL)
            at_up = (self.status == AT_UPPER) & movable & (d > _DUAL_TOL)
            free = (self.status == FREE) & (np.abs(d) > _DUAL_TOL)
            candidates = np.flatnonzero(at_lo | at_up | free)
            if candidates.size == 0:
                return "optimal"
            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmax(np.abs(d[candidates]))])
            sigma = 1.0 if (at_lo[q] or (free[q] and d[q] < 0)) else -1.0

            w = self.Binv @ self.A[:, q]
            effect = sigma * w  # x_B changes by -effect * t
            xB = self.x[self.basic]
            loB = self.lower[self.basic]
            upB = self.upper[self.basic]
            limits = np.full(self.m, np.inf)
            dec = effect > _PIVOT_TOL
            inc = effect < -_PIVOT_TOL
            limits[dec] = (xB[dec] - loB[dec]) / effect[dec]
            limits[inc] = (upB[inc] - xB[inc]) / (-effect[inc])
            limits = np.maximum(limits, 0.0)
            t_basic = limits.min() if self.m else np.inf

            if self.status[q] == FREE:
                t_flip = np.inf
            else:
                t_flip = self.upper[q] - self.lower[q]

            t = min(t_basic, t_flip)
            if not np.isfinite(t):
                return "unbounded"

            if t_flip <= t_basic:
                # Bound flip: the entering column crosses its box without
                # any basic variable blocking — no basis change at all.
                self.status[q] = AT_UPPER if sigma > 0 else AT_LOWER
                self.x[q] += sigma * t
                self.x[self.basic] = xB - effect * t
                self.iterations += 1
                continue

            ties = np.flatnonzero(limits <= t_basic + _EPS)
            if bland:
                r = int(min(ties, key=lambda i: self.basic[i]))
            else:
                r = int(ties[np.argmax(np.abs(effect[ties]))])
            leaving = int(self.basic[r])
            self.x[q] += sigma * t
            self.x[self.basic] = xB - effect * t
            self.x[leaving] = loB[r] if effect[r] > 0 else upB[r]
            self.status[leaving] = AT_LOWER if effect[r] > 0 else AT_UPPER
            self.status[q] = BASIC
            self.basic[r] = q
            try:
                self._pivot_update(r, w)
            except NumericalTrouble:
                self.factorize()  # may itself raise: basis truly singular
                self.compute_x()
            if self._since_refactor == 0:
                self.compute_x()
            self.iterations += 1


def _cold_start(
    solver: _Solver, lower: np.ndarray, upper: np.ndarray, max_iter: int
) -> str:
    """Two-phase cold start over the artificial block.

    Phase 1 relaxes each artificial's ``[0, 0]`` box to cover the initial
    row residual and minimises total artificial magnitude; afterwards the
    boxes snap back to zero.  Returns ``optimal``, ``infeasible``, ``unbounded`` or
    ``iteration_limit``.
    """
    lp = solver.lp
    m, n = solver.m, solver.n
    art = lp.art_cols

    status = np.full(n, AT_LOWER, dtype=np.int8)
    finite_lo = np.isfinite(lower)
    finite_up = np.isfinite(upper)
    status[~finite_lo & finite_up] = AT_UPPER
    status[~finite_lo & ~finite_up] = FREE
    status[art] = BASIC
    solver.basic = art.copy()
    solver.status = status
    solver.Binv = np.eye(m)

    x = np.where(status == AT_UPPER, upper, lower)
    x[status == FREE] = 0.0
    x[art] = 0.0
    residual = solver.b - solver.A @ x

    lower[art] = np.minimum(0.0, residual)
    upper[art] = np.maximum(0.0, residual)
    solver.compute_x()

    phase1_cost = np.zeros(n)
    phase1_cost[art] = np.where(residual >= 0.0, 1.0, -1.0)
    outcome = solver.primal(phase1_cost, max_iter)
    if outcome == "unbounded":
        raise NumericalTrouble("phase 1 cannot be unbounded")
    if outcome == "iteration_limit":
        return outcome
    if float(phase1_cost @ solver.x) > 1e-6:
        # Phase-1 optimum with positive artificial mass: its negated
        # dual prices form an infeasibility ray (proof-certificate
        # Farkas, ``y >= 0`` on the slack rows).
        solver.farkas_ray = -(phase1_cost[solver.basic] @ solver.Binv)
        return "infeasible"

    # Snap the artificial boxes shut; surviving basic artificials sit at
    # zero and the fixed box keeps them out of every future pivot.
    lower[art] = 0.0
    upper[art] = 0.0
    nonbasic_art = art[solver.status[art] != BASIC]
    solver.status[nonbasic_art] = AT_LOWER
    solver.compute_x()
    return solver.primal(lp.c, max_iter)


def _result(solver: _Solver) -> LPResult:
    """Package an optimal solver state as an :class:`LPResult`."""
    n_struct = solver.lp.num_structural
    x = solver.x[:n_struct].copy()
    return LPResult(
        SolveStatus.OPTIMAL,
        x=x,
        objective=float(solver.lp.c[:n_struct] @ x),
        iterations=solver.iterations,
    )


def cold_solve(
    lp: StandardLP,
    lb: Optional[np.ndarray] = None,
    ub: Optional[np.ndarray] = None,
    max_iter: int = _MAX_ITER_DEFAULT,
) -> LPResult:
    """Solve from scratch (two-phase primal) under node bounds ``lb``/``ub``."""
    lower, upper = lp.node_bounds(lb, ub)
    if np.any(lower > upper + _EPS):
        return LPResult(SolveStatus.INFEASIBLE)
    solver = _Solver(lp, lower, upper)
    try:
        outcome = _cold_start(solver, lower, upper, max_iter)
    except NumericalTrouble:
        return LPResult(SolveStatus.ERROR, iterations=solver.iterations)
    if outcome == "optimal":
        return _result(solver)
    if outcome == "infeasible":
        return LPResult(
            SolveStatus.INFEASIBLE,
            iterations=solver.iterations,
            farkas=solver.farkas_ray,
        )
    if outcome == "unbounded":
        return LPResult(SolveStatus.UNBOUNDED, iterations=solver.iterations)
    return LPResult(SolveStatus.ERROR, iterations=solver.iterations)


def solve_lp(
    c: np.ndarray,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    bounds: Optional[Sequence[Tuple[float, float]]] = None,
    max_iter: int = _MAX_ITER_DEFAULT,
) -> LPResult:
    """Minimise ``c @ x``; the signature of
    :func:`tests.oracles.highs.solve_lp`."""
    lp = standardize(c, A_ub, b_ub, A_eq, b_eq, bounds)
    return cold_solve(lp, max_iter=max_iter)
