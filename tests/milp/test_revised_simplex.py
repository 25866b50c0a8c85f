"""Cross-check tests for the bounded revised simplex LP oracle.

The core of the suite pits the oracle's :func:`solve_lp` against SciPy's
HiGHS backend on ~200 seeded random LPs with mixed
free/boxed/one-sided/fixed variables, including degenerate and infeasible
instances — the two solvers must agree on status and optimal objective.
"""

import math

import numpy as np
import pytest

from repro.milp.status import SolveStatus

from ..oracles import revised_simplex as rs
from ..oracles.highs import solve_lp as solve_highs

NUM_RANDOM_LPS = 200


def _random_lp(rng):
    """One random LP with a mix of bound kinds (incl. fixed and free)."""
    n = int(rng.integers(1, 8))
    m = int(rng.integers(0, 8))
    me = int(rng.integers(0, 3))
    c = np.round(rng.uniform(-5, 5, n), 3)
    A_ub = np.round(rng.uniform(-5, 5, (m, n)), 3) if m else None
    b_ub = np.round(rng.uniform(-10, 30, m), 3) if m else None
    A_eq = np.round(rng.uniform(-3, 3, (me, n)), 3) if me else None
    b_eq = np.round(rng.uniform(-5, 10, me), 3) if me else None
    bounds = []
    for _ in range(n):
        kind = int(rng.integers(0, 5))
        lo = round(float(rng.uniform(-6, 2)), 3)
        hi = lo + round(float(rng.uniform(0, 8)), 3)
        if kind == 0:
            bounds.append((lo, hi))          # boxed
        elif kind == 1:
            bounds.append((lo, math.inf))    # lower only
        elif kind == 2:
            bounds.append((-math.inf, hi))   # upper only
        elif kind == 3:
            bounds.append((-math.inf, math.inf))  # free
        else:
            bounds.append((lo, lo))          # fixed (degenerate)
    return c, A_ub, b_ub, A_eq, b_eq, bounds


class TestRandomCrossCheck:
    def test_agrees_with_highs_on_random_lps(self):
        """Status + objective agreement on ~200 seeded random LPs."""
        rng = np.random.default_rng(20260806)
        optimal = infeasible = unbounded = 0
        for k in range(NUM_RANDOM_LPS):
            c, A_ub, b_ub, A_eq, b_eq, bounds = _random_lp(rng)
            ours = rs.solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds)
            ref = solve_highs(c, A_ub, b_ub, A_eq, b_eq, bounds)
            assert ours.status == ref.status, (
                f"instance {k}: {ours.status} != {ref.status}"
            )
            if ref.status is SolveStatus.OPTIMAL:
                optimal += 1
                assert ours.objective == pytest.approx(
                    ref.objective, abs=1e-5, rel=1e-5
                ), f"instance {k}"
                # The point must actually be feasible.
                lo = np.array([bd[0] for bd in bounds])
                hi = np.array([bd[1] for bd in bounds])
                assert np.all(ours.x >= lo - 1e-7)
                assert np.all(ours.x <= hi + 1e-7)
                if A_ub is not None:
                    assert np.all(A_ub @ ours.x <= b_ub + 1e-6)
                if A_eq is not None:
                    assert np.allclose(A_eq @ ours.x, b_eq, atol=1e-6)
            elif ref.status is SolveStatus.INFEASIBLE:
                infeasible += 1
            elif ref.status is SolveStatus.UNBOUNDED:
                unbounded += 1
        # The battery must actually exercise all three outcomes.
        assert optimal > 50
        assert infeasible > 5

    def test_degenerate_redundant_rows(self):
        A = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        )
        b = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
        res = rs.solve_lp(np.array([-1.0, -1.0]), A, b,
                          bounds=[(0, 5), (0, 5)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0)

    def test_unbounded_free_column(self):
        res = rs.solve_lp(np.array([-1.0]),
                          bounds=[(-math.inf, math.inf)])
        assert res.status is SolveStatus.UNBOUNDED


class TestNodeBounds:
    def test_crossed_node_bounds_are_infeasible(self):
        c = np.array([1.0])
        lp = rs.standardize(c, None, None, None, None, [(0, 5)])
        res = rs.cold_solve(lp, np.array([3.0]), np.array([1.0]))
        assert res.status is SolveStatus.INFEASIBLE
