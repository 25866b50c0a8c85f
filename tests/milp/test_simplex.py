"""A small LP corpus run against HiGHS and the independent LP oracle.

Every case is solved by HiGHS (the prover's LP engine) and by the
from-scratch revised simplex in ``tests/oracles``: equality rows,
infeasible and unbounded LPs, free, upper-only, negative-lower-bound and
fixed columns, and a degenerate vertex.  A property test pits the two
against each other on random bounded LPs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp.status import SolveStatus

from ..oracles.highs import solve_lp as solve_highs
from ..oracles.revised_simplex import solve_lp as solve_revised

#: HiGHS and the oracle, by name.
SOLVERS = (("revised", solve_revised), ("highs", solve_highs))


def solve_both(*args, **kwargs):
    """Yield ``(solver name, LPResult)`` for each solver."""
    for name, solve in SOLVERS:
        yield name, solve(*args, **kwargs)


class TestBasicLPs:
    def test_simple_maximization(self):
        # max x + 2y s.t. x + y <= 4, x - y <= 1, 0 <= x,y <= 10
        for name, res in solve_both(
            np.array([-1.0, -2.0]),
            np.array([[1.0, 1.0], [1.0, -1.0]]),
            np.array([4.0, 1.0]),
            bounds=[(0, 10), (0, 10)],
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.objective == pytest.approx(-8.0), name
            assert res.x == pytest.approx([0.0, 4.0]), name

    def test_equality_constraint(self):
        for name, res in solve_both(
            np.array([1.0, 1.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([3.0]),
            bounds=[(0, 10), (0, 10)],
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.objective == pytest.approx(3.0), name

    def test_infeasible(self):
        for name, res in solve_both(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -2.0]),  # x <= 1 and x >= 2
            bounds=[(0, 10)],
        ):
            assert res.status is SolveStatus.INFEASIBLE, name

    def test_unbounded(self):
        for name, res in solve_both(np.array([-1.0]), bounds=[(0, math.inf)]):
            assert res.status is SolveStatus.UNBOUNDED, name

    def test_free_variable(self):
        for name, res in solve_both(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([5.0]),  # -x <= 5  =>  x >= -5
            bounds=[(-math.inf, math.inf)],
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.objective == pytest.approx(-5.0), name

    def test_upper_bounded_only_variable(self):
        for name, res in solve_both(
            np.array([-1.0]), bounds=[(-math.inf, 3.0)]
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.x == pytest.approx([3.0]), name

    def test_negative_lower_bounds(self):
        for name, res in solve_both(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            np.array([0.0]),
            bounds=[(-2, 2), (-3, 3)],
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.objective == pytest.approx(-5.0), name

    def test_degenerate_lp_terminates(self):
        # Classic degeneracy: many redundant constraints through a vertex.
        A = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        )
        b = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
        for name, res in solve_both(
            np.array([-1.0, -1.0]), A, b, bounds=[(0, 5), (0, 5)]
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.objective == pytest.approx(-2.0), name

    def test_fixed_variable(self):
        for name, res in solve_both(
            np.array([1.0, -1.0]),
            np.array([[1.0, 1.0]]),
            np.array([10.0]),
            bounds=[(2, 2), (0, 5)],
        ):
            assert res.status is SolveStatus.OPTIMAL, name
            assert res.x[0] == pytest.approx(2.0), name
            assert res.x[1] == pytest.approx(5.0), name


@st.composite
def random_lp(draw):
    """Random well-scaled LP over a bounded box.

    Coefficients are rounded to 3 decimals: sub-tolerance values like
    2e-9 make "feasibility" solver-tolerance-dependent, so agreement
    between two solvers is only well-defined on reasonably scaled data.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=6))
    coef = st.floats(
        min_value=-5, max_value=5, allow_nan=False, allow_infinity=False
    ).map(lambda v: round(v, 3))
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    A = np.array(
        [draw(st.lists(coef, min_size=n, max_size=n)) for _ in range(m)]
    )
    b = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=-20, max_value=40, allow_nan=False
                ).map(lambda v: round(v, 3)),
                min_size=m,
                max_size=m,
            )
        )
    )
    bounds = [(0.0, float(draw(st.integers(1, 10)))) for _ in range(n)]
    return c, A, b, bounds


class TestCrossBackendAgreement:
    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_simplex_matches_highs(self, lp):
        """The hand-written revised simplex must agree with HiGHS on
        feasibility and optimal objective for bounded random LPs."""
        c, A, b, bounds = lp
        ours = solve_revised(c, A, b, bounds=bounds)
        ref = solve_highs(c, A, b, bounds=bounds)
        assert ours.status == ref.status
        if ref.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(
                ref.objective, abs=1e-5, rel=1e-5
            )
            # Our solution must actually be feasible.
            assert np.all(A @ ours.x <= b + 1e-6)
            lo = np.array([bd[0] for bd in bounds])
            hi = np.array([bd[1] for bd in bounds])
            assert np.all(ours.x >= lo - 1e-8)
            assert np.all(ours.x <= hi + 1e-8)
