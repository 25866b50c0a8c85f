"""HiGHS backend tests: status mapping, bounds conversion, the
persistent session's warm re-solves and the Farkas rays of infeasible
answers."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.milp.scipy_backend import HighsSession
from repro.milp.status import SolveStatus

from ..oracles import revised_simplex
from ..oracles.highs import solve_lp


class TestStatusMapping:
    def test_optimal(self):
        res = solve_lp(np.array([1.0]), bounds=[(0.0, 5.0)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_infeasible(self):
        res = solve_lp(
            np.array([1.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]),
            bounds=[(0.0, 10.0)],
        )
        assert res.status is SolveStatus.INFEASIBLE
        assert res.x is None

    def test_unbounded(self):
        res = solve_lp(np.array([-1.0]), bounds=[(0.0, math.inf)])
        assert res.status is SolveStatus.UNBOUNDED


class TestBoundsConversion:
    def test_infinite_bounds_translated(self):
        res = solve_lp(
            np.array([1.0]),
            A_ub=np.array([[-1.0]]),
            b_ub=np.array([3.0]),  # x >= -3
            bounds=[(-math.inf, math.inf)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-3.0)

    def test_default_bounds_nonnegative(self):
        res = solve_lp(np.array([1.0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([0.0])

    def test_equality_constraints(self):
        res = solve_lp(
            np.array([1.0, 2.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]),
            bounds=[(0.0, 10.0), (0.0, 10.0)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)  # all mass on x0

    def test_iterations_reported(self):
        res = solve_lp(
            np.array([-1.0, -1.0]),
            A_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
            b_ub=np.array([4.0, 6.0]),
            bounds=[(0.0, 10.0)] * 2,
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.iterations >= 0


def assert_farkas(ray, A_ub, b_ub, A_eq, b_eq, lb, ub):
    """``ray`` proves the LP infeasible in ``LPResult.farkas`` form, with
    no sign change: ``y >= 0`` on the ``<=`` rows, any sign on equality
    rows, and the aggregated row's minimum over the box above its
    right-hand side (the weak-duality test of ``repro.proof.check``).
    Aggregated coefficients below 1e-9 count as zero, so round-off on
    an unbounded column does not send the minimum to minus infinity.
    """
    A_ub = np.zeros((0, len(lb))) if A_ub is None else np.asarray(A_ub)
    A_eq = np.zeros((0, len(lb))) if A_eq is None else np.asarray(A_eq)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq)
    assert ray is not None
    assert ray.shape == (len(b_ub) + len(b_eq),)
    y_ub, y_eq = ray[: len(b_ub)], ray[len(b_ub):]
    assert np.all(y_ub >= -1e-9)
    agg = y_ub @ A_ub + y_eq @ A_eq
    agg[np.abs(agg) < 1e-9] = 0.0
    lhs_min = sum(
        a * (lo if a > 0 else hi) for a, lo, hi in zip(agg, lb, ub) if a
    )
    assert lhs_min - (y_ub @ b_ub + y_eq @ b_eq) > 1e-9


def _session_lp(rng, n=6, m=5):
    """A feasible seeded LP with one row that a box can make infeasible
    and one column that a box can make unbounded.

    Rows hold at the interior point ``x0``; the last column enters the
    ``<=`` rows with nonpositive coefficients only, so with a negative
    cost and no upper bound the LP is unbounded.  Row 0 caps
    ``x[0] + x[1]`` just above ``x0``, so lifting both lower bounds past
    it is infeasible.
    """
    x0 = rng.uniform(0.2, 0.8, n)
    A_ub = rng.normal(size=(m, n))
    A_ub[:, -1] = -np.abs(A_ub[:, -1])
    A_ub[0] = 0.0
    A_ub[0, :2] = 1.0
    b_ub = A_ub @ x0 + rng.uniform(0.1, 0.5, m)
    A_eq = np.zeros((1, n))
    A_eq[0, 2:-1] = rng.normal(size=n - 3)
    b_eq = A_eq @ x0
    c = rng.normal(size=n)
    lb = x0 - rng.uniform(0.2, 1.0, n)
    ub = x0 + rng.uniform(0.2, 1.0, n)
    return x0, c, A_ub, b_ub, A_eq, b_eq, lb, ub


def _edit(rng, kind, x0, c, lb, ub):
    """One session edit of the given kind: new (c, lb, ub)."""
    n = len(c)
    c, lb, ub = c.copy(), lb.copy(), ub.copy()
    if kind == "cost":
        c = rng.normal(size=n)
    elif kind == "box":
        lb = x0 - rng.uniform(-0.3, 1.0, n)
        ub = np.maximum(lb, x0 + rng.uniform(-0.3, 1.0, n))
    elif kind == "infeasible":
        lb[:2] = 3.0
        ub[:2] = np.maximum(ub[:2], 3.0)
    elif kind == "crossed":
        lb[0], ub[0] = 1.0, 0.0
    elif kind == "unbounded":
        c[-1] = -1.0
        ub[-1] = math.inf
    else:  # "restore": a box around x0 with finite bounds
        lb = x0 - rng.uniform(0.2, 1.0, n)
        ub = x0 + rng.uniform(0.2, 1.0, n)
    return c, lb, ub


#: Column and row counts after each growth stage of ``_staged_lp``.
STAGE_COLS = (4, 7, 9)
STAGE_ROWS = (2, 5, 8)


def _staged_lp(rng):
    """``_session_lp`` in staircase form: the rows of each stage use only
    the columns of that stage and the ones before, so the LP can be
    built stage by stage with :meth:`HighsSession.extend`."""
    x0, c, A_ub, b_ub, A_eq, b_eq, lb, ub = _session_lp(
        rng, n=STAGE_COLS[-1], m=STAGE_ROWS[-1]
    )
    for r0, r1, col in zip((0,) + STAGE_ROWS, STAGE_ROWS, STAGE_COLS):
        A_ub[r0:r1, col:] = 0.0
    A_eq[:, STAGE_COLS[0]:] = 0.0
    b_ub = A_ub @ x0 + rng.uniform(0.1, 0.5, len(b_ub))
    b_eq = A_eq @ x0
    return x0, c, A_ub, b_ub, A_eq, b_eq, lb, ub


def _grown_session(c, A_ub, b_ub, A_eq, b_eq, lb, ub):
    """A session started on the first stage of a ``_staged_lp`` and
    extended stage by stage, each stage solved warm and checked against
    a fresh model of the LP so far."""
    n, m = STAGE_COLS[0], STAGE_ROWS[0]
    session = HighsSession(
        c[:n], A_ub[:m, :n], b_ub[:m], A_eq[:, :n], b_eq,
        list(zip(lb[:n], ub[:n])),
    )
    for n1, m1 in zip(STAGE_COLS, STAGE_ROWS):
        if n1 > n:
            session.extend(
                list(zip(lb[n:n1], ub[n:n1])), A_ub[m:m1, :n1], b_ub[m:m1]
            )
            n, m = n1, m1
        warm = session.solve(c=c[:n])
        fresh = HighsSession(
            c[:n], A_ub[:m, :n], b_ub[:m], A_eq[:, :n], b_eq,
            list(zip(lb[:n], ub[:n])),
        ).solve()
        assert warm.status is fresh.status
        if warm.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(fresh.objective, abs=1e-9)
    assert session.num_vars == len(c)
    return session


class TestSession:
    """A long-lived session must answer exactly like a fresh model."""

    KINDS = ("cost", "box", "infeasible", "crossed", "unbounded", "restore")

    def _run(self, seed, steps=60, grown=False):
        rng = np.random.default_rng(seed)
        if grown:
            x0, c, A_ub, b_ub, A_eq, b_eq, lb, ub = _staged_lp(rng)
            session = _grown_session(c, A_ub, b_ub, A_eq, b_eq, lb, ub)
        else:
            x0, c, A_ub, b_ub, A_eq, b_eq, lb, ub = _session_lp(rng)
            session = HighsSession(
                c, A_ub, b_ub, A_eq, b_eq, list(zip(lb, ub))
            )
        seen = []
        for _ in range(steps):
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            c, lb, ub = _edit(rng, kind, x0, c, lb, ub)
            # Edit only what changed, as the bound and node loops do.
            warm = session.solve(c=c, lb=lb, ub=ub) if kind != "cost" \
                else session.solve(c=c)
            box = list(zip(lb, ub))
            fresh = HighsSession(c, A_ub, b_ub, A_eq, b_eq, box).solve()
            cold = revised_simplex.solve_lp(c, A_ub, b_ub, A_eq, b_eq, box)
            assert warm.status is fresh.status is cold.status, kind
            if warm.status is SolveStatus.INFEASIBLE and np.all(lb <= ub):
                rays = [res.farkas for res in (warm, fresh, cold)]
                if grown and rays[0] is not None:
                    # The grown session lists its rows in the order it
                    # gained them: first stage, equality rows, the rest.
                    m, k = STAGE_ROWS[0], len(b_eq)
                    rays[0] = np.concatenate(
                        [rays[0][:m], rays[0][m + k:], rays[0][m:m + k]]
                    )
                for ray in rays:
                    assert_farkas(ray, A_ub, b_ub, A_eq, b_eq, lb, ub)
            if warm.status is SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(fresh.objective, abs=1e-9)
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert np.all(warm.x >= lb - 1e-9) and np.all(warm.x <= ub + 1e-9)
            seen.append((kind, warm.status))
        return seen

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_edits_match_fresh_and_cold(self, seed):
        self._run(seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_grown_session_matches_fresh_and_cold(self, seed):
        """After ``extend`` calls the session answers every edit (crossed
        boxes and warm re-solves included) like a fresh model of the
        full LP."""
        self._run(seed, grown=True)

    def test_extend_with_crossed_columns(self):
        """Columns added with a crossed box make every solve infeasible
        until an edit uncrosses the box."""
        session = HighsSession(
            np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([1.0]),
            bounds=[(0.0, 2.0)],
        )
        assert session.solve().status is SolveStatus.OPTIMAL
        session.extend(
            [(1.0, 0.0)], np.array([[1.0, 1.0]]), np.array([1.5])
        )
        c = np.array([-1.0, -2.0])
        assert session.solve(c=c).status is SolveStatus.INFEASIBLE
        res = session.solve(ub=np.array([2.0, 0.5]))
        assert res.status is SolveStatus.INFEASIBLE
        res = session.solve(lb=np.array([0.0, 0.0]))
        fresh = HighsSession(
            c, A_ub=np.array([[1.0, 0.0], [1.0, 1.0]]),
            b_ub=np.array([1.0, 1.5]), bounds=[(0.0, 2.0), (0.0, 0.5)],
        ).solve()
        assert res.status is fresh.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(fresh.objective, abs=1e-12)
        assert res.objective == pytest.approx(-2.0)

    def test_extend_rejects_nan(self):
        session = HighsSession(np.array([1.0]), bounds=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            session.extend([(0.0, 1.0)], np.array([[1.0, math.nan]]), [1.0])

    def test_edit_run_crosses_every_status(self):
        """The edit mix really visits infeasible and unbounded LPs and
        comes back to optimal from each."""
        transitions = set()
        for seed in range(8):
            seen = self._run(seed)
            for (_, before), (_, after) in zip(seen, seen[1:]):
                transitions.add((before, after))
        for status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
            assert (status, SolveStatus.OPTIMAL) in transitions
            assert (SolveStatus.OPTIMAL, status) in transitions

    def test_crossed_box_is_infeasible_until_uncrossed(self):
        session = HighsSession(
            np.array([1.0, 1.0]), bounds=[(0.0, 1.0), (0.0, 1.0)]
        )
        crossed = session.solve(lb=np.array([2.0, 0.0]), ub=np.array([1.0, 1.0]))
        assert crossed.status is SolveStatus.INFEASIBLE
        res = session.solve(c=np.array([-1.0, -1.0]))
        assert res.status is SolveStatus.INFEASIBLE
        res = session.solve(lb=np.array([0.0, 0.0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0)

    def test_cost_only_edit_keeps_box(self):
        session = HighsSession(np.array([1.0]), bounds=[(0.0, 5.0)])
        session.solve(lb=np.array([2.0]), ub=np.array([3.0]))
        res = session.solve(c=np.array([-1.0]))
        assert res.objective == pytest.approx(-3.0)

    def test_nan_data_rejected(self):
        with pytest.raises(ValueError):
            HighsSession(np.array([math.nan]), bounds=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            HighsSession(np.array([1.0]), bounds=[(0.0, 1.0)]).solve(
                c=np.array([math.nan])
            )
        with pytest.raises(ValueError):
            HighsSession(
                np.array([1.0]), A_ub=np.array([[math.nan]]),
                b_ub=np.array([1.0]), bounds=[(0.0, 1.0)],
            )

    @pytest.mark.parametrize(
        "edit",
        [{"lb": [math.nan, 0.0]}, {"ub": [5.0, math.nan]},
         {"lb": [math.inf, 0.5], "ub": [math.inf, 5.0]}],
        ids=["nan-lb", "nan-ub", "rejected-by-highs"],
    )
    def test_bad_bound_raises_and_keeps_box(self, edit):
        """A box HiGHS cannot take raises and leaves the session's box
        as it was, so the next edit applies to the old box, not to the
        rejected one."""
        # min x0 + 2 x1  s.t.  x0 + x1 >= 1  on  [0, 5] x [0.5, 5].
        session = HighsSession(
            np.array([1.0, 2.0]), A_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([-1.0]), bounds=[(0.0, 5.0), (0.5, 5.0)],
        )
        assert session.solve().objective == pytest.approx(1.5)
        with pytest.raises(ValueError):
            session.solve(**{side: np.array(v) for side, v in edit.items()})
        np.testing.assert_array_equal(session._lb, [0.0, 0.5])
        np.testing.assert_array_equal(session._ub, [5.0, 5.0])
        res = session.solve(ub=np.array([0.2, 5.0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(1.8)
        np.testing.assert_allclose(res.x, [0.2, 0.8])


SOLVERS = {"highs": solve_lp, "revised": revised_simplex.solve_lp}


class _RayStub:
    """A HiGHS binding whose ``getDualRay`` answers ``ray`` (or that has
    no ``getDualRay`` at all when ``ray`` is ``None``)."""

    def __init__(self, h, ray):
        self._h, self._ray = h, ray

    def __getattr__(self, name):
        if name == "getDualRay" and self._ray is None:
            raise AttributeError(name)
        return getattr(self._h, name)

    def getDualRay(self):
        # (status, has-a-ray flag, values), as the binding answers.
        return self._h.getDualRay()[0], True, self._ray


class TestFarkasRay:
    """Every infeasible answer carries a ray the checker takes as is,
    in one sign convention on both backends."""

    @pytest.mark.parametrize("backend", sorted(SOLVERS))
    def test_infeasible(self, backend):
        A_ub, b_ub = np.array([[1.0], [-1.0]]), np.array([1.0, -2.0])
        res = SOLVERS[backend](
            np.array([1.0]), A_ub=A_ub, b_ub=b_ub, bounds=[(0.0, 10.0)]
        )
        assert res.status is SolveStatus.INFEASIBLE
        assert_farkas(res.farkas, A_ub, b_ub, None, None, [0.0], [10.0])

    @pytest.mark.parametrize("backend", sorted(SOLVERS))
    @pytest.mark.parametrize("rhs", [3.0, -3.0])
    def test_equality_row(self, backend, rhs):
        """``x0 + x1 = rhs`` out of the unit box's reach, next to a
        ``<=`` row, from either side: the equality multiplier takes
        the sign that side needs."""
        A_ub, b_ub = np.array([[1.0, -1.0]]), np.array([0.5])
        A_eq, b_eq = np.array([[1.0, 1.0]]), np.array([rhs])
        res = SOLVERS[backend](
            np.array([1.0, 1.0]), A_ub, b_ub, A_eq, b_eq,
            bounds=[(0.0, 1.0)] * 2,
        )
        assert res.status is SolveStatus.INFEASIBLE
        assert_farkas(res.farkas, A_ub, b_ub, A_eq, b_eq, [0.0] * 2, [1.0] * 2)

    def test_warm_resolve_made_infeasible_by_box_edit(self):
        rng = np.random.default_rng(0)
        x0, c, A_ub, b_ub, A_eq, b_eq, lb, ub = _session_lp(rng)
        session = HighsSession(c, A_ub, b_ub, A_eq, b_eq, list(zip(lb, ub)))
        assert session.solve().status is SolveStatus.OPTIMAL
        _, lb, ub = _edit(rng, "infeasible", x0, c, lb, ub)
        res = session.solve(lb=lb, ub=ub)
        assert res.status is SolveStatus.INFEASIBLE
        assert_farkas(res.farkas, A_ub, b_ub, A_eq, b_eq, lb, ub)
        _, lb, ub = _edit(rng, "restore", x0, c, lb, ub)
        restored = session.solve(lb=lb, ub=ub)
        assert restored.status is SolveStatus.OPTIMAL
        assert restored.farkas is None

    @pytest.mark.parametrize(
        "ray",
        [None, np.zeros(0), np.zeros(2), np.array([math.nan, 1.0]),
         np.array([math.inf, 1.0])],
        ids=["no-binding", "empty", "zero", "nan", "inf"],
    )
    def test_unusable_ray_is_no_ray(self, ray):
        session = HighsSession(
            np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]), bounds=[(0.0, 10.0)],
        )
        session._h = _RayStub(session._h, ray)
        res = session.solve()
        assert res.status is SolveStatus.INFEASIBLE
        assert res.farkas is None


def test_missing_bindings_name_the_scipy_floor():
    """Without the compiled HiGHS bindings the import fails once, clearly."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "sys.modules['scipy.optimize._highspy._core'] = None; "
        "import repro.milp.scipy_backend"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "ImportError: repro needs SciPy >= 1.15" in proc.stderr


def test_missing_scipy_names_the_scipy_floor():
    """Without SciPy at all the extension file cannot be found: the
    same error, not a bare ``ModuleNotFoundError``."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "sys.modules['scipy'] = None; "
        "import repro.milp.scipy_backend"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "ImportError: repro needs SciPy >= 1.15" in proc.stderr
