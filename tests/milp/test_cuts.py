"""Cutting-plane tests: separators, pool, LP growth, search integration.

Soundness is checked the only way that matters for a verifier: by
enumerating *every* integer-feasible point of small models and asserting
that no separated cut slices one off.
"""

import itertools
import math

import numpy as np
import pytest

from repro.milp import (
    MILPOptions,
    Model,
    Sense,
    SolveStatus,
    VarType,
    solve_milp,
)
from repro.milp import revised_simplex as rs
from repro.milp.cuts import (
    MIN_VIOLATION,
    Cut,
    CutPool,
    ReluNeuron,
    separate_gomory,
    separate_relu,
)
from repro.milp.expr import LinExpr


def knapsack(vals, wts, cap):
    model = Model("knap")
    xs = [
        model.add_var(f"x{i}", vtype=VarType.BINARY)
        for i in range(len(vals))
    ]
    model.add_constr(
        LinExpr({x.index: w for x, w in zip(xs, wts)}) <= cap
    )
    model.set_objective(
        LinExpr({x.index: v for x, v in zip(xs, vals)}),
        sense=Sense.MAXIMIZE,
    )
    return model


def _integer_points(bounds):
    return itertools.product(
        *[range(int(lo), int(hi) + 1) for lo, hi in bounds]
    )


def _root_cuts(c, A, b, bounds, int_cols, max_cuts=16):
    """Cold-solve min c@x s.t. A@x <= b and separate at the optimum."""
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    lp = rs.standardize(c, A, b, None, None, bounds)
    result = rs.cold_solve(lp)
    if result.status is not SolveStatus.OPTIMAL:
        return None, result
    view = rs.tableau_view(lp, result.basis)
    if view is None:
        return None, result
    lower = np.array([bd[0] for bd in bounds], dtype=float)
    upper = np.array([bd[1] for bd in bounds], dtype=float)
    cuts = separate_gomory(
        view, np.asarray(int_cols), lower, upper, max_cuts=max_cuts
    )
    return cuts, result


class TestGomorySoundness:
    def test_cuts_valid_for_every_integer_point(self):
        # max x + y  s.t.  3x + 5y <= 13, x, y in {0..4}: LP optimum is
        # fractional, so at least one Gomory cut separates it.
        bounds = [(0.0, 4.0), (0.0, 4.0)]
        cuts, result = _root_cuts(
            [-1.0, -1.0], [[3.0, 5.0]], [13.0], bounds, [0, 1]
        )
        assert cuts
        for pt in _integer_points(bounds):
            if 3 * pt[0] + 5 * pt[1] > 13:
                continue
            x = np.array(pt, dtype=float)
            for cut in cuts:
                assert float(cut.coeffs @ x) <= cut.rhs + 1e-7, (
                    f"cut {cut.coeffs}@x <= {cut.rhs} kills feasible {pt}"
                )

    def test_cuts_violated_at_lp_optimum(self):
        cuts, result = _root_cuts(
            [-1.0, -1.0], [[3.0, 5.0]], [13.0],
            [(0.0, 4.0), (0.0, 4.0)], [0, 1],
        )
        assert cuts
        for cut in cuts:
            assert cut.violation(result.x) >= MIN_VIOLATION

    def test_random_instances_never_cut_integer_points(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            A = rng.integers(-4, 7, size=(m, n)).astype(float)
            bounds = [(0.0, 3.0)] * n
            # RHS keeps a nonempty integer region around the origin.
            b = (np.maximum(A, 0.0).sum(axis=1) * rng.uniform(0.3, 0.9))
            c = -rng.integers(1, 9, size=n).astype(float)
            cuts, result = _root_cuts(c, A, b, bounds, list(range(n)))
            if not cuts:
                continue
            checked += 1
            for pt in _integer_points(bounds):
                x = np.array(pt, dtype=float)
                if np.any(A @ x > b + 1e-9):
                    continue
                for cut in cuts:
                    assert float(cut.coeffs @ x) <= cut.rhs + 1e-7
        assert checked >= 5  # the sweep must actually exercise cuts

    def test_mixed_integer_instance(self):
        # One integer, one continuous column: the continuous coefficient
        # path (gamma from atil, not fractionality) must stay valid.
        bounds = [(0.0, 5.0), (0.0, 5.0)]
        cuts, result = _root_cuts(
            [-2.0, -1.0], [[4.0, 3.0]], [10.0], bounds, [0]
        )
        if not cuts:
            pytest.skip("no fractional basic integer at this optimum")
        for xi in range(6):
            for yc in np.linspace(0.0, 5.0, 21):
                if 4 * xi + 3 * yc > 10 + 1e-9:
                    continue
                x = np.array([float(xi), float(yc)])
                for cut in cuts:
                    assert float(cut.coeffs @ x) <= cut.rhs + 1e-7


def _relu_setup():
    """Columns: x0 (input), a (post-activation), d (phase binary);
    z = x0 with encoding box [-2, 2], current box [-1, 1]."""
    neuron = ReluNeuron(
        layer=0, index=0, a_col=1, d_col=2,
        pre_coeffs={0: 1.0}, pre_const=0.0, lower=-2.0, upper=2.0,
    )
    lower = np.array([-1.0, 0.0, 0.0])
    upper = np.array([1.0, 2.0, 1.0])
    return neuron, lower, upper


class TestReluCuts:
    def test_triangle_fires_when_bounds_tightened(self):
        neuron, lower, upper = _relu_setup()
        # LP point violating the tightened triangle a <= (z + 1) / 2.
        x = np.array([0.0, 1.0, 0.5])
        cuts = separate_relu([neuron], x, lower, upper)
        assert any(c.kind == "relu_triangle" for c in cuts)

    def test_cuts_valid_on_relu_graph(self):
        neuron, lower, upper = _relu_setup()
        x = np.array([0.0, 1.0, 0.5])
        cuts = separate_relu([neuron], x, lower, upper)
        assert cuts
        for z in np.linspace(-1.0, 1.0, 41):
            a = max(z, 0.0)
            for d in ((1.0,) if z > 0 else (0.0,) if z < 0 else (0.0, 1.0)):
                pt = np.array([z, a, d])
                for cut in cuts:
                    assert float(cut.coeffs @ pt) <= cut.rhs + 1e-7

    def test_implied_at_encoding_bounds(self):
        # With the *encoding* box the triangle is implied by big-M: no
        # violated cut may be reported at a big-M-feasible point.
        neuron, _, _ = _relu_setup()
        lower = np.array([-2.0, 0.0, 0.0])
        upper = np.array([2.0, 2.0, 1.0])
        z, d = 0.0, 0.5
        a = min(z - (-2.0) * (1 - d), 2.0 * d)  # on the big-M boundary
        cuts = separate_relu(
            [neuron], np.array([z, a, d]), lower, upper
        )
        assert cuts == []

    def test_fixed_phase_yields_bound_facets(self):
        neuron, lower, upper = _relu_setup()
        off_upper = upper.copy()
        off_upper[2] = 0.0  # d fixed to 0 -> a <= 0
        cuts = separate_relu(
            [neuron], np.array([0.5, 0.4, 0.0]), lower, off_upper
        )
        assert any(c.kind == "relu_bound" for c in cuts)
        on_lower = lower.copy()
        on_lower[2] = 1.0  # d fixed to 1 -> a <= z
        cuts = separate_relu(
            [neuron], np.array([0.2, 0.8, 1.0]), on_lower, upper
        )
        assert any(c.kind == "relu_bound" for c in cuts)


class TestCutPool:
    def _cut(self, coeffs, rhs, score=1.0):
        coeffs = np.asarray(coeffs, dtype=float)
        from repro.milp.cuts import _cut_key

        return Cut(coeffs, rhs, "gomory", _cut_key(coeffs, rhs),
                   score=score)

    def test_duplicate_rejected(self):
        pool = CutPool()
        assert pool.offer(self._cut([1.0, 2.0], 3.0))
        assert not pool.offer(self._cut([1.0, 2.0], 3.0))
        # Same ray, scaled: quantisation catches it too.
        assert not pool.offer(self._cut([2.0, 4.0], 6.0))
        assert len(pool) == 1

    def test_select_orders_by_violation(self):
        pool = CutPool()
        weak = self._cut([1.0, 0.0], 0.5)
        strong = self._cut([0.0, 1.0], 0.1)
        pool.offer(weak)
        pool.offer(strong)
        x = np.ones(2)
        chosen = pool.select(x, limit=2)
        assert [c.rhs for c in chosen] == [0.1, 0.5]
        chosen_one = pool.select(x, limit=1)
        assert chosen_one == [strong]

    def test_active_cuts_not_reselected(self):
        pool = CutPool()
        cut = self._cut([1.0], 0.0)
        pool.offer(cut)
        pool.activate([cut])
        assert pool.select(np.array([1.0]), limit=5) == []

    def test_aging_and_eviction(self):
        pool = CutPool(age_limit=2)
        cut = self._cut([1.0], 0.0)
        pool.offer(cut)
        pool.activate([cut])
        tight = np.array([0.0])
        slack = np.array([-5.0])
        pool.age_active(slack)
        pool.age_active(tight)  # binding again: age resets
        assert cut.age == 0
        pool.age_active(slack)
        pool.age_active(slack)
        evicted = pool.evict_stale()
        assert evicted == [cut]
        assert pool.active == []
        assert not cut.active
        # ... but the dedup index remembers the inequality.
        assert not pool.offer(self._cut([1.0], 0.0))

    def test_overflow_drops_worst_inactive(self):
        pool = CutPool(max_size=2)
        low = self._cut([1.0, 0.0], 1.0, score=0.1)
        high = self._cut([0.0, 1.0], 1.0, score=0.9)
        pool.offer(low)
        pool.offer(high)
        third = self._cut([1.0, 1.0], 1.0, score=0.5)
        assert pool.offer(third)
        assert low.key not in pool._by_key
        assert len(pool) == 2


class TestLPGrowth:
    def _lp(self):
        return rs.standardize(
            np.array([-1.0, -1.0]),
            np.array([[3.0, 5.0]]), np.array([13.0]),
            None, None, [(0.0, 4.0), (0.0, 4.0)],
        )

    def test_append_rows_layout(self):
        lp = self._lp()
        grown = rs.append_rows(
            lp, np.array([[1.0, 1.0]]), np.array([3.0])
        )
        assert grown.num_cols == lp.num_cols + 2
        assert grown.A.shape[0] == lp.A.shape[0] + 1
        # Old columns unchanged, new slack/artificial at the end.
        np.testing.assert_array_equal(
            grown.A[: lp.A.shape[0], : lp.num_cols], lp.A
        )
        assert grown.row_slack[-1] == lp.num_cols
        assert grown.art_cols[-1] == grown.num_cols - 1

    def test_extend_basis_reoptimizes_to_grown_optimum(self):
        lp = self._lp()
        base = rs.cold_solve(lp)
        assert base.status is SolveStatus.OPTIMAL
        rows = np.array([[1.0, 1.0]])
        rhs = np.array([3.0])
        grown = rs.append_rows(lp, rows, rhs)
        ext = rs.extend_basis(base.basis, grown)
        warm = rs.reoptimize(grown, ext)
        cold = rs.cold_solve(grown)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert float(rows[0] @ warm.x[:2]) <= rhs[0] + 1e-8

    def test_extend_basis_rejects_wider_basis(self):
        lp = self._lp()
        base = rs.cold_solve(lp)
        grown = rs.append_rows(
            lp, np.array([[1.0, 1.0]]), np.array([3.0])
        )
        ext = rs.extend_basis(base.basis, grown)
        with pytest.raises(rs.NumericalTrouble):
            rs.extend_basis(ext, lp)  # narrower LP than the basis

    def test_model_add_cut_rows_extends_dense_cache(self):
        model = knapsack([3.0, 5.0], [2.0, 4.0], 5.0)
        c, A0, b0, _, _, _ = model.dense_arrays()
        model.add_cut_rows(
            np.array([[1.0, 1.0]]), np.array([1.0])
        )
        _, A1, b1, _, _, _ = model.dense_arrays()
        assert A1.shape[0] == A0.shape[0] + 1
        assert b1[-1] == 1.0
        # The superseded arrays were not mutated.
        assert A0.shape[0] == 1
        # And the cache matches a from-scratch densification.
        model._dense_cache = None
        _, A2, b2, _, _, _ = model.dense_arrays()
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)

    def test_cut_rows_checked_by_is_feasible(self):
        model = knapsack([3.0, 5.0], [2.0, 4.0], 10.0)
        model.add_cut_rows(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert model.is_feasible([1.0, 0.0])
        assert not model.is_feasible([1.0, 1.0])


def _rng_knapsack(seed, n=12):
    rng = np.random.default_rng(seed)
    vals = rng.integers(5, 40, n).astype(float)
    wts = rng.integers(3, 30, n).astype(float)
    return knapsack(vals, wts, float(wts.sum() * 0.4))


def _cuts_forced():
    """Cuts on with the adaptive size threshold disabled — the
    integration tests exercise the cut machinery itself on models small
    enough that the default threshold would (correctly) skip it."""
    return MILPOptions(lp_backend="revised", cuts=True, cut_min_binaries=0)


class TestSearchIntegration:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_cuts_preserve_optimum(self, seed):
        off = solve_milp(
            _rng_knapsack(seed),
            MILPOptions(lp_backend="revised", cuts=False),
        )
        on = solve_milp(_rng_knapsack(seed), _cuts_forced())
        assert off.status is SolveStatus.OPTIMAL
        assert on.status is SolveStatus.OPTIMAL
        # Cut rows carry a 1e-9-scaled rhs safety relaxation, so the
        # node-LP objective may drift relative to the objective scale.
        assert on.objective == pytest.approx(
            off.objective, rel=1e-7, abs=1e-6
        )

    def test_cut_telemetry_reported(self):
        result = solve_milp(_rng_knapsack(7), _cuts_forced())
        assert result.cuts_added > 0
        assert result.cut_rounds > 0
        assert result.gomory_cuts + result.relu_cuts == result.cuts_added
        assert result.cut_separation_time >= 0.0

    def test_incumbent_satisfies_model_with_cuts(self):
        model = _rng_knapsack(3)
        result = solve_milp(model, _cuts_forced())
        assert result.status is SolveStatus.OPTIMAL
        assert model.is_feasible(result.x)

    def test_cuts_default_on_for_revised_backend(self):
        result = solve_milp(
            _rng_knapsack(7),
            MILPOptions(lp_backend="revised", cut_min_binaries=0),
        )
        assert result.cuts_added > 0

    def test_cuts_require_tableau_backend(self):
        with pytest.raises(ValueError, match="cuts"):
            solve_milp(
                _rng_knapsack(0),
                MILPOptions(lp_backend="highs", cuts=True),
            )

    def test_highs_backend_defaults_to_no_cuts(self):
        result = solve_milp(
            _rng_knapsack(0), MILPOptions(lp_backend="highs")
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.cuts_added == 0

    def test_rejected_basis_falls_back_to_cold_identical_optimum(
        self, monkeypatch
    ):
        """Satellite regression: when every post-cut basis extension is
        rejected, the search must cold-solve and land on the same
        optimum (never error out, never drift)."""
        reference = solve_milp(
            _rng_knapsack(5),
            MILPOptions(lp_backend="revised", cuts=False),
        )

        def always_reject(basis, lp):
            raise rs.NumericalTrouble("forced rejection")

        monkeypatch.setattr(rs, "extend_basis", always_reject)
        result = solve_milp(_rng_knapsack(5), _cuts_forced())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(
            reference.objective, abs=1e-6
        )

    def test_cut_events_traced(self):
        from repro.obs import RingBufferSink, Tracer

        sink = RingBufferSink()
        tracer = Tracer([sink])
        result = solve_milp(_rng_knapsack(7), _cuts_forced(), tracer=tracer)
        tracer.close()
        assert result.cuts_added > 0
        events = [
            r for r in sink.records
            if r.get("type") == "event" and r.get("name") == "cut"
        ]
        assert events
        added = sum(e["attrs"]["added"] for e in events)
        assert added == result.cuts_added
        assert all("sep_time" in e["attrs"] for e in events)
        assert all("round" in e["attrs"] for e in events)


class TestAdaptiveActivation:
    def test_small_model_skips_separation(self):
        # 12 binaries < default threshold (16): cuts requested but the
        # adaptive gate skips separation and reports the skip.
        result = solve_milp(
            _rng_knapsack(7),
            MILPOptions(lp_backend="revised", cuts=True),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.cuts_added == 0
        assert result.cut_rounds == 0
        assert result.cuts_skipped_adaptive == 1

    def test_threshold_zero_disables_skip(self):
        result = solve_milp(_rng_knapsack(7), _cuts_forced())
        assert result.cuts_added > 0
        assert result.cuts_skipped_adaptive == 0

    def test_model_above_threshold_separates(self):
        result = solve_milp(
            _rng_knapsack(7, n=20),
            MILPOptions(lp_backend="revised", cuts=True),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.cuts_skipped_adaptive == 0
        assert result.cuts_added > 0

    def test_skip_preserves_optimum(self):
        skipped = solve_milp(
            _rng_knapsack(13),
            MILPOptions(lp_backend="revised", cuts=True),
        )
        forced = solve_milp(_rng_knapsack(13), _cuts_forced())
        assert skipped.status is SolveStatus.OPTIMAL
        assert skipped.objective == pytest.approx(
            forced.objective, rel=1e-7, abs=1e-6
        )

    def test_cuts_off_never_counts_a_skip(self):
        result = solve_milp(
            _rng_knapsack(7),
            MILPOptions(lp_backend="revised", cuts=False),
        )
        assert result.cuts_skipped_adaptive == 0


class TestVerifierIntegration:
    @pytest.fixture(scope="class")
    def network(self):
        from repro.nn import FeedForwardNetwork

        return FeedForwardNetwork.mlp(
            3, [5, 4], 2, rng=np.random.default_rng(2)
        )

    def _verify(self, network, **milp_kw):
        from repro.core.encoder import EncoderOptions
        from repro.core.properties import InputRegion, OutputObjective
        from repro.core.verifier import Verifier

        region = InputRegion(np.array([[-1.0, 1.0]] * 3))
        verifier = Verifier(
            network,
            EncoderOptions(bound_mode="interval"),
            MILPOptions(
                time_limit=60.0, lp_backend="revised", **milp_kw
            ),
        )
        return verifier.maximize(region, OutputObjective.single(0))

    def test_cuts_preserve_verification_optimum(self, network):
        off = self._verify(network, cuts=False)
        on = self._verify(network, cuts=True, cut_min_binaries=0)
        assert on.value == pytest.approx(off.value, abs=1e-6)
        assert on.verdict is off.verdict

    def test_relu_metadata_reaches_solver(self, network):
        from repro.core.encoder import EncoderOptions, encode_network
        from repro.core.properties import InputRegion

        region = InputRegion(np.array([[-1.0, 1.0]] * 3))
        encoded = encode_network(
            network, region, EncoderOptions(bound_mode="interval")
        )
        assert encoded.neurons
        assert len(encoded.neurons) == len(encoded.binaries)
        for neuron in encoded.neurons:
            assert neuron.lower < 0.0 < neuron.upper
            assert neuron.a_col != neuron.d_col


class TestCampaignWithCuts:
    def test_parallel_campaign_reproduces_serial_bit_for_bit(self):
        """Satellite regression: jobs=N campaigns with cuts enabled must
        reproduce the serial verdicts and values exactly."""
        from repro.core.campaign import VerificationCampaign
        from repro.core.encoder import EncoderOptions
        from repro.core.properties import InputRegion, OutputObjective
        from repro.nn import FeedForwardNetwork

        def build():
            campaign = VerificationCampaign(
                EncoderOptions(bound_mode="interval"),
                MILPOptions(
                    time_limit=60.0, lp_backend="revised", cuts=True,
                    cut_min_binaries=0,
                ),
            )
            region = InputRegion(np.array([[-1.0, 1.0]] * 3))
            for seed in (0, 1):
                campaign.add_network(
                    FeedForwardNetwork.mlp(
                        3, [4 + seed], 2,
                        rng=np.random.default_rng(seed),
                    )
                )
            for k in range(2):
                campaign.add_max_query(
                    f"q{k}", region, OutputObjective.single(k)
                )
            return campaign

        serial = build().run(jobs=None)
        parallel = build().run(jobs=2)
        assert len(serial.cells) == len(parallel.cells) == 4
        for cell in serial.cells:
            twin = parallel.cell(cell.network_id, cell.property_name)
            assert twin.result.verdict is cell.result.verdict
            assert twin.result.value == cell.result.value  # bit-for-bit
            assert twin.result.nodes == cell.result.nodes
            assert twin.result.cuts_added == cell.result.cuts_added
