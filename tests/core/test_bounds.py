"""Bound-propagation soundness and tightness tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounds as bounds_mod
from repro.core.bounds import (
    interval_bounds,
    lp_tightened_bounds,
    total_ambiguous,
)
from repro.core.properties import InputRegion
from repro.errors import EncodingError
from repro.milp.solution import LPResult
from repro.milp.status import SolveStatus
from repro.nn import FeedForwardNetwork

from ..oracles import revised_simplex
from ..oracles.triangle_rows import triangle_rows


def unit_region(dim):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


class TestIntervalBounds:
    def test_dimensions_match_layers(self, tiny_net):
        bounds = interval_bounds(tiny_net, unit_region(6))
        assert len(bounds) == 3
        assert bounds[0].lower.shape == (8,)
        assert bounds[2].lower.shape == (3,)

    def test_region_dim_mismatch(self, tiny_net):
        with pytest.raises(EncodingError):
            interval_bounds(tiny_net, unit_region(5))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_soundness_random_nets(self, seed):
        """Every reachable pre-activation must lie inside its bounds."""
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=rng)
        region = unit_region(4)
        bounds = interval_bounds(net, region)
        xs = rng.uniform(-1, 1, size=(200, 4))
        pres = net.pre_activations(xs)
        for layer_bounds, pre in zip(bounds, pres):
            assert np.all(pre >= layer_bounds.lower - 1e-9)
            assert np.all(pre <= layer_bounds.upper + 1e-9)

    def test_point_region_gives_point_bounds(self, tiny_net, rng):
        x = rng.uniform(-1, 1, size=6)
        region = InputRegion(np.stack([x, x], axis=1))
        bounds = interval_bounds(tiny_net, region)
        pres = tiny_net.pre_activations(x)
        for lb, pre in zip(bounds, pres):
            assert np.allclose(lb.lower, pre[0], atol=1e-9)
            assert np.allclose(lb.upper, pre[0], atol=1e-9)

    def test_stability_masks_partition(self, tiny_net):
        bounds = interval_bounds(tiny_net, unit_region(6))
        for lb in bounds:
            combined = (
                lb.stable_active.astype(int)
                + lb.stable_inactive.astype(int)
                + lb.ambiguous.astype(int)
            )
            assert np.all(combined == 1)

    def test_tanh_supported(self, rng):
        net = FeedForwardNetwork.mlp(
            3, [4], 1, hidden_activation="tanh", rng=rng
        )
        bounds = interval_bounds(net, unit_region(3))
        assert len(bounds) == 2


class TestLPTightenedBounds:
    def test_tighter_than_interval(self, tiny_net):
        region = unit_region(6)
        loose = interval_bounds(tiny_net, region)
        tight = lp_tightened_bounds(tiny_net, region)
        for lo, hi in zip(loose, tight):
            assert np.all(hi.lower >= lo.lower - 1e-6)
            assert np.all(hi.upper <= lo.upper + 1e-6)
        # Deep layers must improve strictly for a generic net.
        assert np.sum(tight[1].upper) < np.sum(loose[1].upper)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_soundness_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(3, [5, 5], 2, rng=rng)
        region = unit_region(3)
        bounds = lp_tightened_bounds(net, region)
        xs = rng.uniform(-1, 1, size=(300, 3))
        pres = net.pre_activations(xs)
        for layer_bounds, pre in zip(bounds, pres):
            assert np.all(pre >= layer_bounds.lower - 1e-6)
            assert np.all(pre <= layer_bounds.upper + 1e-6)

    def test_respects_linear_region_constraints(self, rng):
        from repro.core.properties import LinearInputConstraint
        from repro.highway import FeatureEncoder, Road

        # Constraint x0 + x1 <= 0 halves the reachable pre-activations of
        # a first-layer neuron with weights (1, 1).
        from repro.nn import DenseLayer

        net = FeedForwardNetwork(
            [
                DenseLayer(
                    np.array([[1.0], [1.0]]), np.zeros(1), "relu"
                ),
                DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),
            ]
        )
        region = InputRegion(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        # note: generic regions use column names only for the 84-dim
        # encoder; here we inject the indexed constraint directly.
        constraint = LinearInputConstraint({}, rhs=0.0)
        constraint.as_indexed = lambda: ({0: 1.0, 1: 1.0}, 0.0)
        region.add_constraint(constraint)
        tight = lp_tightened_bounds(net, region)
        assert tight[0].upper[0] == pytest.approx(0.0, abs=1e-6)

    def test_ambiguity_reduction_counted(self, rng):
        net = FeedForwardNetwork.mlp(4, [10, 10], 2, rng=rng)
        region = unit_region(4)
        loose = total_ambiguous(interval_bounds(net, region), net)
        tight = total_ambiguous(lp_tightened_bounds(net, region), net)
        assert tight <= loose

    def test_tanh_rejected(self, rng):
        net = FeedForwardNetwork.mlp(
            3, [4], 1, hidden_activation="tanh", rng=rng
        )
        with pytest.raises(EncodingError):
            lp_tightened_bounds(net, unit_region(3))

    def test_seed_bounds_left_unchanged(self, rng):
        """Regression: tightened layers used to be written into the
        caller's seed list."""
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=rng)
        region = unit_region(4)
        seed = interval_bounds(net, region)
        slots = list(seed)
        copies = [(s.lower.copy(), s.upper.copy()) for s in seed]
        tight = lp_tightened_bounds(net, region, seed_bounds=seed)
        assert np.sum(tight[1].upper) < np.sum(seed[1].upper)
        for layer, slot, (lower, upper) in zip(seed, slots, copies):
            assert layer is slot
            np.testing.assert_array_equal(layer.lower, lower)
            np.testing.assert_array_equal(layer.upper, upper)


class _ColdRevisedSession:
    """Stand-in for ``HighsSession``: every probe is a cold, from-scratch
    revised-simplex solve of the LP grown so far (so the choice of
    simplex, ``primal``, does not apply)."""

    def __init__(self, c, A_ub=None, b_ub=None, bounds=None, primal=False):
        self.num_vars = len(c)
        self.A_ub = np.zeros((0, self.num_vars)) if A_ub is None else A_ub
        self.b_ub = np.zeros(0) if b_ub is None else b_ub
        self.bounds = [tuple(b) for b in bounds]

    def extend(self, col_bounds, rows, rhs):
        added = len(col_bounds)
        self.num_vars += added
        self.bounds += [tuple(b) for b in col_bounds]
        self.A_ub = np.vstack([np.pad(self.A_ub, ((0, 0), (0, added))), rows])
        self.b_ub = np.concatenate([self.b_ub, rhs])

    def solve(self, c=None, lb=None, ub=None):
        return revised_simplex.solve_lp(
            c, self.A_ub, self.b_ub, bounds=self.bounds
        )


class _CountingSession(bounds_mod.HighsSession):
    """A real session that counts sessions built and probes solved."""

    built = 0
    probes = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CountingSession.built += 1

    def solve(self, c=None, lb=None, ub=None):
        _CountingSession.probes += 1
        return super().solve(c=c, lb=lb, ub=ub)


@pytest.fixture
def counting_session(monkeypatch):
    monkeypatch.setattr(_CountingSession, "built", 0)
    monkeypatch.setattr(_CountingSession, "probes", 0)
    monkeypatch.setattr(bounds_mod, "HighsSession", _CountingSession)
    return _CountingSession


def _with_random_constraints(region, rng, count=2):
    """Add ``count`` linear input constraints ``a @ x <= rhs`` that keep
    the box centre feasible."""
    from repro.core.properties import LinearInputConstraint

    for _ in range(count):
        coeffs = rng.normal(size=region.dim)
        rhs = float(rng.uniform(0.1, 0.5))
        constraint = LinearInputConstraint({}, rhs=rhs)
        constraint.as_indexed = (
            lambda a=coeffs, r=rhs: ({i: float(v) for i, v in enumerate(a)}, r)
        )
        region.add_constraint(constraint)
    return region


class TestSessionTightening:
    """The warm network-wide HiGHS session must give exactly the bounds
    of independent per-neuron cold solves, and never tighten on a
    non-optimal answer."""

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_cold_revised_probes(self, seed, constrained, monkeypatch):
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=rng)
        region = unit_region(4)
        if constrained:
            _with_random_constraints(region, rng)
        warm = lp_tightened_bounds(net, region)
        monkeypatch.setattr(bounds_mod, "HighsSession", _ColdRevisedSession)
        cold = lp_tightened_bounds(net, region)
        for w, c in zip(warm, cold):
            np.testing.assert_allclose(w.lower, c.lower, rtol=0, atol=1e-9)
            np.testing.assert_allclose(w.upper, c.upper, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_box_layer0_equals_cold_probes(self, seed):
        """On a box-only region layer 0 takes the interval image, which
        is exactly what per-neuron LPs over the box find."""
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=rng)
        region = InputRegion(np.sort(rng.uniform(-2, 2, (4, 2)), axis=1))
        layer = net.layers[0]
        tight = lp_tightened_bounds(net, region)[0]
        for j in range(layer.fan_out):
            c = layer.weights[:, j]
            lo = revised_simplex.solve_lp(c, bounds=region.bounds)
            hi = revised_simplex.solve_lp(-c, bounds=region.bounds)
            assert lo.status is hi.status is SolveStatus.OPTIMAL
            assert tight.lower[j] == pytest.approx(
                lo.objective + layer.bias[j], abs=1e-9
            )
            assert tight.upper[j] == pytest.approx(
                -hi.objective + layer.bias[j], abs=1e-9
            )

    @pytest.mark.parametrize("constrained", [False, True])
    def test_layer0_probes_only_on_constrained_regions(
        self, constrained, counting_session
    ):
        net = FeedForwardNetwork.mlp(4, [5, 3], 2, rng=np.random.default_rng(1))
        region = unit_region(4)
        if constrained:
            _with_random_constraints(region, np.random.default_rng(1))
        lp_tightened_bounds(net, region)
        # Two probes per neuron of every LP-bounded hidden layer; the
        # output layer is never probed.
        assert counting_session.probes == 2 * (5 * constrained + 3)
        assert counting_session.built == 1

    def test_milp_suite_query_builds_one_session(self, counting_session):
        """A 2-(6,6)-1 net on a box, as the perfbench ``milp`` suite
        proves: 12 bound LPs (layer 1 only), one model for the whole
        network."""
        from repro.core.encoder import EncoderOptions, compute_bounds

        net = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng([20180701, 0])
        )
        region = InputRegion(np.array([[-1.0, 1.0]] * 2))
        compute_bounds(net, region, EncoderOptions(bound_mode="lp"))
        assert counting_session.probes == 12
        assert counting_session.built == 1

    @staticmethod
    def _failing_session(net, status, fail_max):
        """A real session whose min probes (and, with ``fail_max``, max
        probes) of ``net`` report ``status`` instead of their optimum.
        The failed result still carries a slightly-too-good objective,
        so a caller that read it without checking the status would
        tighten."""
        # A min probe's objective is a hidden neuron's weight column
        # over the layer's input columns; a max probe's is its negation.
        minimised = [
            column
            for layer in net.layers[:-1]
            for column in layer.weights.T
        ]

        class Failing(bounds_mod.HighsSession):
            calls = 0

            def solve(self, c=None, lb=None, ub=None):
                result = super().solve(c=c, lb=lb, ub=ub)
                Failing.calls += 1
                is_min = any(
                    np.array_equal(c[len(c) - len(w):], w)
                    for w in minimised
                )
                if not (is_min or fail_max):
                    return result
                return LPResult(status, objective=result.objective + 1e-3)

        return Failing

    @pytest.mark.parametrize(
        "status", [SolveStatus.ERROR, SolveStatus.INFEASIBLE,
                   SolveStatus.UNBOUNDED],
    )
    def test_non_optimal_probes_keep_seed_bounds(self, status, monkeypatch):
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=np.random.default_rng(5))
        region = unit_region(4)
        seed = interval_bounds(net, region)
        failing = self._failing_session(net, status, fail_max=True)
        monkeypatch.setattr(bounds_mod, "HighsSession", failing)
        tight = lp_tightened_bounds(net, region)
        assert failing.calls > 0
        for t, s in zip(tight, seed):
            np.testing.assert_array_equal(t.lower, s.lower)
            np.testing.assert_array_equal(t.upper, s.upper)

    def test_failed_min_probes_still_tighten_upper(self, monkeypatch):
        """Only the failed side keeps its seed; the hidden lower bounds
        move by at most rounding, through the interval refresh."""
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=np.random.default_rng(5))
        region = unit_region(4)
        seed = interval_bounds(net, region)
        monkeypatch.setattr(
            bounds_mod, "HighsSession",
            self._failing_session(net, SolveStatus.ERROR, fail_max=False),
        )
        tight = lp_tightened_bounds(net, region)
        for li in (0, 1):
            np.testing.assert_allclose(
                tight[li].lower, seed[li].lower, rtol=0, atol=1e-12
            )
            assert np.all(tight[li].upper <= seed[li].upper)
        assert np.any(tight[1].upper < seed[1].upper - 1e-9)


def _cold_probe_bounds(net, region, tight):
    """Each hidden neuron's LP bounds from its own cold solve.

    Layer ``li``'s LP is built from scratch: the region's box and rows,
    then every earlier layer's triangle rows
    (:func:`tests.oracles.triangle_rows.triangle_rows`) over the bounds
    ``tight`` gives that layer, with post-activation boxes
    ``[max(l, 0), max(u, 0)]``.
    """
    indexed = [c.as_indexed() for c in region.constraints]
    rows = [np.array([
        [coeffs.get(i, 0.0) for i in range(region.dim)]
        for coeffs, _ in indexed
    ]).reshape(-1, region.dim)]
    rhs = [np.array([r for _, r in indexed])]
    box = [tuple(b) for b in region.bounds]
    result = []
    for li, layer in enumerate(net.layers[:-1]):
        width = len(box)
        lower, upper = np.empty(layer.fan_out), np.empty(layer.fan_out)
        A_ub = np.vstack([np.pad(r, ((0, 0), (0, width - r.shape[1])))
                          for r in rows])
        b_ub = np.concatenate(rhs)
        for j in range(layer.fan_out):
            c = np.zeros(width)
            c[width - layer.fan_in:] = layer.weights[:, j]
            lo = revised_simplex.solve_lp(c, A_ub, b_ub, bounds=box)
            hi = revised_simplex.solve_lp(-c, A_ub, b_ub, bounds=box)
            assert lo.status is hi.status is SolveStatus.OPTIMAL
            lower[j] = lo.objective + layer.bias[j]
            upper[j] = -hi.objective + layer.bias[j]
        result.append((lower, upper))
        t = tight[li]
        box += list(zip(np.maximum(t.lower, 0.0), np.maximum(t.upper, 0.0)))
        layer_rows, layer_rhs = triangle_rows(
            layer, t.lower, t.upper, width + layer.fan_out
        )
        rows.append(layer_rows)
        rhs.append(layer_rhs)
    return result


class TestHiddenLayersOnly:
    """LP tightening probes hidden layers only, in warm-start order, and
    every hidden bound is what independent cold probes find."""

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_hidden_bounds_match_independent_cold_probes(
        self, seed, constrained
    ):
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(3, [5, 5, 4], 2, rng=rng)
        region = unit_region(3)
        if constrained:
            _with_random_constraints(region, rng)
        tight = lp_tightened_bounds(net, region)
        seed_bounds = interval_bounds(net, region)
        cold = _cold_probe_bounds(net, region, tight)
        for t, s, (lower, upper) in zip(tight, seed_bounds, cold):
            np.testing.assert_allclose(
                t.lower, np.maximum(s.lower, lower), rtol=0, atol=1e-9
            )
            np.testing.assert_allclose(
                t.upper, np.minimum(s.upper, upper), rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("constrained", [False, True])
    def test_output_bounds_are_seed_and_interval_step(self, constrained):
        rng = np.random.default_rng(7)
        net = FeedForwardNetwork.mlp(3, [5, 5, 4], 2, rng=rng)
        region = unit_region(3)
        if constrained:
            _with_random_constraints(region, rng)
        seed = interval_bounds(net, region)
        tight = lp_tightened_bounds(net, region, seed_bounds=seed)
        last, out = tight[-2], net.layers[-1]
        step_lo, step_hi = bounds_mod._interval_affine(
            np.maximum(last.lower, 0.0), np.maximum(last.upper, 0.0),
            out.weights, out.bias,
        )
        np.testing.assert_array_equal(
            tight[-1].lower, np.maximum(seed[-1].lower, step_lo)
        )
        np.testing.assert_array_equal(
            tight[-1].upper, np.minimum(seed[-1].upper, step_hi)
        )

    def test_output_bounds_do_not_reach_the_encoding(self):
        from repro.core.bounds import LayerBounds
        from repro.core.encoder import encode_network

        net = FeedForwardNetwork.mlp(
            3, [5, 5], 2, rng=np.random.default_rng(3)
        )
        region = unit_region(3)
        tight = lp_tightened_bounds(net, region)
        wide = tight[:-1] + [LayerBounds(
            tight[-1].lower - 100.0, tight[-1].upper + 100.0
        )]
        models = [
            encode_network(net, region, precomputed_bounds=b).model
            for b in (tight, wide)
        ]
        for x, y in zip(*(m.dense_arrays() for m in models)):
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(x, y)
            else:
                assert x == y

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_rows_match_select_reference(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(4, [9], 1, rng=rng)
        layer = net.layers[0]
        # Mix stable active, stable inactive and ambiguous neurons.
        lower = rng.uniform(-2.0, 1.0, 9)
        upper = lower + rng.uniform(0.0, 2.0, 9)
        lower[:2], upper[:2] = (0.0, 0.5), (0.0, 1.5)
        upper[2] = 0.0
        for width in (13, 20):
            got = bounds_mod._triangle_rows(layer, lower, upper, width)
            want = triangle_rows(layer, lower, upper, width)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))

    def test_probe_order_follows_the_closest_direction(self):
        objectives = np.array([
            [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
            [1.0, 0.1], [0.0, 0.0],
        ])
        # From +e0 to its near twin, on to +e1 (closer than -e1), then
        # ties at cosine 0 go to the first row; the zero row comes last.
        np.testing.assert_array_equal(
            bounds_mod._probe_order(objectives), [0, 4, 2, 1, 3, 5]
        )
        np.testing.assert_array_equal(
            bounds_mod._probe_order(np.zeros((3, 2))), [0, 1, 2]
        )

    def test_span_carries_probe_counts(self):
        from repro.obs.trace import Tracer

        net = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng([20180701, 0])
        )
        region = InputRegion(np.array([[-1.0, 1.0]] * 2))
        tracer = Tracer()
        with tracer.span("bounds") as span:
            lp_tightened_bounds(net, region, span=span)
        assert span.attrs["probes"] == 12
        assert span.attrs["lp_iterations"] > 0
        assert span.attrs["lp_seconds"] > 0.0


class TestBoundsCache:
    def test_equal_but_distinct_regions_share_entry(self, tiny_net):
        from repro.core.bounds import BoundsCache

        cache = BoundsCache()
        first = cache.get(tiny_net, unit_region(6), "interval")
        second = cache.get(tiny_net, unit_region(6), "interval")
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        # One computation, shared content: the hit hands back the very
        # same (read-only) arrays inside a fresh, caller-owned list.
        assert second is not first
        for a, b in zip(first, second):
            assert b.lower is a.lower and b.upper is a.upper

    def test_cached_arrays_are_read_only(self, tiny_net):
        from repro.core.bounds import BoundsCache

        cache = BoundsCache()
        bounds = cache.get(tiny_net, unit_region(6), "interval")
        with pytest.raises(ValueError):
            bounds[0].lower[0] = -999.0
        with pytest.raises(ValueError):
            bounds[-1].upper += 1.0

    def test_caller_list_mutation_cannot_corrupt_the_entry(self, tiny_net):
        """Regression: lookups used to share one list object, so a
        caller replacing a slot poisoned every later cell."""
        from repro.core.bounds import BoundsCache, LayerBounds

        cache = BoundsCache()
        first = cache.get(tiny_net, unit_region(6), "interval")
        pristine = first[0].lower.copy()
        first[0] = LayerBounds(
            np.full_like(pristine, -1e9),
            np.full_like(first[0].upper, 1e9),
        )
        second = cache.get(tiny_net, unit_region(6), "interval")
        np.testing.assert_array_equal(second[0].lower, pristine)

    def test_spill_reloads_across_instances(self, tiny_net, tmp_path):
        from repro.core.bounds import BoundsCache, bounds_cache_key

        path = str(tmp_path / "bounds.jsonl")
        cache = BoundsCache(spill_path=path)
        stored = cache.get(tiny_net, unit_region(6), "interval")
        reborn = BoundsCache(spill_path=path)
        assert len(reborn) == 1
        entry = reborn.peek(
            bounds_cache_key(tiny_net, unit_region(6), "interval")
        )
        assert entry is not None and entry[1] is None
        for fresh, orig in zip(entry[0], stored):
            np.testing.assert_array_equal(fresh.lower, orig.lower)
            np.testing.assert_array_equal(fresh.upper, orig.upper)
            assert not fresh.lower.flags.writeable

    def test_failures_spill_too(self, tiny_net, tmp_path):
        from repro.core.bounds import BoundsCache, bounds_cache_key

        path = str(tmp_path / "bounds.jsonl")
        cache = BoundsCache(spill_path=path)
        bad = unit_region(5)  # dim mismatch with the 6-input net
        with pytest.raises(EncodingError):
            cache.get(tiny_net, bad, "interval")
        reborn = BoundsCache(spill_path=path)
        entry = reborn.peek(bounds_cache_key(tiny_net, bad, "interval"))
        assert entry is not None
        bounds, error = entry
        assert bounds is None and "region dim" in error

    def test_different_geometry_misses(self, tiny_net):
        from repro.core.bounds import BoundsCache

        cache = BoundsCache()
        cache.get(tiny_net, unit_region(6), "interval")
        wider = InputRegion(np.array([[-2.0, 2.0]] * 6))
        cache.get(tiny_net, wider, "interval")
        assert cache.misses == 2 and cache.hits == 0

    def test_bound_mode_part_of_key(self, tiny_net):
        from repro.core.bounds import BoundsCache

        cache = BoundsCache()
        cache.get(tiny_net, unit_region(6), "interval")
        cache.get(tiny_net, unit_region(6), "lp")
        assert len(cache) == 2

    def test_network_weights_part_of_key(self):
        from repro.core.bounds import BoundsCache

        nets = [
            FeedForwardNetwork.mlp(4, [5], 2, rng=np.random.default_rng(s))
            for s in (0, 1)
        ]
        assert nets[0].fingerprint() != nets[1].fingerprint()
        cache = BoundsCache()
        for net in nets:
            cache.get(net, unit_region(4), "interval")
        assert len(cache) == 2

    def test_failure_cached_and_reraised(self, tiny_net):
        from repro.core.bounds import BoundsCache

        cache = BoundsCache()
        bad = unit_region(5)  # dim mismatch with the 6-input net
        with pytest.raises(EncodingError):
            cache.get(tiny_net, bad, "interval")
        with pytest.raises(EncodingError) as excinfo:
            cache.get(tiny_net, bad, "interval")
        assert cache.misses == 1 and cache.hits == 1
        assert "region dim" in str(excinfo.value)


class TestRegionFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert unit_region(4).fingerprint() == unit_region(4).fingerprint()

    def test_name_excluded(self):
        a = InputRegion(np.array([[-1.0, 1.0]] * 3), name="a")
        b = InputRegion(np.array([[-1.0, 1.0]] * 3), name="b")
        assert a.fingerprint() == b.fingerprint()

    def test_bounds_change_changes_fingerprint(self):
        a = unit_region(3)
        b = InputRegion(np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 0.5]]))
        assert a.fingerprint() != b.fingerprint()

    def test_constraints_change_fingerprint(self):
        from repro.core.properties import LinearInputConstraint

        a = unit_region(3)
        b = unit_region(3)
        constraint = LinearInputConstraint({}, rhs=0.5)
        constraint.as_indexed = lambda: ({0: 1.0}, 0.5)
        b.add_constraint(constraint)
        assert a.fingerprint() != b.fingerprint()


class TestRepairCrossedBounds:
    """Per-side recovery of numerically crossed LP-tightened bounds.

    Each tightened side comes from its own LP and is valid on its own;
    a crossing must keep the side that stayed inside the seed interval
    instead of reverting both tightenings (the historical behaviour).
    """

    def _repair(self, new_lo, new_hi, seed_lo, seed_hi):
        from repro.core.bounds import _repair_crossed_bounds

        new_lo = np.asarray(new_lo, dtype=float)
        new_hi = np.asarray(new_hi, dtype=float)
        _repair_crossed_bounds(
            new_lo, new_hi,
            np.asarray(seed_lo, dtype=float),
            np.asarray(seed_hi, dtype=float),
        )
        return new_lo, new_hi

    def test_escaped_lower_reverts_keeps_tightened_upper(self):
        # Lower bound blew past the seed interval; the upper tightening
        # (0.2, well inside [-1, 1]) must survive.
        lo, hi = self._repair([5.0], [0.2], [-1.0], [1.0])
        assert lo[0] == -1.0
        assert hi[0] == 0.2

    def test_escaped_upper_reverts_keeps_tightened_lower(self):
        lo, hi = self._repair([-0.3], [-7.0], [-1.0], [1.0])
        assert lo[0] == -0.3
        assert hi[0] == 1.0

    def test_tiny_mutual_crossing_collapses_to_midpoint(self):
        lo, hi = self._repair([0.5 + 4e-7], [0.5 - 4e-7], [-1.0], [1.0])
        assert lo[0] == hi[0] == pytest.approx(0.5, abs=1e-6)
        assert lo[0] <= hi[0]

    def test_large_in_range_crossing_reverts_both(self):
        # Both sides inside the seed interval but crossing by far more
        # than numerical noise: both LPs are suspect, revert both.
        lo, hi = self._repair([0.8], [-0.8], [-1.0], [1.0])
        assert lo[0] == -1.0
        assert hi[0] == 1.0

    def test_uncrossed_entries_untouched(self):
        lo, hi = self._repair(
            [-0.5, 5.0], [0.5, 0.2], [-1.0, -1.0], [1.0, 1.0]
        )
        assert lo[0] == -0.5 and hi[0] == 0.5
        assert lo[1] == -1.0 and hi[1] == 0.2

    def test_lp_tightening_never_crosses(self):
        """End-to-end: tightened layer bounds always satisfy lo <= hi."""
        rng = np.random.default_rng(3)
        net = FeedForwardNetwork.mlp(4, [6, 6], 2, rng=rng)
        bounds = lp_tightened_bounds(net, unit_region(4))
        for lb in bounds:
            assert np.all(lb.lower <= lb.upper)
