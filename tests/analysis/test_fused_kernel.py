"""The fused backward kernel, and bounding every box once.

The kernel bounds upper sides only and gets lower bounds from negated
rows, with every slope policy in one batch.  Here it is compared with a
naive reference written out per policy, per side and per row, and the
split and MILP paths are checked to run it exactly once per layer for
each box, or for each pair of sibling boxes.
"""

import numpy as np
import pytest

import repro.analysis.symbolic as symbolic
from repro.analysis.symbolic import (
    input_sensitivity,
    symbolic_bounds,
    symbolic_objective_bounds,
    symbolic_screen,
)
from repro.core.encoder import EncoderOptions
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork
from repro.nn.layers import DenseLayer

# -- a naive reference -------------------------------------------------------


def _slopes(lower, upper, policy):
    """Chord slope/intercept and lower-line slope of one neuron."""
    if lower >= 0.0:
        return 1.0, 0.0, 1.0
    if upper <= 0.0:
        return 0.0, 0.0, 0.0
    chord = upper / (upper - lower)
    alpha = {"area": float(upper >= -lower), "zero": 0.0, "one": 1.0}
    return chord, -chord * lower, alpha[policy]


def _concretize(coef, bias, lo, hi, side):
    """Max (side +1) or min (side -1) of ``coef @ v + bias`` on a box."""
    total = bias
    for c, l, h in zip(coef, lo, hi):
        total += c * (h if side * c >= 0.0 else l)
    return total


def _post_box(network, bounds, k):
    lo, hi = bounds[k]
    if network.layers[k].activation == "relu":
        return np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return lo, hi


def _naive_row(network, bounds, box, coef, bias, start, policy, side):
    """One row, one policy, one side: ``(bound, input coefficients)``."""
    coef = np.array(coef, dtype=float)
    best = _concretize(coef, bias, *_post_box(network, bounds, start), side)
    for k in range(start, -1, -1):
        layer = network.layers[k]
        if layer.activation == "relu":
            relaxed = np.zeros_like(coef)
            for i, c in enumerate(coef):
                chord, icept, alpha = _slopes(*(b[i] for b in bounds[k]),
                                              policy)
                if side * c > 0.0:
                    relaxed[i] = c * chord
                    bias += c * icept
                else:
                    relaxed[i] = c * alpha
            coef = relaxed
        bias += float(coef @ layer.bias)
        coef = layer.weights @ coef
        stop = _post_box(network, bounds, k - 1) if k > 0 else box
        value = _concretize(coef, bias, *stop, side)
        best = min(best, value) if side > 0 else max(best, value)
    return best, coef


def _naive_best(network, bounds, box, coef, bias, start):
    """Best bound over policies per side, and the area coefficients."""
    results = {
        (policy, side): _naive_row(
            network, bounds, box, coef, bias, start, policy, side
        )
        for policy in symbolic.POLICIES for side in (1, -1)
    }
    lo = max(results[p, -1][0] for p in symbolic.POLICIES)
    hi = min(results[p, 1][0] for p in symbolic.POLICIES)
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    area = np.maximum(
        np.abs(results["area", 1][1]), np.abs(results["area", -1][1])
    )
    return lo, hi, area


def naive_bounds(network, box):
    """Layer bounds, objective bounds on output 0 and its sensitivity."""
    lo_in, hi_in = box
    bounds = []
    for index, layer in enumerate(network.layers):
        if index == 0:
            mid = (lo_in + hi_in) / 2.0 @ layer.weights + layer.bias
            rad = (hi_in - lo_in) / 2.0 @ np.abs(layer.weights)
            bounds.append((mid - rad, mid + rad))
            continue
        rows = [
            _naive_best(network, bounds, box, layer.weights[:, j],
                        float(layer.bias[j]), index - 1)
            for j in range(layer.fan_out)
        ]
        bounds.append((np.array([r[0] for r in rows]),
                       np.array([r[1] for r in rows])))
    out = network.layers[-1]
    seed, seed_bias = out.weights[:, 0], float(out.bias[0])
    if len(network.layers) == 1:
        lo = _concretize(seed, seed_bias, lo_in, hi_in, -1)
        hi = _concretize(seed, seed_bias, lo_in, hi_in, 1)
        return bounds, (lo, hi), np.abs(seed)
    lo, hi, area = _naive_best(
        network, bounds, box, seed, seed_bias, len(network.layers) - 2
    )
    return bounds, (lo, hi), area


# -- networks ----------------------------------------------------------------


def _perfbench_shape(inputs, hidden):
    return FeedForwardNetwork.mlp(
        inputs, list(hidden), 1, rng=np.random.default_rng(len(hidden))
    )


def _one_layer():
    rng = np.random.default_rng(11)
    return FeedForwardNetwork([
        DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(2),
                   "identity"),
    ])


def _identity_hidden():
    rng = np.random.default_rng(12)
    return FeedForwardNetwork([
        DenseLayer(rng.standard_normal((3, 5)), rng.standard_normal(5),
                   "relu"),
        DenseLayer(rng.standard_normal((5, 4)), rng.standard_normal(4),
                   "identity"),
        DenseLayer(rng.standard_normal((4, 5)), rng.standard_normal(5),
                   "relu"),
        DenseLayer(rng.standard_normal((5, 2)), rng.standard_normal(2),
                   "identity"),
    ])


NETWORKS = {
    "static_4x16x16x16": lambda: _perfbench_shape(4, (16, 16, 16)),
    "milp_2x6x6": lambda: _perfbench_shape(2, (6, 6)),
    "split_2x4x4": lambda: _perfbench_shape(2, (4, 4)),
    "one_layer": _one_layer,
    "identity_hidden": _identity_hidden,
}


def _box(network, seed):
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-0.5, 0.5, network.input_dim)
    width = rng.uniform(0.2, 1.0, network.input_dim)
    return InputRegion(np.stack([centre - width, centre + width], axis=1))


@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_kernel_matches_naive_reference(name, seed):
    network = NETWORKS[name]()
    region = _box(network, seed)
    box = (region.bounds[:, 0], region.bounds[:, 1])
    layers, (obj_lo, obj_hi), sensitivity = naive_bounds(network, box)

    fused = symbolic_bounds(network, region)
    for got, (lo, hi) in zip(fused, layers):
        np.testing.assert_allclose(got.lower, lo, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.upper, hi, rtol=0, atol=1e-12)
    lo, hi = symbolic_objective_bounds(network, region, {0: 1.0})
    assert lo == pytest.approx(obj_lo, rel=0, abs=1e-12)
    assert hi == pytest.approx(obj_hi, rel=0, abs=1e-12)
    np.testing.assert_allclose(
        input_sensitivity(network, region, OutputObjective.single(0)),
        sensitivity, rtol=0, atol=1e-12,
    )

    # The prescreen's one fused pass gives the same three results.
    screen = symbolic_screen(network, region, {0: 1.0})
    assert screen.objective_lower == pytest.approx(lo, rel=0, abs=1e-12)
    assert screen.objective_upper == pytest.approx(hi, rel=0, abs=1e-12)
    np.testing.assert_allclose(
        screen.sensitivity, sensitivity, rtol=0, atol=1e-12
    )
    for got, want in zip(screen.bounds, fused):
        np.testing.assert_allclose(got.lower, want.lower, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.upper, want.upper, rtol=0, atol=1e-12)


# -- each box bounded once ---------------------------------------------------


@pytest.fixture
def kernel_passes(monkeypatch):
    """Counts calls of the backward kernel."""
    calls = []
    kernel = symbolic._run_backward

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(symbolic, "_run_backward", counting)
    return calls


@pytest.fixture(scope="module")
def gap_query(tiny_net):
    """A query the root prescreen cannot prove but the MILP can."""
    region = InputRegion(np.array([[-1.0, 1.0]] * tiny_net.input_dim))
    objective = OutputObjective.single(0)
    optimum = Verifier(
        tiny_net, EncoderOptions(bound_mode="symbolic"),
        MILPOptions(time_limit=60.0),
    ).maximize(region, objective).value
    return SafetyProperty(
        name="gap", region=region, objective=objective,
        threshold=optimum + 0.05,
    )


def _screen_calls(result):
    """Screen calls a split proof made: the root's, plus one per
    bisection for both halves.  Every explored node but the root is
    half of a screened pair, and a stalled node screened a pair before
    staying whole."""
    explored = int(result.metrics["split_explored"])
    stalled = int(result.metrics["split_stalled"])
    assert explored % 2 == 1
    return 1 + (explored - 1) // 2 + stalled


class TestEachBoxBoundedOnce:
    """One screen call is one kernel pass per layer after the first;
    the objective joins the output layer's pass, and both halves of a
    bisection share one call: ``len(network.layers) - 1`` passes per
    call.  No root, shard or sensitivity pass comes on top."""

    @pytest.mark.parametrize("certify", [True, False])
    def test_split_proof(self, tiny_net, gap_query, kernel_passes,
                         certify):
        result = Verifier(
            tiny_net,
            EncoderOptions(split=True, split_depth=2, certify=certify),
            MILPOptions(time_limit=60.0),
        ).prove(gap_query)
        assert result.verdict is Verdict.VERIFIED
        assert result.solver == "split"
        assert result.metrics["split_cells"] >= 1  # MILP shards ran
        if certify:
            assert result.certificate["kind"] == "split"
        assert len(kernel_passes) == (
            (len(tiny_net.layers) - 1) * _screen_calls(result)
        )

    def test_certified_campaign_fan_out(self, tiny_net, gap_query,
                                        kernel_passes):
        from repro.core.campaign import VerificationCampaign

        campaign = VerificationCampaign(
            EncoderOptions(split=True, split_depth=2, certify=True),
            MILPOptions(time_limit=60.0),
        )
        campaign.add_network(tiny_net)
        campaign.add_property(gap_query)
        (cell,) = campaign.run().cells
        assert cell.result.verdict is Verdict.VERIFIED
        assert cell.result.certificate["kind"] == "split"
        assert len(kernel_passes) == (
            (len(tiny_net.layers) - 1) * _screen_calls(cell.result)
        )

    def test_unsplit_milp_proof(self, tiny_net, gap_query, kernel_passes):
        result = Verifier(
            tiny_net, EncoderOptions(), MILPOptions(time_limit=60.0),
        ).prove(gap_query)
        assert result.verdict is Verdict.VERIFIED
        assert result.solver != "static"
        assert len(kernel_passes) == len(tiny_net.layers) - 1

    def test_bisection_halves_share_one_call_per_layer(
        self, tiny_net, gap_query, kernel_passes
    ):
        """A plan of depth 1 screens the root, then both of its halves
        together (whether it descends or stalls): two calls of one
        pass per layer after the first."""
        from repro.analysis.split import RegionBisectionDriver

        plan = RegionBisectionDriver(
            tiny_net, EncoderOptions(split=True, split_depth=1),
        ).plan(gap_query.region, gap_query.objective, gap_query.threshold)
        assert (plan.explored - 1) // 2 + plan.stalled == 1
        assert len(kernel_passes) == 2 * (len(tiny_net.layers) - 1)
