"""One static prescreen for certified and uncertified decision queries.

Every decision query screens with the same fixed-policy symbolic chain,
whether or not it ships a certificate.  Seeded queries on the three
perfbench network shapes and the shared ``tiny_net`` are proved with
``certify`` off and on: each pair must reach the same verdict through
the same solver, and a static proof must report a bit-identical bound.
"""

import numpy as np
import pytest

from repro.analysis.symbolic import symbolic_objective_bounds
from repro.core.encoder import BOUND_MODES, EncoderOptions
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork

#: ``(inputs, hidden, split, gap)`` per perfbench workload; the static
#: shape gets thresholds above the symbolic bound only, as perfbench
#: gives it, so no 48-ReLU MILP runs here.
SHAPES = {
    "static": (4, (16, 16, 16), False, False),
    "milp": (2, (6, 6), False, True),
    "split": (2, (4, 4), True, True),
}


def _region(dim, rng):
    centre = rng.uniform(-0.05, 0.05, dim)
    return InputRegion(np.stack([centre - 1.0, centre + 1.0], axis=1))


def _sampled_max(network, region, rng, output=0):
    lo, hi = region.bounds[:, 0], region.bounds[:, 1]
    xs = lo + rng.uniform(0.0, 1.0, (4096, network.input_dim)) * (hi - lo)
    return float(network.forward(xs)[:, output].max())


def _queries(network, seed, gap):
    """Seeded properties on output 0: one above the symbolic bound and,
    with ``gap``, one inside the relaxation gap and one falsifiable."""
    rng = np.random.default_rng(seed)
    region = _region(network.input_dim, rng)
    objective = OutputObjective.single(0)
    _, upper = symbolic_objective_bounds(
        network, region, objective.coefficients
    )
    thresholds = {"above": upper + 0.1}
    if gap:
        sample = _sampled_max(network, region, rng)
        thresholds["gap"] = sample + 0.2 * max(upper - sample, 1e-2)
        thresholds["below"] = sample - 1e-2
    return [
        SafetyProperty(
            name=f"s{seed}_{kind}", region=region, objective=objective,
            threshold=float(threshold),
        )
        for kind, threshold in thresholds.items()
    ]


def _pair(network, prop, split=False):
    return [
        Verifier(
            network,
            EncoderOptions(certify=certify, split=split),
            MILPOptions(time_limit=60.0),
        ).prove(prop)
        for certify in (False, True)
    ]


def _assert_same_prescreen(plain, certified):
    assert certified.verdict is plain.verdict
    assert certified.solver == plain.solver
    if plain.solver == "static":
        assert certified.best_bound == plain.best_bound  # bit-identical
        assert certified.certificate["kind"] == "static"
    if certified.verdict is Verdict.VERIFIED:
        assert certified.certificate is not None
    assert plain.certificate is None


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perfbench_shapes_share_one_prescreen(shape, seed):
    inputs, hidden, split, gap = SHAPES[shape]
    network = FeedForwardNetwork.mlp(
        inputs, list(hidden), 1, rng=np.random.default_rng([seed, 17])
    )
    solvers = set()
    for prop in _queries(network, seed, gap):
        plain, certified = _pair(network, prop, split=split)
        _assert_same_prescreen(plain, certified)
        solvers.add(plain.solver)
    assert "static" in solvers


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tiny_net_shares_one_prescreen(tiny_net, seed):
    verdicts = set()
    for prop in _queries(tiny_net, seed, gap=True):
        plain, certified = _pair(tiny_net, prop)
        _assert_same_prescreen(plain, certified)
        verdicts.add(plain.verdict)
    assert verdicts == {Verdict.VERIFIED, Verdict.FALSIFIED}


def _unit_property(network, threshold):
    return SafetyProperty(
        name="bounded",
        region=InputRegion(np.array([[-1.0, 1.0]] * network.input_dim)),
        objective=OutputObjective.single(0),
        threshold=threshold,
    )


class TestFoldedParity:
    """The bound-mode and prescreen parity cases that outlived the
    removed slope optimiser."""

    def test_bound_modes_same_milp_answer(self, tiny_net):
        """Tighter bounds change the search, never the verdict or the
        optimum: every bound mode agrees through the full MILP."""
        prop = _unit_property(tiny_net, 0.0)
        results = {}
        for mode in BOUND_MODES:
            verifier = Verifier(
                tiny_net, EncoderOptions(bound_mode=mode),
                MILPOptions(time_limit=60.0),
            )
            results[mode] = (
                verifier.maximize(prop.region, prop.objective),
                verifier.prove(prop),
            )
        (best, proof), *others = results.values()
        for value, decision in others:
            assert value.value == pytest.approx(best.value, abs=1e-5)
            assert decision.verdict is proof.verdict

    @pytest.mark.parametrize("certify", [False, True])
    def test_prescreen_proves_statically(self, tiny_net, certify):
        region = _unit_property(tiny_net, 0.0).region
        _, hi = symbolic_objective_bounds(tiny_net, region, {0: 1.0})
        result = Verifier(
            tiny_net, EncoderOptions(certify=certify)
        ).prove(_unit_property(tiny_net, hi + 1.0))
        assert result.solver == "static"
        assert result.best_bound == hi
        assert result.certified is certify
