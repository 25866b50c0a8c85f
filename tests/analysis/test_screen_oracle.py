"""The batched screen against the one-box reference screen.

:func:`repro.analysis.symbolic.symbolic_screens` bounds a batch of boxes
in one pass per layer, with the objective joined to the output layer's
pass.  ``tests/oracles/screen_reference.py`` keeps the screen as it was
before: one box at a time, a pass per layer and a separate objective
pass.  Both must give the same layer bounds, objective bounds and
sensitivity to 1e-12 and the same winning policies (up to exact ties,
see :func:`_assert_same_winners`), whatever boxes share a call; a
screen's certificate chain must be the same bytes as the one rebuilt
from its bounds by recomputing every slope.
"""

import json

import numpy as np
import pytest

import repro.analysis.symbolic as symbolic
from repro.analysis.symbolic import symbolic_screen, symbolic_screens
from repro.core.properties import InputRegion
from repro.errors import EncodingError
from repro.nn import FeedForwardNetwork
from repro.nn.layers import DenseLayer
from repro.proof.emit import chain_payload

from ..oracles.screen_reference import (
    reference_chain_payload,
    reference_screen,
)

TOL = 1e-12


def _mlp(inputs, hidden, outputs=1, seed=0):
    return FeedForwardNetwork.mlp(
        inputs, list(hidden), outputs, rng=np.random.default_rng(seed)
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


def _shifted(shift):
    """A net whose hidden biases push every ReLU into one phase over
    the unit-scale boxes below: all active (``shift > 0``) or all off."""
    base = _mlp(3, (6, 6), seed=13)
    layers = [
        DenseLayer(layer.weights, layer.bias + shift, layer.activation)
        if layer.activation == "relu" else layer
        for layer in base.layers
    ]
    return FeedForwardNetwork(layers)


#: name -> (network factory, objective coefficients)
CASES = {
    "static_4x16x16x16": (lambda: _mlp(4, (16, 16, 16), seed=3), {0: 1.0}),
    "milp_2x6x6": (lambda: _mlp(2, (6, 6), seed=2), {0: 1.0}),
    "split_2x4x4": (lambda: _mlp(2, (4, 4), seed=2), {0: 1.0}),
    "one_layer": (_one_layer, {0: 1.0, 1: -0.5}),
    "identity_hidden": (_identity_hidden, {0: 1.0}),
    "two_outputs": (lambda: _mlp(3, (8, 8), outputs=2, seed=5),
                    {0: 0.7, 1: -1.3}),
    "all_active": (lambda: _shifted(50.0), {0: 1.0}),
    "all_inactive": (lambda: _shifted(-50.0), {0: 1.0}),
}


def _sibling_boxes(network, seed, count, pinned=()):
    """``count`` boxes (2 or 4) from bisecting a random box, widest
    dimension first; ``pinned`` dimensions have zero width."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-0.5, 0.5, network.input_dim)
    width = rng.uniform(0.2, 1.0, network.input_dim)
    width[list(pinned)] = 0.0
    boxes = [InputRegion(np.stack([centre - width, centre + width], 1))]
    while len(boxes) < count:
        boxes = [
            half for box in boxes
            for half in box.bisect(int(np.argmax(box.widths())))
        ]
    return boxes


def _assert_same_winners(got, want, per, side):
    """Winning policies are equal row by row.  Where two policies do
    the same arithmetic on a row their bounds are equal, and which of
    them wins turns on the last bit a row gets from its place in the
    batch; there the winner may be any policy whose reference bound
    ties with the best to within ``TOL``.  ``side`` is -1 for lower
    bounds (the largest wins) and +1 for upper ones."""
    rows = np.arange(len(want))
    tied = side * (per[got, rows] - per[want, rows]) <= TOL
    assert np.all((got == want) | tied), (got, want, per)


def _assert_matches_reference(network, screen, region, coefficients):
    ref = reference_screen(network, region, coefficients)
    assert len(screen.bounds) == len(ref.bounds)
    for got, want in zip(screen.bounds, ref.bounds):
        np.testing.assert_allclose(got.lower, want.lower, rtol=0, atol=TOL)
        np.testing.assert_allclose(got.upper, want.upper, rtol=0, atol=TOL)
    if coefficients is not None:
        assert screen.objective_lower == pytest.approx(
            ref.objective_lower, rel=0, abs=TOL
        )
        assert screen.objective_upper == pytest.approx(
            ref.objective_upper, rel=0, abs=TOL
        )
        np.testing.assert_allclose(
            screen.sensitivity, ref.sensitivity, rtol=0, atol=TOL
        )
    assert len(screen.winners) == len(ref.winners)
    for got, want, per in zip(screen.winners, ref.winners, ref.per_policy):
        assert (got is None) == (want is None)
        if got is not None:
            _assert_same_winners(got[0], want[0], per[0], -1.0)
            _assert_same_winners(got[1], want[1], per[1], 1.0)
    # The carried slopes serialize to the same chain as slopes rebuilt
    # from the bounds.
    assert json.dumps(chain_payload(screen)) == json.dumps(
        reference_chain_payload(network, screen)
    )


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_screens_match_reference(name, count, seed):
    factory, coefficients = CASES[name]
    network = factory()
    boxes = _sibling_boxes(network, seed, count)
    screens = symbolic_screens(network, boxes, coefficients)
    assert len(screens) == count
    for screen, region in zip(screens, boxes):
        _assert_matches_reference(network, screen, region, coefficients)


@pytest.mark.parametrize("name", ["static_4x16x16x16", "two_outputs",
                                  "identity_hidden", "one_layer"])
@pytest.mark.parametrize("count", [2, 4])
def test_zero_width_dimensions(name, count):
    factory, coefficients = CASES[name]
    network = factory()
    boxes = _sibling_boxes(network, 7, count, pinned=(0,))
    for screen, region in zip(
        symbolic_screens(network, boxes, coefficients), boxes
    ):
        assert region.widths()[0] == 0.0
        _assert_matches_reference(network, screen, region, coefficients)


@pytest.mark.parametrize("name", ["milp_2x6x6", "identity_hidden"])
def test_bounds_only_screens(name):
    network = CASES[name][0]()
    boxes = _sibling_boxes(network, 3, 2)
    for screen, region in zip(symbolic_screens(network, boxes), boxes):
        assert screen.objective_upper is None
        _assert_matches_reference(network, screen, region, None)


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("name", ["all_active", "all_inactive"])
def test_every_neuron_stable(name, count):
    factory, coefficients = CASES[name]
    network = factory()
    boxes = _sibling_boxes(network, 4, count)
    for screen, region in zip(
        symbolic_screens(network, boxes, coefficients), boxes
    ):
        _assert_matches_reference(network, screen, region, coefficients)
        for bounds in screen.bounds[:-1]:
            assert np.all(bounds.stable_active | bounds.stable_inactive)
        if name == "all_inactive":
            assert screen.objective_lower == screen.objective_upper
            assert not screen.sensitivity.any()


def test_siblings_match_their_one_box_screens():
    network, coefficients = CASES["two_outputs"][0](), CASES["two_outputs"][1]
    boxes = _sibling_boxes(network, 5, 4)
    for batched, region in zip(
        symbolic_screens(network, boxes, coefficients), boxes
    ):
        alone = symbolic_screen(network, region, coefficients)
        for got, want in zip(batched.bounds, alone.bounds):
            np.testing.assert_allclose(got.upper, want.upper, rtol=0, atol=TOL)
            np.testing.assert_allclose(got.lower, want.lower, rtol=0, atol=TOL)
        assert batched.objective_upper == pytest.approx(
            alone.objective_upper, rel=0, abs=TOL
        )


def test_sibling_screens_pickle_with_their_evidence():
    import pickle

    network, coefficients = CASES["milp_2x6x6"][0](), {0: 1.0}
    for screen in symbolic_screens(
        network, _sibling_boxes(network, 1, 2), coefficients
    ):
        copy = pickle.loads(pickle.dumps(screen))
        assert json.dumps(chain_payload(copy)) == json.dumps(
            chain_payload(screen)
        )


# -- unsupported shapes ------------------------------------------------------


@pytest.fixture
def kernel_passes(monkeypatch):
    calls = []
    kernel = symbolic._run_backward

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(symbolic, "_run_backward", counting)
    return calls


def _relu_output():
    rng = np.random.default_rng(14)
    return FeedForwardNetwork([
        DenseLayer(rng.standard_normal((2, 4)), rng.standard_normal(4),
                   "relu"),
        DenseLayer(rng.standard_normal((4, 1)), rng.standard_normal(1),
                   "relu"),
    ])


@pytest.mark.parametrize("network, coefficients", [
    (_relu_output(), {0: 1.0}),
    (_mlp(2, (4, 4)), {1: 1.0}),
    (_mlp(2, (4, 4)), {-1: 1.0}),
])
def test_paired_path_refuses_before_any_pass(network, coefficients,
                                             kernel_passes):
    boxes = _sibling_boxes(network, 0, 2)
    with pytest.raises(EncodingError) as one:
        symbolic_screen(network, boxes[0], coefficients)
    with pytest.raises(EncodingError) as pair:
        symbolic_screens(network, boxes, coefficients)
    assert str(pair.value) == str(one.value)
    assert kernel_passes == []
