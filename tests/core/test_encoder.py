"""MILP encoding tests: the encoding must be exactly the network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import interval_bounds
from repro.core.encoder import (
    EncoderOptions,
    attach_objective,
    attach_violation_constraint,
    encode_network,
)
from repro.core.properties import InputRegion, OutputObjective
from repro.errors import EncodingError
from repro.milp import MILPOptions, Sense, SolveStatus, solve_milp
from repro.nn import FeedForwardNetwork


def unit_region(dim):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


class TestEncodingStructure:
    def test_variable_counts(self, tiny_net):
        encoded = encode_network(
            tiny_net, unit_region(6), EncoderOptions(bound_mode="interval")
        )
        assert len(encoded.input_vars) == 6
        assert len(encoded.output_exprs) == 3
        # Each ambiguous neuron has (a, d); stable ones have none.
        bounds = encoded.bounds
        ambiguous = sum(
            int(b.num_ambiguous()) for b in bounds[:-1]
        )
        assert encoded.num_binaries == ambiguous

    def test_tanh_hidden_rejected(self, rng):
        net = FeedForwardNetwork.mlp(
            3, [4], 2, hidden_activation="tanh", rng=rng
        )
        with pytest.raises(EncodingError):
            encode_network(net, unit_region(3))

    def test_relu_output_rejected(self, rng):
        net = FeedForwardNetwork.mlp(
            3, [4], 2, output_activation="relu", rng=rng
        )
        with pytest.raises(EncodingError):
            encode_network(net, unit_region(3))

    def test_dim_mismatch_rejected(self, tiny_net):
        with pytest.raises(EncodingError):
            encode_network(tiny_net, unit_region(4))

    def test_bad_bound_mode_rejected(self, tiny_net):
        with pytest.raises(EncodingError):
            encode_network(
                tiny_net,
                unit_region(6),
                EncoderOptions(bound_mode="magic"),
            )

    def test_objective_unknown_output_rejected(self, tiny_net):
        encoded = encode_network(
            tiny_net, unit_region(6), EncoderOptions(bound_mode="interval")
        )
        with pytest.raises(EncodingError):
            attach_objective(encoded, OutputObjective.single(5))


class TestEncodingSemantics:
    """The central soundness property: for any fixed input point, the MILP
    with pinned inputs reproduces the network's output exactly."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_pinned_input_reproduces_forward_pass(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(3, [6, 6], 2, rng=rng)
        x = rng.uniform(-1, 1, size=3)
        region = InputRegion(np.stack([x, x], axis=1))
        encoded = encode_network(
            net, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(0))
        result = solve_milp(encoded.model)
        assert result.status is SolveStatus.OPTIMAL
        expected = net.forward(x)[0, 0]
        assert result.objective == pytest.approx(expected, abs=1e-5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_milp_max_dominates_sampling(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedForwardNetwork.mlp(4, [7], 2, rng=rng)
        region = unit_region(4)
        encoded = encode_network(
            net, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(1))
        result = solve_milp(encoded.model)
        assert result.status is SolveStatus.OPTIMAL
        xs = rng.uniform(-1, 1, size=(3000, 4))
        sampled = net.forward(xs)[:, 1].max()
        assert result.objective >= sampled - 1e-6

    def test_milp_witness_is_achievable(self, tiny_net):
        region = unit_region(6)
        encoded = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(0))
        result = solve_milp(encoded.model)
        witness = encoded.input_point(result.x)
        assert region.contains(witness)
        replayed = tiny_net.forward(witness)[0, 0]
        assert replayed == pytest.approx(result.objective, abs=1e-5)

    def test_weighted_objective(self, tiny_net, rng):
        region = unit_region(6)
        encoded = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        obj = OutputObjective({0: 1.0, 2: -2.0})
        attach_objective(encoded, obj, maximize=True)
        result = solve_milp(encoded.model)
        witness = encoded.input_point(result.x)
        outputs = tiny_net.forward(witness)[0]
        assert obj.value(outputs) == pytest.approx(
            result.objective, abs=1e-5
        )

    def test_minimize_direction(self, tiny_net):
        region = unit_region(6)
        enc_max = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(enc_max, OutputObjective.single(0), maximize=True)
        enc_min = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(enc_min, OutputObjective.single(0), maximize=False)
        hi = solve_milp(enc_max.model).objective
        lo = solve_milp(enc_min.model).objective
        assert lo <= hi

    def test_lp_bounds_give_same_answer_with_fewer_binaries(self, tiny_net):
        region = unit_region(6)
        enc_interval = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        enc_lp = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="lp")
        )
        assert enc_lp.num_binaries <= enc_interval.num_binaries
        attach_objective(enc_interval, OutputObjective.single(0))
        attach_objective(enc_lp, OutputObjective.single(0))
        a = solve_milp(enc_interval.model).objective
        b = solve_milp(enc_lp.model).objective
        assert a == pytest.approx(b, abs=1e-5)


class TestViolationConstraint:
    def test_violation_feasible_below_max(self, tiny_net):
        region = unit_region(6)
        # First find the true max.
        encoded = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(0))
        true_max = solve_milp(encoded.model).objective

        # Violation threshold below the max: must be satisfiable.
        enc2 = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        attach_violation_constraint(
            enc2, OutputObjective.single(0), true_max - 0.1
        )
        enc2.model.set_objective(
            enc2.output_exprs[0], sense=Sense.MAXIMIZE
        )
        assert solve_milp(enc2.model).status is SolveStatus.OPTIMAL

        # Violation threshold above the max: must be infeasible.
        enc3 = encode_network(
            tiny_net, region, EncoderOptions(bound_mode="interval")
        )
        attach_violation_constraint(
            enc3, OutputObjective.single(0), true_max + 0.1
        )
        enc3.model.set_objective(
            enc3.output_exprs[0], sense=Sense.MAXIMIZE
        )
        assert solve_milp(enc3.model).status is SolveStatus.INFEASIBLE


class TestBoundModeValidation:
    """An unknown bound mode is refused when the options are built,
    before any query path can run on it.  A static proof and a
    certified MILP never consult the bound engine, so they used to
    answer under any mode string."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        import repro.analysis.symbolic as symbolic

        calls = []
        kernel = symbolic._run_backward

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(symbolic, "_run_backward", counting)
        return calls

    @pytest.mark.parametrize("mode", ["bogus", "alpha"])
    @pytest.mark.parametrize("case", ["static", "certified_milp",
                                      "uncertified_milp"])
    def test_unknown_mode_raises_before_any_query(
        self, tiny_net, kernel_calls, mode, case
    ):
        from repro.analysis.symbolic import symbolic_objective_bounds
        from repro.core.encoder import BOUND_MODES
        from repro.core.properties import SafetyProperty
        from repro.core.verifier import Verifier

        region = unit_region(6)
        _, upper = symbolic_objective_bounds(tiny_net, region, {0: 1.0})
        kernel_calls.clear()
        prop = SafetyProperty(
            name=case, region=region, objective=OutputObjective.single(0),
            threshold=upper + 1.0 if case == "static" else upper - 1.0,
        )
        with pytest.raises(EncodingError) as info:
            Verifier(
                tiny_net,
                EncoderOptions(
                    bound_mode=mode, certify=case != "uncertified_milp"
                ),
                MILPOptions(time_limit=30.0),
            ).prove(prop)
        assert repr(mode) in str(info.value)
        assert repr(BOUND_MODES) in str(info.value)
        assert BOUND_MODES == ("interval", "symbolic", "lp")
        assert kernel_calls == []  # no bounding ran

    def test_replace_validates_too(self):
        import dataclasses

        with pytest.raises(EncodingError):
            dataclasses.replace(EncoderOptions(), bound_mode="alpha")
