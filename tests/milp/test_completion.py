"""Forward-pass completion and the dense feasibility check.

:meth:`EncodedNetwork.complete` is the search's primal heuristic: it
fills an LP point's ``a``/``d`` columns by a forward pass from its
inputs.  The completed point must satisfy every row of the encoding
except ``violation`` and carry the network's own activations and
output.  :meth:`Model.is_feasible`, which every candidate passes before
it becomes an incumbent, is checked against the constraint-by-constraint
oracle in ``tests/oracles/feasibility.py``.
"""

import math

import numpy as np
import pytest

from repro.core.encoder import (
    EncoderOptions,
    attach_objective,
    attach_violation_constraint,
    encode_network,
)
from repro.core.properties import InputRegion, OutputObjective
from repro.core.verifier import Verdict, Verifier
from repro.milp import Model, VarType, solve_milp
from repro.milp.expr import LinExpr
from repro.nn import FeedForwardNetwork
from repro.obs import RingBufferSink, Tracer
from repro.tolerances import FEASIBILITY_TOL, INCUMBENT_TOL

from ..oracles import feasibility

#: The perfbench workloads' network shapes: (inputs, hidden widths).
SHAPES = {
    "milp": (2, [6, 6]),
    "split": (2, [4, 4]),
    "static": (4, [16, 16, 16]),
}

THRESHOLD = 0.25


def _networks(tiny_net):
    nets = {
        name: FeedForwardNetwork.mlp(
            inputs, hidden, 1, rng=np.random.default_rng(seed)
        )
        for seed, (name, (inputs, hidden)) in enumerate(SHAPES.items())
    }
    nets["tiny"] = tiny_net
    return nets


def _objective(network):
    if network.output_dim == 1:
        return OutputObjective.single(0)
    return OutputObjective({0: 1.0, 2: -0.5})


def _encoded(network, bound_mode):
    region = InputRegion(
        np.tile([-1.0, 1.5], (network.input_dim, 1)), name="box"
    )
    encoded = encode_network(
        network, region, EncoderOptions(bound_mode=bound_mode)
    )
    objective = _objective(network)
    attach_violation_constraint(encoded, objective, THRESHOLD)
    attach_objective(encoded, objective, maximize=True)
    return encoded, region, objective


def _points(encoded, region, rng, count=40):
    """Random model points: inputs in the box (a few just outside it),
    every other column noise."""
    points = rng.uniform(-3.0, 3.0, (count, encoded.model.num_vars))
    lo, hi = region.bounds[:, 0], region.bounds[:, 1]
    inputs = [var.index for var in encoded.input_vars]
    points[:, inputs] = rng.uniform(lo - 0.1, hi + 0.1, (count, len(lo)))
    return points


@pytest.fixture(
    params=[(name, mode) for name in (*SHAPES, "tiny")
            for mode in ("interval", "lp")],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def case(request, tiny_net):
    name, mode = request.param
    network = _networks(tiny_net)[name]
    return (network, *_encoded(network, mode))


class TestCompletion:
    def test_encoding_has_binaries(self, case):
        _, encoded, _, _ = case
        assert encoded.neurons, "a case without ambiguous ReLUs tests nothing"

    def test_every_row_but_violation_holds(self, case):
        _, encoded, region, _ = case
        model = encoded.model
        for x in _points(encoded, region, np.random.default_rng(0)):
            point = encoded.complete(x)
            assignment = dict(enumerate(point.tolist()))
            for constr in model.constraints:
                if constr.name != "violation":
                    assert constr.satisfied(assignment, 1e-9), constr.name
            assert np.all(point >= np.array(model.lb) - 1e-9)
            assert np.all(point <= np.array(model.ub) + 1e-9)
            d_cols = [neuron.d_col for neuron in encoded.neurons]
            assert set(point[d_cols].tolist()) <= {0.0, 1.0}

    def test_inputs_are_clipped_into_the_box(self, case):
        _, encoded, region, _ = case
        for x in _points(encoded, region, np.random.default_rng(1)):
            clipped = np.clip(
                encoded.input_point(x), region.bounds[:, 0],
                region.bounds[:, 1],
            )
            assert np.array_equal(
                encoded.input_point(encoded.complete(x)), clipped
            )

    def test_matches_the_network(self, case):
        network, encoded, region, objective = case
        for x in _points(encoded, region, np.random.default_rng(2)):
            point = encoded.complete(x)
            inputs = encoded.input_point(point)
            hidden = network.hidden_activations(inputs)
            pre = network.pre_activations(inputs)
            for neuron in encoded.neurons:
                layer, j = neuron.layer, neuron.index
                assert point[neuron.a_col] == pytest.approx(
                    hidden[layer][0, j], abs=1e-12
                )
                assert point[neuron.d_col] == float(pre[layer][0, j] > 0.0)
            value = objective.value(network.forward(inputs))
            assert encoded.model.objective_value(point) == pytest.approx(
                value, abs=1e-12
            )

    def test_feasible_exactly_when_the_threshold_is_met(self, case):
        network, encoded, region, objective = case
        verdicts = set()
        for x in _points(encoded, region, np.random.default_rng(3)):
            point = encoded.complete(x)
            value = objective.value(network.forward(encoded.input_point(point)))
            if abs(value - THRESHOLD) <= 1e-4:
                continue
            feasible = encoded.model.is_feasible(point, tol=INCUMBENT_TOL)
            assert feasible is (value >= THRESHOLD)
            assert feasible is feasibility.is_feasible(
                encoded.model, point, tol=INCUMBENT_TOL
            )
            verdicts.add(feasible)
        assert verdicts, "every sampled output sat at the threshold"


class TestMaxQueryIncumbent:
    """A max query's root LP point is completed before any branching."""

    @staticmethod
    def _incumbent_nodes(complete):
        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(2)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        encoded = encode_network(
            network, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(0), maximize=True)
        sink = RingBufferSink()
        result = solve_milp(
            encoded.model, tracer=Tracer([sink]),
            complete=encoded.complete if complete else None,
        )
        nodes = [
            record["attrs"]["nodes"] for record in sink.records
            if record.get("name") == "incumbent"
        ]
        return result, nodes

    def test_root_incumbent_from_completion(self):
        result, nodes = self._incumbent_nodes(complete=True)
        assert result.nodes > 0  # the root LP is fractional
        assert nodes[0] == 0

    def test_no_root_incumbent_without_completion(self):
        result, nodes = self._incumbent_nodes(complete=False)
        assert result.nodes > 0
        assert nodes and nodes[0] > 0

    def test_verifier_hands_the_search_its_completion(self):
        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(2)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        sink = RingBufferSink()
        verifier = Verifier(
            network, EncoderOptions(bound_mode="interval"),
            tracer=Tracer([sink]),
        )
        result = verifier.maximize(region, OutputObjective.single(0))
        assert result.verdict is Verdict.MAX_FOUND
        assert result.nodes > 0
        incumbents = [
            record["attrs"]["nodes"] for record in sink.records
            if record.get("name") == "incumbent"
        ]
        assert incumbents[0] == 0


def _mixed_model(seed, shift=None):
    """Continuous, free, binary and integer columns, with one ``<=``,
    ``>=`` and ``==`` row each, and a point ``x0`` within the bounds and
    integral where it must be.  Every row holds with equality at ``x0``
    unless ``shift = (row, offset)`` moves that row's right-hand side."""
    rng = np.random.default_rng(seed)
    model = Model("mixed")
    cols = [
        model.add_var("c", lb=-1.0, ub=2.0),
        model.add_var("free", lb=-math.inf, ub=math.inf),
        model.add_var("b", vtype=VarType.BINARY),
        model.add_var("i", lb=-3.0, ub=3.0, vtype=VarType.INTEGER),
        model.add_var("pos", lb=0.0),
    ]
    x0 = np.array([
        rng.uniform(-1.0, 2.0), rng.normal(), float(rng.integers(0, 2)),
        float(rng.integers(-3, 4)), rng.uniform(0.0, 4.0),
    ])
    for op in ("<=", ">=", "=="):
        expr = LinExpr(dict(enumerate(rng.normal(size=len(cols)).tolist())))
        rhs = expr.value(dict(enumerate(x0.tolist())))
        if shift is not None and shift[0] == op:
            rhs += shift[1]
        model.add_constr(
            {"<=": expr <= rhs, ">=": expr >= rhs, "==": expr == rhs}[op],
            name=op,
        )
    return model, x0


def _step(inside):
    """Just inside (or just outside) ``FEASIBILITY_TOL``."""
    return FEASIBILITY_TOL * (1.0 - 1e-3 if inside else 1.0 + 1e-3)


def _agree(model, x, expected):
    """The dense check says ``expected`` at ``FEASIBILITY_TOL`` and
    agrees with the oracle at both tolerances."""
    assert model.is_feasible(x) is expected
    for tol in (FEASIBILITY_TOL, INCUMBENT_TOL):
        assert model.is_feasible(x, tol) is feasibility.is_feasible(
            model, x, tol
        )


class TestDenseFeasibility:
    """The dense check answers as the constraint-by-constraint oracle,
    on both sides of every tolerance."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("inside", [True, False], ids=["in", "out"])
    def test_bounds(self, seed, inside):
        model, x0 = _mixed_model(seed)
        bare = Model("bounds")  # the columns without the rows
        for var, lb, ub, vt in zip(
            model.variables, model.lb, model.ub, model.vtypes
        ):
            bare.add_var(var.name, lb=lb, ub=ub, vtype=vt)
        # An integer column pushed past its bound is off-integral by the
        # same step, so the expected answer is the same.
        for col, side in ((0, +1), (0, -1), (2, +1), (3, -1), (4, -1)):
            x = x0.copy()
            edge = bare.ub[col] if side > 0 else bare.lb[col]
            x[col] = edge + side * _step(inside)
            _agree(bare, x, inside)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("inside", [True, False], ids=["in", "out"])
    def test_integrality(self, seed, inside):
        model, x0 = _mixed_model(seed)
        bare = Model("integrality")  # wide bounds, no rows
        for var, vt in zip(model.variables, model.vtypes):
            bare.add_var(var.name, lb=-10.0, ub=10.0, vtype=vt)
        for col in (2, 3):
            for side in (+1, -1):
                x = x0.copy()
                x[col] += side * _step(inside)
                _agree(bare, x, inside)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("inside", [True, False], ids=["in", "out"])
    @pytest.mark.parametrize("row", ["<=", ">=", "=="])
    def test_rows(self, seed, inside, row):
        model, x0 = _mixed_model(seed)
        assert model.is_feasible(x0)
        # Move the row's right-hand side against the point.
        sides = {"<=": (-1,), ">=": (+1,), "==": (-1, +1)}[row]
        for side in sides:
            model, x0 = _mixed_model(seed, (row, side * _step(inside)))
            _agree(model, x0, inside)

    def test_nan_is_infeasible(self):
        model, x0 = _mixed_model(0)
        for col in range(len(x0)):
            x = x0.copy()
            x[col] = math.nan
            _agree(model, x, False)

    def test_encoded_points_agree(self, case):
        _, encoded, region, _ = case
        model = encoded.model
        for x in _points(encoded, region, np.random.default_rng(4)):
            for point in (x, encoded.complete(x)):
                for tol in (FEASIBILITY_TOL, INCUMBENT_TOL):
                    assert model.is_feasible(point, tol) is (
                        feasibility.is_feasible(model, point, tol)
                    )
