"""Unit tests for the MILP model container."""

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
from repro.errors import ModelError
from repro.milp import Model, Sense, VarType
from repro.nn import FeedForwardNetwork

from ..oracles.dense_rows import dense_rows


class TestVariables:
    def test_auto_names(self):
        model = Model()
        v0 = model.add_var()
        v1 = model.add_var()
        assert (v0.name, v1.name) == ("x0", "x1")

    def test_duplicate_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_var("x")

    def test_empty_domain_rejected(self):
        model = Model()
        with pytest.raises(ModelError):
            model.add_var("x", lb=2.0, ub=1.0)

    def test_var_by_name(self):
        model = Model()
        x = model.add_var("speed")
        assert model.var_by_name("speed") is x
        with pytest.raises(ModelError):
            model.var_by_name("missing")

    def test_integer_indices(self):
        model = Model()
        model.add_var("c")
        model.add_var("b", vtype=VarType.BINARY)
        model.add_var("i", vtype=VarType.INTEGER, ub=10)
        assert model.integer_indices == [1, 2]

    def test_set_bounds(self):
        model = Model()
        x = model.add_var("x", lb=0, ub=10)
        model.set_bounds(x, 2, 3)
        assert (model.lb[0], model.ub[0]) == (2.0, 3.0)
        with pytest.raises(ModelError):
            model.set_bounds(x, 5, 4)


class TestDenseArrays:
    def test_ge_rows_are_negated(self):
        model = Model()
        x = model.add_var("x")
        model.add_constr(x >= 2)
        _c, A_ub, b_ub, A_eq, _b_eq, _bounds = model.dense_arrays()
        assert A_eq is None
        assert A_ub.tolist() == [[-1.0]]
        assert b_ub.tolist() == [-2.0]

    def test_maximize_negates_objective(self):
        model = Model()
        x = model.add_var("x")
        model.set_objective(3 * x, sense=Sense.MAXIMIZE)
        c, *_ = model.dense_arrays()
        assert c.tolist() == [-3.0]

    def test_eq_rows_separate(self):
        model = Model()
        x = model.add_var("x")
        y = model.add_var("y")
        model.add_constr(x + y == 1)
        model.add_constr(x <= 2)
        _c, A_ub, _b_ub, A_eq, b_eq, _bounds = model.dense_arrays()
        assert A_ub.shape == (1, 2)
        assert A_eq.shape == (1, 2)
        assert b_eq.tolist() == [1.0]


def _encodings():
    """Twelve network encodings: four shapes (the perfbench ones and a
    three-output net) under each bound engine, with a ``violation``
    row, so ``<=`` and negated ``>=`` rows interleave."""
    shapes = [(2, [6, 6], 1), (2, [4, 4], 1), (4, [16, 16, 16], 1),
              (6, [8, 8], 3)]
    for seed, (inputs, hidden, outputs) in enumerate(shapes):
        network = FeedForwardNetwork.mlp(
            inputs, hidden, outputs, rng=np.random.default_rng(seed)
        )
        region = InputRegion(np.tile([-1.0, 1.5], (inputs, 1)))
        for mode in ("interval", "symbolic", "lp"):
            encoded = encode_network(
                network, region, EncoderOptions(bound_mode=mode)
            )
            attach_violation_constraint(
                encoded, OutputObjective.single(0), 0.25
            )
            attach_objective(encoded, OutputObjective.single(0))
            yield f"{inputs}x{hidden}-{mode}", encoded.model


class TestScatterMatchesRowLoop:
    """The dense view is one scatter over every row's triplets; it must
    equal the row-by-row build bit for bit (``-0.0`` zeros of negated
    ``>=`` rows included) and stay read-only."""

    @staticmethod
    def _same(got, want):
        if want is None:
            return got is None
        return (
            got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes()
        )

    def test_encodings(self):
        models = list(_encodings())
        assert len(models) == 12
        for name, model in models:
            _c, A_ub, b_ub, A_eq, b_eq, _ = model.dense_arrays()
            for got, want in zip((A_ub, b_ub, A_eq, b_eq), dense_rows(model)):
                assert self._same(got, want), name
            assert not A_ub.flags.writeable

    def test_mixed_rows(self):
        model = Model()
        x = model.add_var("x")
        y = model.add_var("y")
        z = model.add_var("z")
        model.add_constr(x + 2 * y >= 1)
        model.add_constr(x - z == 0.5)
        model.add_constr(0.0 * y + z <= 3)
        model.add_constr(y + z == 2)
        got = model.dense_arrays()[1:5]
        for got_arr, want in zip(got, dense_rows(model)):
            assert self._same(got_arr, want)
            assert not got_arr.flags.writeable

    def test_no_rows(self):
        model = Model()
        model.add_var("x")
        assert model.dense_arrays()[1:5] == (None, None, None, None)

    def test_mutation_invalidates(self):
        model = Model()
        x = model.add_var("x")
        model.add_constr(x <= 1)
        first = model.dense_arrays()[1]
        model.add_constr(x >= -1)
        second = model.dense_arrays()[1]
        assert first.shape == (1, 1) and second.shape == (2, 1)
        assert self._same(second, dense_rows(model)[0])


class TestFeasibility:
    def make(self):
        model = Model()
        x = model.add_var("x", lb=0, ub=4)
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(x + 2 * b <= 5)
        return model

    def test_feasible_point(self):
        assert self.make().is_feasible([3.0, 1.0])

    def test_bound_violation(self):
        assert not self.make().is_feasible([5.0, 0.0])

    def test_integrality_violation(self):
        assert not self.make().is_feasible([1.0, 0.5])

    def test_constraint_violation(self):
        assert not self.make().is_feasible([4.0, 1.0])

    def test_objective_value_in_model_sense(self):
        model = self.make()
        model.set_objective(
            model.var_by_name("x") + model.var_by_name("b"),
            sense=Sense.MAXIMIZE,
        )
        assert model.objective_value([3.0, 1.0]) == pytest.approx(4.0)


class TestCopy:
    def test_copy_is_deep(self):
        model = Model("orig")
        x = model.add_var("x", ub=7)
        model.add_constr(x <= 3)
        model.set_objective(x, sense=Sense.MAXIMIZE)
        clone = model.copy()
        clone.lb[0] = 5.0
        clone.constraints[0].expr.coeffs[0] = 9.0
        assert model.lb[0] == 0.0
        assert model.constraints[0].expr.coeffs[0] == 1.0
        assert clone.sense is Sense.MAXIMIZE

    def test_unknown_column_rejected(self):
        model = Model()
        model.add_var("x")
        other = Model()
        y = other.add_var("y0")
        z = other.add_var("z1")
        with pytest.raises(ModelError):
            model.add_constr(y + z <= 1)
