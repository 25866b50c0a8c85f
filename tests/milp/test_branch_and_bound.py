"""Tests for branch-and-bound: correctness vs brute force, budgets, options."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import (
    EncoderOptions,
    attach_objective,
    encode_network,
)
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import (
    LPResult,
    MILPOptions,
    Model,
    Sense,
    SolveStatus,
    VarType,
    scipy_backend,
    solve_milp,
)
from repro.milp.branch_and_bound import _pick_branch_var
from repro.nn import FeedForwardNetwork
from repro.nn.layers import DenseLayer
from repro.obs import RingBufferSink, Tracer
from repro.tolerances import GAP_TOL

from ..oracles.highs import solve_lp as highs_lp
from ..oracles.patterns import enumerated_max


def knapsack(values, weights, capacity) -> Model:
    model = Model("knapsack")
    xs = [
        model.add_var(f"item{i}", vtype=VarType.BINARY)
        for i in range(len(values))
    ]
    model.add_constr(
        sum(w * x for w, x in zip(weights, xs)) <= capacity
    )
    model.set_objective(
        sum(v * x for v, x in zip(values, xs)), sense=Sense.MAXIMIZE
    )
    return model


def brute_force_knapsack(values, weights, capacity) -> float:
    best = 0.0
    for bits in itertools.product([0, 1], repeat=len(values)):
        if sum(w * b for w, b in zip(weights, bits)) <= capacity:
            best = max(best, sum(v * b for v, b in zip(values, bits)))
    return best


class TestKnapsackCorrectness:
    def test_small_knapsack(self):
        values = [10, 13, 18, 31, 7, 15]
        weights = [1, 2, 3, 4, 5, 6]
        model = knapsack(values, weights, 10)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, 10)
        )
        assert model.is_feasible(res.x)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=30),
            min_size=2,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_knapsacks_match_brute_force(self, values, capacity):
        weights = [(v % 7) + 1 for v in values]
        model = knapsack(values, weights, capacity)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, capacity)
        )


class TestIntegerVariables:
    def test_general_integer(self):
        model = Model()
        x = model.add_var("x", vtype=VarType.INTEGER, ub=100)
        y = model.add_var("y", vtype=VarType.INTEGER, ub=100)
        model.add_constr(7 * x + 5 * y <= 38)
        model.set_objective(2 * x + 3 * y, sense=Sense.MAXIMIZE)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        # y = 7 (35 weight), x = 0 -> 21
        assert res.objective == pytest.approx(21.0)

    def test_minimization_sense(self):
        model = Model()
        x = model.add_var("x", vtype=VarType.INTEGER, lb=0, ub=10)
        model.add_constr(x >= 2.5)
        model.set_objective(x, sense=Sense.MINIMIZE)
        res = solve_milp(model)
        assert res.objective == pytest.approx(3.0)

    def test_mixed_integer_continuous(self):
        model = Model()
        x = model.add_var("x", ub=10)  # continuous
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(x <= 10 * b)
        model.add_constr(x + b <= 5.5)
        model.set_objective(x, sense=Sense.MAXIMIZE)
        res = solve_milp(model)
        assert res.objective == pytest.approx(4.5)
        assert res.x[1] == pytest.approx(1.0)


class TestInfeasibleAndBudgets:
    def test_infeasible_model(self):
        model = Model()
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(b >= 0.4)
        model.add_constr(b <= 0.6)
        res = solve_milp(model)
        assert res.status is SolveStatus.INFEASIBLE
        assert not res.has_incumbent

    def test_node_limit_reports_bound(self):
        # A knapsack too big to finish in 1 node.
        rng = np.random.default_rng(0)
        values = rng.integers(10, 100, size=25).tolist()
        weights = rng.integers(5, 40, size=25).tolist()
        model = knapsack(values, weights, 100)
        res = solve_milp(
            model,
            MILPOptions(node_limit=1),
        )
        assert res.status is SolveStatus.NODE_LIMIT
        # Dual bound must dominate any incumbent (maximisation).
        if res.has_incumbent:
            assert res.best_bound >= res.objective - 1e-6

    def test_time_limit_zero_times_out(self):
        values = list(range(1, 20))
        weights = [(v % 5) + 1 for v in values]
        model = knapsack(values, weights, 12)
        res = solve_milp(model, MILPOptions(time_limit=0.0))
        assert res.status is SolveStatus.TIMEOUT

    def test_gap_between_bound_and_incumbent_closes(self):
        values = [10, 13, 18, 31, 7]
        weights = [1, 2, 3, 4, 5]
        model = knapsack(values, weights, 7)
        res = solve_milp(model)
        assert res.gap == pytest.approx(0.0)


    def test_near_optimal_nodes_are_not_pruned(self):
        """The search prunes a node only when its bound cannot beat the
        incumbent by more than ``GAP_TOL``.  Here the first incumbent
        (items 1 and 2, 16.01) is 0.02 short of the optimum (items 0
        and 1, 16.03), so a pruning tolerance of 0.05 would stop at the
        first incumbent."""
        values = [13.02, 3.01, 13.0, 14.03, 14.02]
        weights = [5, 1, 3, 6, 7]
        sink = RingBufferSink()
        res = solve_milp(knapsack(values, weights, 6), tracer=Tracer([sink]))
        incumbents = [
            -r["attrs"]["objective"] for r in sink.records
            if r["name"] == "incumbent"
        ]
        assert incumbents[0] == pytest.approx(16.01)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(16.03, abs=1e-9)
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, 6), abs=1e-9
        )


class TestOptions:
    def test_unknown_backend_rejected(self):
        """HiGHS is the only LP engine: there is no backend option to
        set, so a stale ``lp_backend`` or ``warm_start`` fails loudly."""
        with pytest.raises(TypeError):
            MILPOptions(lp_backend="gurobi")
        with pytest.raises(TypeError):
            MILPOptions(warm_start=False)

    def test_pure_lp_through_milp(self):
        model = Model()
        x = model.add_var("x", ub=4)
        model.set_objective(x, sense=Sense.MAXIMIZE)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(4.0)
        assert res.nodes <= 1

    @pytest.mark.parametrize("sense", [Sense.MAXIMIZE, Sense.MINIMIZE])
    def test_objective_constant_reported(self, sense):
        """Regression: affine objectives (network encodings fold biases
        into a constant) must report the constant in objective and
        best_bound."""
        model = Model()
        x = model.add_var("x", ub=4)
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(x + b <= 4.5)
        model.set_objective(x + b + 100.0, sense=sense)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        expected = 104.5 if sense is Sense.MAXIMIZE else 100.0
        assert res.objective == pytest.approx(expected)
        assert res.best_bound == pytest.approx(expected)
        assert res.objective == pytest.approx(
            model.objective_value(res.x)
        )


class TestWarmStartedSearch:
    """Every node LP re-solves warm on the search's one HiGHS session
    (the basis its previous node left); the search must still land on
    the brute-force optimum."""

    def _random_knapsack(self, rng, size=10):
        values = rng.integers(5, 60, size=size).tolist()
        weights = rng.integers(1, 12, size=size).tolist()
        capacity = int(sum(weights) // 2)
        return values, weights, capacity

    def test_most_fractional_matches_brute_force(self):
        """A model without branching scores (no hook) branches on the
        most fractional column."""
        for seed in (21, 22, 23):
            rng = np.random.default_rng(seed)
            values, weights, capacity = self._random_knapsack(rng, size=12)
            res = solve_milp(knapsack(values, weights, capacity))
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(
                brute_force_knapsack(values, weights, capacity)
            )


def _hand_net() -> FeedForwardNetwork:
    """``y = 2 relu(h0 + 3 h1 - 1)`` with ``h = relu(x)`` on ``[-1, 1]²``.

    With interval bounds and no margin the first layer's neurons have
    bounds ``[-1, 1]`` (triangle slope 1/2) and the second layer's
    ``[-1, 3]`` (slope 3/4), so the back-substituted objective
    coefficients are ``|lambda| = (2 * 3/4 * 1, 2 * 3/4 * 3, 2)
    = (1.5, 4.5, 2)``.
    """
    return FeedForwardNetwork([
        DenseLayer(np.eye(2), np.zeros(2), "relu"),
        DenseLayer(np.array([[1.0], [3.0]]), np.array([-1.0]), "relu"),
        DenseLayer(np.array([[2.0]]), np.zeros(1), "identity"),
    ])


def _hand_encoding():
    encoded = encode_network(
        _hand_net(), InputRegion(np.array([[-1.0, 1.0]] * 2)),
        EncoderOptions(bound_mode="interval", bound_margin=0.0),
    )
    attach_objective(encoded, OutputObjective.single(0), maximize=True)
    return encoded


def _hand_point(encoded, gap_h1):
    """An LP-like point at inputs ``(0.2, 0.1)`` whose first-layer
    relaxation gaps are 0.6 and ``gap_h1``, the second layer's 0.1, and
    every phase column is one half."""
    model = encoded.model
    x = np.zeros(model.num_vars)

    def put(name, value):
        x[model.var_by_name(name).index] = value

    put("in0", 0.2)
    put("in1", 0.1)
    put("a_0_0", 0.2 + 0.6)
    put("a_0_1", 0.1 + gap_h1)
    z_g = (0.2 + 0.6) + 3 * (0.1 + gap_h1) - 1.0
    put("a_1_0", z_g + 0.1)
    for name in ("d_0_0", "d_0_1", "d_1_0"):
        put(name, 0.5)
    return x


class TestNeuronBranching:
    """The network hook scores a fractional phase column by its neuron's
    relaxation gap at the LP point times its back-substituted objective
    coefficient; the search branches on the best score."""

    def test_sensitivity_back_substitutes_through_slopes(self):
        encoded = _hand_encoding()
        assert [n.d_col for n in encoded.neurons] == [
            encoded.model.var_by_name(name).index
            for name in ("d_0_0", "d_0_1", "d_1_0")
        ]
        np.testing.assert_allclose(
            encoded._sensitivity(), [1.5, 4.5, 2.0], rtol=1e-12
        )

    @pytest.mark.parametrize("gap_h1, winner", [
        # Gap alone picks h0 and sensitivity alone h1; the product
        # (0.9, 0.675, 0.2) picks h0 ...
        (0.15, "d_0_0"),
        # ... and (0.9, 1.125, 0.2) picks h1, while the gap still
        # favours h0.
        (0.25, "d_0_1"),
    ])
    def test_product_picks_the_neuron(self, gap_h1, winner):
        encoded = _hand_encoding()
        x = _hand_point(encoded, gap_h1)
        cols = np.array(sorted(n.d_col for n in encoded.neurons))
        scores = encoded.branch_scores(x, cols)
        np.testing.assert_allclose(
            scores, [0.6 * 1.5, gap_h1 * 4.5, 0.1 * 2.0], rtol=1e-9
        )
        picked = _pick_branch_var(cols, x[cols], scores)
        assert encoded.model.variables[picked].name == winner

    def test_sensitivity_follows_the_objective(self):
        encoded = _hand_encoding()
        first = encoded._sensitivity()
        encoded.model.set_objective(
            -0.5 * encoded.output_exprs[0], sense=Sense.MAXIMIZE
        )
        np.testing.assert_allclose(
            encoded._sensitivity(), first / 2.0, rtol=1e-12
        )

    def test_no_positive_score_falls_back_to_most_fractional(self):
        cols = np.array([3, 5, 7])
        values = np.array([0.1, 0.45, 0.7])
        for scores in (None, np.zeros(3), np.array([0.0, -1.0, -2.0])):
            assert _pick_branch_var(cols, values, scores) == 5
        assert _pick_branch_var(cols, values, np.array([0, 0, 1e-9])) == 7
        # Ties go to the first column.
        assert _pick_branch_var(cols, values, np.array([2.0, 1.0, 2.0])) == 3

    def test_zero_scores_search_like_no_hook(self):
        rng = np.random.default_rng(0)
        values = rng.integers(5, 60, size=10).tolist()
        weights = rng.integers(1, 12, size=10).tolist()
        model = knapsack(values, weights, int(sum(weights) // 2))
        plain = solve_milp(model)
        zero = solve_milp(
            model, branch_scores=lambda x, cols: np.zeros(len(cols))
        )
        assert plain.nodes > 0
        assert (zero.nodes, zero.lp_iterations) == (
            plain.nodes, plain.lp_iterations
        )
        assert zero.objective == plain.objective

    @pytest.mark.parametrize("seed", range(3))
    def test_hook_and_no_hook_match_brute_force(self, seed):
        network = FeedForwardNetwork.mlp(
            2, [5, 5], 1, rng=np.random.default_rng(seed)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        encoded = encode_network(
            network, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(0), maximize=True)
        truth, _ = enumerated_max(network, region, 0, solve_lp=highs_lp)
        hooked = solve_milp(
            encoded.model, complete=encoded.complete,
            branch_scores=encoded.branch_scores,
        )
        plain = solve_milp(encoded.model)
        for res in (hooked, plain):
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(truth, abs=1e-5)
            assert res.best_bound >= truth - 1e-9


class TestHonestBestBound:
    """The search prunes a node whose bound is within ``GAP_TOL`` of
    the incumbent, so an OPTIMAL answer's ``best_bound`` is the best
    such pruned bound, not the incumbent's value."""

    def test_best_bound_brackets_the_true_maximum(self):
        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(2)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        encoded = encode_network(
            network, region, EncoderOptions(bound_mode="interval")
        )
        attach_objective(encoded, OutputObjective.single(0), maximize=True)
        truth, _ = enumerated_max(network, region, 0, solve_lp=highs_lp)
        plain = solve_milp(encoded.model)
        runs = [
            solve_milp(encoded.model, complete=encoded.complete),
            solve_milp(
                encoded.model, complete=encoded.complete,
                branch_scores=encoded.branch_scores,
            ),
        ]
        for res in runs:
            assert res.status is SolveStatus.OPTIMAL
            # The enumeration and the incumbent evaluate the same piece
            # by different arithmetic: allow round-off, nothing more.
            assert res.objective <= truth + 1e-12
            assert truth <= res.best_bound
            assert res.best_bound <= res.objective + GAP_TOL
        # Without completion the incumbent is an LP vertex whose phase
        # columns are integral only within ``INTEGRALITY_TOL``; on this
        # net that vertex sits 2e-7 above the network's maximum.
        assert plain.status is SolveStatus.OPTIMAL
        assert truth <= plain.best_bound <= plain.objective + GAP_TOL
        assert plain.objective <= truth + GAP_TOL
        runs.append(plain)
        # Every run's bound also covers every point any run accepted, up
        # to the round-off between two searches' LP solves.
        best_found = max(res.objective for res in runs)
        assert all(res.best_bound >= best_found - 1e-12 for res in runs)


def _fail_after_root(monkeypatch):
    """Let the root LP solve normally, then fail every later node LP."""
    calls = []
    real = scipy_backend.HighsSession.solve

    def solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return real(*args, **kwargs)
        return LPResult(SolveStatus.ERROR)

    monkeypatch.setattr(scipy_backend.HighsSession, "solve", solve)


class TestFailedNodeLP:
    """A node LP that fails proves nothing about its node: the search
    must end as ERROR instead of pruning the node as if infeasible."""

    def test_search_ends_as_error(self, monkeypatch):
        rng = np.random.default_rng(0)
        values = rng.integers(5, 60, size=10).tolist()
        weights = rng.integers(1, 12, size=10).tolist()
        capacity = int(sum(weights) // 2)
        reference = solve_milp(knapsack(values, weights, capacity))
        assert reference.status is SolveStatus.OPTIMAL
        assert reference.nodes > 0  # the root alone does not settle it
        _fail_after_root(monkeypatch)
        res = solve_milp(knapsack(values, weights, capacity))
        assert res.status is SolveStatus.ERROR
        assert not res.has_incumbent

    def test_verifier_reports_error_not_verified(self, monkeypatch):
        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(3)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        # Interval bounds keep HiGHS out of the encoder, so the patched
        # solver sees only the search's node LPs.
        verifier = Verifier(network, EncoderOptions(bound_mode="interval"))
        top = verifier.maximize(region, OutputObjective.single(0))
        assert top.verdict is Verdict.MAX_FOUND
        prop = SafetyProperty(
            name="leq", region=region,
            objective=OutputObjective.single(0),
            threshold=float(top.value) + 0.05,
        )
        reference = verifier.prove(prop)
        assert reference.verdict is Verdict.VERIFIED
        assert reference.solver != "static"
        assert reference.nodes > 0
        _fail_after_root(monkeypatch)
        assert verifier.prove(prop).verdict is Verdict.ERROR


def _reject_every_point(monkeypatch):
    """Make the model's feasibility check reject every candidate."""
    monkeypatch.setattr(Model, "is_feasible", lambda self, x, tol=0: False)


class TestRejectedIntegralLeaf:
    """An integral LP point that the feasibility check rejects leaves its
    node unresolved: the search must end as ERROR, never as INFEASIBLE
    (which a decision query would turn into a proof)."""

    def test_root(self, monkeypatch):
        # Everything fits, so the root relaxation is already integral.
        model = knapsack([3, 5, 7], [1, 1, 1], 10)
        assert solve_milp(model).nodes == 0
        _reject_every_point(monkeypatch)
        res = solve_milp(model)
        assert res.status is SolveStatus.ERROR
        assert not res.has_incumbent

    def test_after_root(self, monkeypatch):
        rng = np.random.default_rng(0)
        values = rng.integers(5, 60, size=10).tolist()
        weights = rng.integers(1, 12, size=10).tolist()
        model = knapsack(values, weights, int(sum(weights) // 2))
        assert solve_milp(model).nodes > 0  # the root is fractional
        _reject_every_point(monkeypatch)
        res = solve_milp(model)
        assert res.status is SolveStatus.ERROR
        assert res.nodes > 0
        assert not res.has_incumbent

    def test_verifier_reports_error_not_verified(self, monkeypatch):
        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(3)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        verifier = Verifier(network, EncoderOptions(bound_mode="interval"))
        top = verifier.maximize(region, OutputObjective.single(0))
        assert top.verdict is Verdict.MAX_FOUND
        # Below the maximum: a violating point exists, so only rejected
        # integral leaves could make the violation model look empty.
        prop = SafetyProperty(
            name="leq", region=region,
            objective=OutputObjective.single(0),
            threshold=float(top.value) - 0.05,
        )
        assert verifier.prove(prop).verdict is Verdict.FALSIFIED
        _reject_every_point(monkeypatch)
        assert verifier.prove(prop).verdict is Verdict.ERROR
