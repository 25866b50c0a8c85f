"""Differential test: branch and bound on HiGHS against brute-force
enumeration of activation patterns.

The oracle shares no search code with the prover.  It walks the ReLU
activation patterns of seeded tiny networks layer by layer; each fixed
prefix is a polytope of inputs on which the network is affine, so one LP
per prefix (solved by the from-scratch revised simplex in
``tests/oracles``, not by HiGHS) either shows the prefix empty, pruning
every extension, or — for a full pattern — gives the exact maximum of
the output on that piece.  The largest piece maximum is the network's
maximum over the box.  The search must find the same maximum and the
same decision verdicts next to it, and a search cut short by its node or
time budget must say so (NODE_LIMIT / TIMEOUT) instead of claiming a
proof.
"""

import functools
import itertools

import numpy as np
import pytest

from repro.core.encoder import EncoderOptions, attach_objective, encode_network
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions, SolveStatus, solve_milp
from repro.nn import FeedForwardNetwork

from ..oracles.revised_simplex import solve_lp

SEEDS = range(5)


def _net(seed):
    net = FeedForwardNetwork.mlp(3, [4, 4], 2, rng=np.random.default_rng(seed))
    # Random biases move the kinks off the origin, so many patterns are
    # empty and the enumeration stays a few hundred LPs.
    bias_rng = np.random.default_rng(100 + seed)
    for layer in net.layers:
        layer.bias = bias_rng.uniform(-0.5, 0.5, layer.bias.shape)
    return net


def _region():
    return InputRegion(np.array([[-1.0, 1.0]] * 3))


def _verifier(net, **milp):
    # Interval bounds and no static prescreen keep enough ambiguous ReLUs
    # for the search to branch on these small nets.
    return Verifier(
        net,
        EncoderOptions(bound_mode="interval", static_prescreen=False),
        MILPOptions(**{"time_limit": 60.0, **milp}),
    )


def _enumerated_max(net, region, output):
    """Maximum of ``output`` over ``region`` by activation-pattern
    enumeration; returns ``(maximum, pattern LPs solved)``."""
    bounds = [tuple(map(float, row)) for row in region.bounds]
    dim = len(bounds)
    best = -np.inf
    solved = 0

    def descend(depth, affine, offset, rows, rhs):
        # ``affine @ x + offset`` is the current layer's input on the
        # polytope ``rows @ x <= rhs`` of inputs sharing the prefix.
        nonlocal best, solved
        layer = net.layers[depth]
        pre_w = affine @ layer.weights  # (dim, fan_out)
        pre_b = offset @ layer.weights + layer.bias
        if depth == len(net.layers) - 1:
            result = solve_lp(-pre_w[:, output], rows, rhs, bounds=bounds)
            solved += 1
            assert result.status is SolveStatus.OPTIMAL
            best = max(best, -result.objective + pre_b[output])
            return
        for pattern in itertools.product((0, 1), repeat=layer.fan_out):
            active = np.array(pattern, dtype=bool)
            # Active: pre >= 0, i.e. -pre <= 0.  Inactive: pre <= 0.
            sign = np.where(active, -1.0, 1.0)
            new_rows = np.vstack([rows, (pre_w * sign).T])
            new_rhs = np.concatenate([rhs, -pre_b * sign])
            probe = solve_lp(np.zeros(dim), new_rows, new_rhs, bounds=bounds)
            solved += 1
            if probe.status is SolveStatus.INFEASIBLE:
                continue  # empty prefix: no extension can be reached
            assert probe.status is SolveStatus.OPTIMAL
            descend(
                depth + 1, pre_w * active, pre_b * active, new_rows, new_rhs
            )

    descend(0, np.eye(dim), np.zeros(dim), np.zeros((0, dim)), np.zeros(0))
    return best, solved


@functools.lru_cache(maxsize=None)
def _oracle(seed):
    return _enumerated_max(_net(seed), _region(), 0)


@functools.lru_cache(maxsize=None)
def _maximum(seed):
    return _verifier(_net(seed)).maximize(
        _region(), OutputObjective.single(0)
    )


class TestBackendsAgree:
    """HiGHS-backed branch and bound agrees with the enumeration, whose
    piece LPs run on the independent revised simplex."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_optima_agree(self, seed):
        result = _maximum(seed)
        assert result.verdict is Verdict.MAX_FOUND
        optimum, solved = _oracle(seed)
        assert solved > 1  # the enumeration really walked patterns
        assert result.value == pytest.approx(optimum, abs=1e-6)

    def test_searches_really_branch(self):
        assert max(_maximum(seed).nodes for seed in SEEDS) > 1

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("delta, expected", [
        (1e-3, Verdict.VERIFIED), (-1e-3, Verdict.FALSIFIED),
    ], ids=["above", "below"])
    def test_decision_verdicts_agree(self, seed, delta, expected):
        prop = SafetyProperty(
            name="near_max", region=_region(),
            objective=OutputObjective.single(0),
            threshold=_oracle(seed)[0] + delta,
        )
        assert _verifier(_net(seed)).prove(prop).verdict is expected


class TestBudgetExits:
    """A budget exit is never a proof."""

    @staticmethod
    def _branching_seeds():
        seeds = [s for s in SEEDS if _maximum(s).nodes > 1]
        assert seeds
        return seeds

    def test_node_limit_reports_node_limit(self):
        for seed in self._branching_seeds():
            encoded = encode_network(
                _net(seed), _region(), EncoderOptions(bound_mode="interval")
            )
            attach_objective(encoded, OutputObjective.single(0), maximize=True)
            full = solve_milp(encoded.model)
            if full.nodes <= 1:
                continue
            cut = solve_milp(encoded.model, MILPOptions(node_limit=1))
            assert cut.status is SolveStatus.NODE_LIMIT

    @pytest.mark.parametrize("budget", [
        {"node_limit": 1}, {"time_limit": 0.0},
    ])
    def test_budgeted_decision_never_verified(self, budget):
        """A threshold just above the optimum needs the whole tree; cut
        short, the verdict is TIMEOUT."""
        checked = 0
        for seed in self._branching_seeds():
            net = _net(seed)
            prop = SafetyProperty(
                name="tight", region=_region(),
                objective=OutputObjective.single(0),
                threshold=_oracle(seed)[0] + 1e-3,
            )
            full = _verifier(net).prove(prop)
            assert full.verdict is Verdict.VERIFIED
            if full.nodes <= 1:
                continue  # the root alone proves it: no budget can cut it
            checked += 1
            cut = _verifier(net, **budget).prove(prop)
            assert cut.verdict is Verdict.TIMEOUT
        assert checked
