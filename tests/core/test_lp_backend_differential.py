"""Differential test: branch and bound on HiGHS against brute-force
enumeration of activation patterns.

The oracle (``tests/oracles/patterns.py``) shares no search code with
the prover.  It walks the ReLU activation patterns of seeded tiny
networks layer by layer, one LP per pattern prefix, solved by the
from-scratch revised simplex in ``tests/oracles``, not by HiGHS.  The
search must find the same maximum and the same decision verdicts next to
it, the checker must accept every VERIFIED verdict's certificate, and a
search cut short by its node or time budget must say so (NODE_LIMIT /
TIMEOUT) instead of claiming a proof.
"""

import functools
import json

import numpy as np
import pytest

from repro.core.encoder import EncoderOptions, attach_objective, encode_network
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions, SolveStatus, solve_milp
from repro.nn import FeedForwardNetwork
from repro.proof.check import check_certificate

from ..oracles.patterns import enumerated_max

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


def _verifier(net, certify=False, **milp):
    # Interval bounds and no static prescreen keep enough ambiguous ReLUs
    # for the search to branch on these small nets (a certified query
    # encodes with the symbolic chain's bounds, which the checker
    # re-derives).
    return Verifier(
        net,
        EncoderOptions(
            bound_mode="interval", static_prescreen=False, certify=certify,
        ),
        MILPOptions(**{"time_limit": 60.0, **milp}),
    )


@functools.lru_cache(maxsize=None)
def _oracle(seed):
    return enumerated_max(_net(seed), _region(), 0)


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
        certified = _verifier(_net(seed), certify=True).prove(prop)
        assert certified.verdict is expected
        if expected is Verdict.VERIFIED:
            assert certified.solver != "static"
            assert certified.certificate is not None
            # The checker replays the certificate after a JSON round
            # trip, as ``repro check`` would.
            report = check_certificate(
                json.loads(json.dumps(certified.certificate))
            )
            assert not report.has_errors, report.errors


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
