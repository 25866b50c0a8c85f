"""Differential test: branch and bound on the warm HiGHS session against
the from-scratch revised simplex.

Both backends search the same encodings of seeded tiny networks; they
may walk different trees (their optimal vertices and warm bases differ)
but must reach the same maxima and the same decision verdicts, and a
search cut short by its node or time budget must say so (NODE_LIMIT /
TIMEOUT) instead of claiming a proof.
"""

import numpy as np
import pytest

from repro.core.encoder import EncoderOptions, attach_objective, encode_network
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions, SolveStatus, solve_milp
from repro.nn import FeedForwardNetwork

BACKENDS = ("highs", "revised")
SEEDS = range(5)


def _net(seed):
    return FeedForwardNetwork.mlp(3, [6, 6], 2, rng=np.random.default_rng(seed))


def _region():
    return InputRegion(np.array([[-1.0, 1.0]] * 3))


def _verifier(net, backend, **milp):
    # Interval bounds and no static prescreen keep enough ambiguous ReLUs
    # for the search to branch on these small nets.
    return Verifier(
        net,
        EncoderOptions(bound_mode="interval", static_prescreen=False),
        MILPOptions(lp_backend=backend, **{"time_limit": 60.0, **milp}),
    )


def _maxima(seed):
    net = _net(seed)
    return {
        b: _verifier(net, b).maximize(_region(), OutputObjective.single(0))
        for b in BACKENDS
    }


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_optima_agree(self, seed):
        results = _maxima(seed)
        for result in results.values():
            assert result.verdict is Verdict.MAX_FOUND
        assert results["highs"].value == pytest.approx(
            results["revised"].value, abs=1e-6
        )

    def test_searches_really_branch(self):
        assert max(_maxima(seed)["highs"].nodes for seed in SEEDS) > 1

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("delta, expected", [
        (0.05, Verdict.VERIFIED), (-0.05, Verdict.FALSIFIED),
    ])
    def test_decision_verdicts_agree(self, seed, delta, expected):
        net = _net(seed)
        optimum = _maxima(seed)["revised"].value
        prop = SafetyProperty(
            name="near_max", region=_region(),
            objective=OutputObjective.single(0), threshold=optimum + delta,
        )
        for backend in BACKENDS:
            assert _verifier(net, backend).prove(prop).verdict is expected


class TestBudgetExits:
    """A budget exit is never a proof, on either backend."""

    @staticmethod
    def _branching_seeds():
        seeds = [s for s in SEEDS if _maxima(s)["highs"].nodes > 1]
        assert seeds
        return seeds

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_node_limit_reports_node_limit(self, backend):
        for seed in self._branching_seeds():
            encoded = encode_network(
                _net(seed), _region(), EncoderOptions(bound_mode="interval")
            )
            attach_objective(encoded, OutputObjective.single(0), maximize=True)
            full = solve_milp(
                encoded.model, MILPOptions(lp_backend=backend)
            )
            if full.nodes <= 1:
                continue
            cut = solve_milp(
                encoded.model,
                MILPOptions(lp_backend=backend, node_limit=1),
            )
            assert cut.status is SolveStatus.NODE_LIMIT

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("budget", [
        {"node_limit": 1}, {"time_limit": 0.0},
    ])
    def test_budgeted_decision_never_verified(self, backend, budget):
        """A threshold just above the optimum needs the whole tree; cut
        short, the verdict is TIMEOUT."""
        checked = 0
        for seed in self._branching_seeds():
            net = _net(seed)
            prop = SafetyProperty(
                name="tight", region=_region(),
                objective=OutputObjective.single(0),
                threshold=_maxima(seed)["revised"].value + 1e-3,
            )
            full = _verifier(net, backend).prove(prop)
            assert full.verdict is Verdict.VERIFIED
            if full.nodes <= 1:
                continue  # the root alone proves it: no budget can cut it
            checked += 1
            cut = _verifier(net, backend, **budget).prove(prop)
            assert cut.verdict is Verdict.TIMEOUT
        assert checked
