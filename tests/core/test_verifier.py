"""Verifier tests: max queries, decision queries, Table II plumbing."""

import math
import time

import numpy as np
import pytest

from repro.core.encoder import EncoderOptions
from repro.core.properties import (
    InputRegion,
    OutputObjective,
    SafetyProperty,
    vehicle_on_left_region,
)
from repro.core.verifier import TableIIRow, Verdict, Verifier
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork


def unit_region(dim):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


@pytest.fixture(scope="module")
def verifier():
    net = FeedForwardNetwork.mlp(
        6, [8, 8], 3, rng=np.random.default_rng(7)
    )
    return Verifier(
        net,
        EncoderOptions(bound_mode="lp"),
        MILPOptions(time_limit=60.0),
    )


class TestMaxQueries:
    def test_max_found_and_replayed(self, verifier):
        result = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        )
        assert result.verdict is Verdict.MAX_FOUND
        assert result.value == pytest.approx(
            result.network_value, abs=1e-4
        )
        assert result.counterexample is not None
        assert result.wall_time > 0
        assert result.nodes >= 0

    def test_max_dominates_sampling(self, verifier, rng):
        result = verifier.maximize(
            unit_region(6), OutputObjective.single(1)
        )
        xs = rng.uniform(-1, 1, size=(5000, 6))
        sampled = verifier.network.forward(xs)[:, 1].max()
        assert result.value >= sampled - 1e-6

    def test_timeout_reported(self):
        net = FeedForwardNetwork.mlp(
            8, [14, 14, 14], 2, rng=np.random.default_rng(0)
        )
        v = Verifier(
            net,
            EncoderOptions(bound_mode="interval"),
            MILPOptions(time_limit=0.0),
        )
        result = v.maximize(unit_region(8), OutputObjective.single(0))
        assert result.verdict is Verdict.TIMEOUT

    def test_infeasible_region_raises_by_default(self, verifier):
        from repro.core.properties import LinearInputConstraint
        from repro.errors import EncodingError

        region = unit_region(6)
        constraint = LinearInputConstraint({}, rhs=-2.0)
        constraint.as_indexed = lambda: ({0: 1.0}, -2.0)
        region.add_constraint(constraint)
        with pytest.raises(EncodingError):
            verifier.maximize(region, OutputObjective.single(0))

    def test_infeasible_region_degrades_to_error(self, verifier):
        from repro.core.properties import LinearInputConstraint

        region = unit_region(6)
        constraint = LinearInputConstraint({}, rhs=-2.0)
        constraint.as_indexed = lambda: ({0: 1.0}, -2.0)
        region.add_constraint(constraint)
        result = verifier.maximize(
            region,
            OutputObjective.single(0),
            raise_on_infeasible=False,
        )
        assert result.verdict is Verdict.ERROR
        assert "infeasible" in result.description


class TestReportedValueIsReplayed:
    """A max query reports the network's own value at its incumbent's
    input, never the MILP objective, which an incumbent integral only
    within ``INTEGRALITY_TOL`` can push above what the network reaches.
    """

    @staticmethod
    def _lp_vertex_incumbents(monkeypatch, status=None):
        """Search without completion, so the incumbent is an LP vertex
        (on this net 2e-7 above the maximum); ``status`` relabels the
        search's answer."""
        import dataclasses

        from repro.core import verifier as verifier_mod

        real = verifier_mod.solve_milp

        def solve(model, options, tracer=None, complete=None,
                  branch_scores=None):
            result = real(model, options, tracer=tracer,
                          branch_scores=branch_scores)
            if status is not None:
                result = dataclasses.replace(result, status=status)
            return result

        monkeypatch.setattr(verifier_mod, "solve_milp", solve)

    @pytest.mark.parametrize("status", [None, "timeout"])
    def test_value_is_the_network_value(self, monkeypatch, status):
        from repro.milp.status import SolveStatus

        from ..oracles.highs import solve_lp as highs_lp
        from ..oracles.patterns import enumerated_max

        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(2)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        truth, _ = enumerated_max(network, region, 0, solve_lp=highs_lp)
        self._lp_vertex_incumbents(
            monkeypatch, status and SolveStatus.TIMEOUT
        )
        result = Verifier(
            network, EncoderOptions(bound_mode="interval"),
        ).maximize(region, OutputObjective.single(0))
        assert result.verdict is (
            Verdict.TIMEOUT if status else Verdict.MAX_FOUND
        )
        assert result.value == result.network_value
        assert result.value == network.forward(result.counterexample)[0][0]
        # The enumeration and the replay evaluate the same piece by
        # different arithmetic: allow round-off, nothing more.
        assert result.value <= truth + 1e-12
        assert result.best_bound >= result.value
        assert result.best_bound >= truth - 1e-12


class TestDecisionQueries:
    def test_property_above_max_verifies(self, verifier):
        max_result = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        )
        prop = SafetyProperty(
            name="bounded",
            region=unit_region(6),
            objective=OutputObjective.single(0),
            threshold=max_result.value + 0.5,
        )
        result = verifier.prove(prop)
        assert result.verdict is Verdict.VERIFIED

    def test_property_below_max_falsified_with_witness(self, verifier):
        max_result = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        )
        prop = SafetyProperty(
            name="too_tight",
            region=unit_region(6),
            objective=OutputObjective.single(0),
            threshold=max_result.value - 0.2,
        )
        result = verifier.prove(prop)
        assert result.verdict is Verdict.FALSIFIED
        assert result.counterexample is not None
        # The witness genuinely violates the property on the real net.
        outputs = verifier.network.forward(result.counterexample)[0]
        assert not prop.holds_on(outputs, tol=1e-4)


class TestTimeBudget:
    """Bounding and search spend from one time limit: the search gets
    what is left of it, not the whole limit again."""

    BOUNDING_S = 0.2

    @pytest.fixture()
    def search_limits(self, monkeypatch):
        import repro.core.encoder as encoder
        import repro.core.verifier as verifier_module

        compute_bounds = encoder.compute_bounds
        solve_milp = verifier_module.solve_milp
        limits = []

        def slow_bounds(*args, **kwargs):
            time.sleep(self.BOUNDING_S)
            return compute_bounds(*args, **kwargs)

        def recording_solve(model, options, **kwargs):
            limits.append(options.time_limit)
            return solve_milp(model, options, **kwargs)

        monkeypatch.setattr(encoder, "compute_bounds", slow_bounds)
        monkeypatch.setattr(verifier_module, "solve_milp", recording_solve)
        return limits

    def test_maximize(self, verifier, search_limits):
        result = verifier.maximize(unit_region(6), OutputObjective.single(0))
        assert result.verdict is Verdict.MAX_FOUND
        assert len(search_limits) == 1
        limit = verifier.milp_options.time_limit
        assert 0.0 < search_limits[0] <= limit - self.BOUNDING_S

    def test_prove(self, verifier, search_limits):
        value = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        ).value
        del search_limits[:]
        result = verifier.prove(SafetyProperty(
            name="too_tight",
            region=unit_region(6),
            objective=OutputObjective.single(0),
            threshold=value - 0.2,
        ))
        assert result.verdict is Verdict.FALSIFIED
        assert len(search_limits) == 1
        limit = verifier.milp_options.time_limit
        assert 0.0 < search_limits[0] <= limit - self.BOUNDING_S

    def test_spent_budget_leaves_a_floor(self, search_limits):
        verifier = Verifier(
            FeedForwardNetwork.mlp(6, [8, 8], 3, rng=np.random.default_rng(7)),
            EncoderOptions(bound_mode="lp"),
            MILPOptions(time_limit=0.5 * self.BOUNDING_S),
        )
        verifier.maximize(unit_region(6), OutputObjective.single(0))
        assert search_limits == [0.01]


class TestCaseStudyQueries:
    def test_max_velocity(self, small_study, small_predictor):
        from repro import casestudy

        region = vehicle_on_left_region(small_study.encoder)
        row = casestudy.verify_network(
            small_study, small_predictor, time_limit=120.0, region=region,
        )
        assert row.error is None
        if not row.timed_out:
            # Sound upper bound on anything sampling can find.
            samples = region.sample(np.random.default_rng(0), 100)
            outs = small_predictor.forward(samples)
            from repro.nn.mdn import mu_lat_indices

            sampled = outs[:, mu_lat_indices(2)].max()
            assert row.max_velocity >= sampled - 1e-6

    def test_ambiguity_report(self, small_study, small_predictor):
        region = vehicle_on_left_region(small_study.encoder)
        verifier = Verifier(
            small_predictor, EncoderOptions(bound_mode="lp")
        )
        ambiguous = verifier.ambiguity_report(region)
        assert 0 <= ambiguous <= small_predictor.relu_neuron_count()


class TestTableIIRow:
    def test_render_value(self):
        row = TableIIRow("I4x10", 0.688497, 5.4, False)
        text = row.render()
        assert "I4x10" in text
        assert "0.688497" in text
        assert "5.4s" in text

    def test_render_timeout(self):
        row = TableIIRow("I4x60", None, 3600.0, True)
        text = row.render()
        assert "n.a." in text
        assert "time-out" in text
