"""Input-region bisection driver (:mod:`repro.analysis.split`).

Covers the satellite bugfixes this PR ships with the tentpole:

* degenerate-split guard — point-like / too-narrow dimensions fall
  through to the MILP instead of recursing;
* sub-region cache identity — parent, children and siblings never share
  a fingerprint, so a cached parent verdict can never answer a child;
* budget accounting — the MILP time budget bounds the *sum* of shard
  solve times, and exhaustion mid-split reports TIMEOUT, never ERROR;
* soundness battery — assembled verdicts/optima match the unsplit
  verifier, including a counterexample lying exactly on a split plane,
  and the pooled campaign path agrees with the serial one.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.split import (
    RegionBisectionDriver,
    assemble_prove,
    input_sensitivity,
)
from repro.analysis.symbolic import symbolic_screen, symbolic_screens
from repro.core.encoder import EncoderOptions
from repro.core.properties import (
    InputRegion,
    LinearInputConstraint,
    OutputObjective,
    SafetyProperty,
)
from repro.core.verifier import (
    Verdict,
    Verifier,
    verdict_fingerprint,
)
from repro.errors import EncodingError
from repro.milp.branch_and_bound import MILPOptions
from repro.nn.layers import DenseLayer
from repro.nn.network import FeedForwardNetwork
from repro.tolerances import SPLIT_MIN_WIDTH


def unit_region(dim: int, name: str = "unit") -> InputRegion:
    return InputRegion(
        np.stack([np.zeros(dim), np.ones(dim)], axis=1), name=name
    )


def split_options(**overrides) -> EncoderOptions:
    defaults = dict(bound_mode="symbolic", split=True, split_depth=2)
    defaults.update(overrides)
    return EncoderOptions(**defaults)


@pytest.fixture(scope="module")
def objective():
    return OutputObjective.single(0)


@pytest.fixture(scope="module")
def driver(tiny_net):
    return RegionBisectionDriver(
        tiny_net,
        split_options(),
        MILPOptions(time_limit=60.0),
    )


# -- bisection geometry ------------------------------------------------------

class TestBisect:
    def test_closed_halves_cover_parent(self):
        region = unit_region(3)
        low, high = region.bisect(1)
        assert low.bounds[1, 0] == 0.0 and low.bounds[1, 1] == 0.5
        assert high.bounds[1, 0] == 0.5 and high.bounds[1, 1] == 1.0
        # Both halves are closed: the split plane belongs to each, so a
        # witness exactly on it is never lost.
        on_plane = np.array([0.2, 0.5, 0.8])
        assert low.contains(on_plane) and high.contains(on_plane)
        # Untouched dimensions are inherited verbatim.
        assert np.array_equal(low.bounds[0], region.bounds[0])
        assert np.array_equal(high.bounds[2], region.bounds[2])

    def test_children_inherit_constraints(self):
        region = unit_region(2)
        region.add_constraint(LinearInputConstraint({0: 1.0, 1: 1.0}, 1.5))
        low, high = region.bisect(0)
        assert len(low.constraints) == 1 and len(high.constraints) == 1
        assert not low.contains(np.array([0.9, 0.9]))  # cut by the row

    def test_zero_width_dimension_rejected(self):
        region = unit_region(2)
        region.bounds[0] = (0.25, 0.25)
        with pytest.raises(EncodingError):
            region.bisect(0)

    def test_out_of_range_dimension_rejected(self):
        with pytest.raises(EncodingError):
            unit_region(2).bisect(5)


# -- cache identity (satellite: fingerprint collision regression) -----------

class TestSubRegionFingerprints:
    def test_parent_children_siblings_all_distinct(self):
        region = unit_region(4)
        low, high = region.bisect(2)
        prints = {
            region.fingerprint(), low.fingerprint(), high.fingerprint()
        }
        assert len(prints) == 3

    def test_distinct_with_unchanged_linear_constraints(self):
        # The constraints are inherited verbatim by both halves; only
        # the box distinguishes them — it must be enough.
        region = unit_region(3)
        region.add_constraint(LinearInputConstraint({0: 1.0}, 0.75))
        low, high = region.bisect(0)
        assert low.fingerprint() != high.fingerprint()
        assert low.fingerprint() != region.fingerprint()
        assert high.fingerprint() != region.fingerprint()

    def test_verdict_fingerprints_distinguish_sub_regions(self, tiny_net):
        region = unit_region(tiny_net.input_dim)
        low, high = region.bisect(0)
        enc = EncoderOptions(bound_mode="symbolic")
        milp = MILPOptions(time_limit=60.0)
        obj = OutputObjective.single(0)
        prints = {
            verdict_fingerprint(
                tiny_net, r, obj, "prove", 1.0, enc, milp
            )
            for r in (region, low, high)
        }
        assert len(prints) == 3

    def test_verdict_fingerprints_distinguish_split_options(self, tiny_net):
        # A split run must never be answered from an unsplit run's
        # cached verdict (and vice versa): every split knob is part of
        # the options token.
        region = unit_region(tiny_net.input_dim)
        obj = OutputObjective.single(0)
        milp = MILPOptions(time_limit=60.0)
        variants = [
            EncoderOptions(bound_mode="symbolic"),
            EncoderOptions(bound_mode="symbolic", split=True),
            EncoderOptions(
                bound_mode="symbolic", split=True, split_depth=7
            ),
            EncoderOptions(
                bound_mode="symbolic", split=True, split_min_width=0.5
            ),
        ]
        prints = {
            verdict_fingerprint(
                tiny_net, region, obj, "max", 0.0, enc, milp
            )
            for enc in variants
        }
        assert len(prints) == len(variants)


# -- sensitivity -------------------------------------------------------------

class TestInputSensitivity:
    def test_linear_network_recovers_weights(self):
        network = FeedForwardNetwork([
            DenseLayer(
                np.array([[3.0], [-2.0]]), np.array([0.5]), "identity"
            )
        ])
        sens = input_sensitivity(
            network, unit_region(2), OutputObjective.single(0)
        )
        assert sens == pytest.approx([3.0, 2.0])

    def test_deep_network_shape_and_sign(self, tiny_net, objective):
        sens = input_sensitivity(
            tiny_net, unit_region(tiny_net.input_dim), objective
        )
        assert sens.shape == (tiny_net.input_dim,)
        assert np.all(sens >= 0.0)


# -- degenerate-split guard (satellite bugfix) ------------------------------

class TestDegenerateGuard:
    def test_point_region_falls_through_to_milp(self, tiny_net, objective):
        point = np.full(tiny_net.input_dim, 0.3)
        region = InputRegion(
            np.stack([point, point], axis=1), name="point"
        )
        driver = RegionBisectionDriver(
            tiny_net, split_options(split_depth=5),
            MILPOptions(time_limit=60.0),
        )
        plan = driver.plan(region, objective)
        # No dimension is splittable: exactly one node, handed to the
        # MILP without any recursion.
        assert plan.explored == 1
        assert len(plan.survivors) + plan.proofs == 1
        if plan.survivors:
            assert plan.survivors[0].depth == 0
            result = driver.maximize(region, objective)
            assert result.verdict is Verdict.MAX_FOUND
        else:
            result = driver.maximize(region, objective)
        expected = objective.value(tiny_net.forward(point)[0])
        assert result.value == pytest.approx(expected, abs=1e-5)

    def test_narrow_dimensions_never_bisected(self, tiny_net, objective):
        # Every width (0.4) is below 2 * min_width (0.6): bisection
        # would create children narrower than the floor, so the guard
        # must fall through at depth 0.
        dim = tiny_net.input_dim
        region = InputRegion(
            np.stack([np.full(dim, 0.3), np.full(dim, 0.7)], axis=1),
            name="narrow",
        )
        driver = RegionBisectionDriver(
            tiny_net, split_options(split_min_width=0.3),
            MILPOptions(time_limit=60.0),
        )
        plan = driver.plan(region, objective)
        assert plan.explored == 1
        assert plan.max_depth == 0

    def test_min_width_clamped_to_tolerance_floor(self, tiny_net):
        driver = RegionBisectionDriver(
            tiny_net, split_options(split_min_width=0.0),
            MILPOptions(time_limit=60.0),
        )
        assert driver.min_width == SPLIT_MIN_WIDTH

    def test_unsplittable_objective_dimension(self, objective):
        # The objective only depends on input 0; input 1 is wide but
        # irrelevant (zero weight), so sensitivity-times-width is zero
        # everywhere splittable once input 0 is exhausted.
        network = FeedForwardNetwork([
            DenseLayer(
                np.array([[1.0], [0.0]]), np.array([0.0]), "identity"
            )
        ])
        region = unit_region(2)
        region.bounds[0] = (0.5, 0.5)  # pinned: only dim 1 is wide
        driver = RegionBisectionDriver(
            network, split_options(), MILPOptions(time_limit=60.0)
        )
        plan = driver.plan(region, objective)
        assert plan.explored == 1  # no pointless bisection of dim 1


# -- plan pruning ------------------------------------------------------------

class TestPlanPruning:
    def test_loose_threshold_prunes_at_root(self, driver, tiny_net, objective):
        plan = driver.plan(
            unit_region(tiny_net.input_dim), objective, threshold=1e6
        )
        assert plan.all_pruned
        assert plan.proofs == 1 and plan.explored == 1
        assert plan.upper_bound < 1e6

    def test_max_plan_bounds_are_sound(self, driver, tiny_net, objective):
        region = unit_region(tiny_net.input_dim)
        plan = driver.plan(region, objective)
        assert len(plan.survivors) <= 2 ** driver.depth
        # The plan's upper bound must dominate the true maximum.
        rng = np.random.default_rng(3)
        samples = region.sample(rng, 64)
        best = max(
            objective.value(out) for out in tiny_net.forward(samples)
        )
        assert plan.upper_bound >= best - 1e-9
        assert plan.as_metrics()["split_cells"] == len(plan.survivors)

    def test_hopeless_gap_stalls_at_root(self, tiny_net, objective):
        # A threshold far below the region's reachable values leaves a
        # gap no amount of bisection tightening can close: the stall
        # gate must keep the region whole (one MILP shard) instead of
        # burning 2**depth prescreens and solves on unprunable leaves.
        region = unit_region(tiny_net.input_dim)
        driver = RegionBisectionDriver(
            tiny_net, split_options(split_depth=5),
            MILPOptions(time_limit=60.0),
        )
        lo = symbolic_screen(
            tiny_net, region, objective.coefficients
        ).objective_lower
        plan = driver.plan(region, objective, threshold=lo - 1e3)
        assert plan.explored == 1
        assert plan.stalled == 1
        assert len(plan.survivors) == 1 and plan.proofs == 0
        assert plan.as_metrics()["split_stalled"] == 1.0
        # The single shard still resolves the query correctly.
        prop = SafetyProperty(
            name="hopeless", region=region, objective=objective,
            threshold=lo - 1e3,
        )
        result = driver.prove(prop)
        assert result.verdict is Verdict.FALSIFIED

    def test_prunable_child_bypasses_stall_gate(self, driver, tiny_net,
                                                objective):
        # Threshold chosen between the two children's prescreen bounds:
        # one child prunes immediately, so the gate must descend even
        # when the measured tightening alone looks insufficient.
        region = unit_region(tiny_net.input_dim)
        screen = symbolic_screen(tiny_net, region, objective.coefficients)
        dim = driver._split_dim(region, screen.sensitivity)
        child_his = sorted(
            child.objective_upper for child in symbolic_screens(
                tiny_net, region.bisect(dim), objective.coefficients
            )
        )
        if child_his[0] == pytest.approx(child_his[1]):
            pytest.skip("children indistinguishable on this network")
        threshold = (child_his[0] + child_his[1]) / 2.0
        plan = driver.plan(region, objective, threshold=threshold)
        assert plan.proofs >= 1


# -- budget accounting (satellite bugfix) -----------------------------------

class TestBudgetAccounting:
    def test_exhausted_budget_is_timeout_not_error(self, tiny_net, objective):
        driver = RegionBisectionDriver(
            tiny_net, split_options(),
            MILPOptions(time_limit=1e-9),
        )
        region = unit_region(tiny_net.input_dim)
        result = driver.maximize(region, objective)
        assert result.verdict is Verdict.TIMEOUT
        prop = SafetyProperty(
            name="tight", region=region, objective=objective,
            threshold=-1e6,
        )
        result = driver.prove(prop)
        assert result.verdict is Verdict.TIMEOUT

    def test_budget_bounds_sum_of_shard_time(self, tiny_net, objective):
        # With the shared deadline, later shards get only the slice the
        # earlier ones left; the total must stay near the budget even
        # though the plan produced several survivors.
        budget = 2.0
        driver = RegionBisectionDriver(
            tiny_net, split_options(),
            MILPOptions(time_limit=budget),
        )
        result = driver.maximize(
            unit_region(tiny_net.input_dim), objective
        )
        assert result.wall_time < budget + 1.5  # one shard of overshoot

    def test_missing_shard_assembles_to_timeout(self, tiny_net, objective):
        # Fewer leaf results than survivors (the shared deadline ran
        # out before every survivor was solved) is TIMEOUT.
        driver = RegionBisectionDriver(
            tiny_net, split_options(), MILPOptions(time_limit=60.0)
        )
        region = unit_region(tiny_net.input_dim)
        plan = driver.plan(region, objective, threshold=-1e6)
        assert plan.survivors
        prop = SafetyProperty(
            name="t", region=region, objective=objective, threshold=-1e6
        )
        result = assemble_prove(
            prop, plan, [], tiny_net, wall_time=0.1,
        )
        assert result.verdict is Verdict.TIMEOUT


# -- soundness battery -------------------------------------------------------

class TestSoundness:
    @pytest.fixture(scope="class")
    def region(self, tiny_net):
        return unit_region(tiny_net.input_dim)

    @pytest.fixture(scope="class")
    def unsplit(self, tiny_net):
        return Verifier(
            tiny_net,
            EncoderOptions(bound_mode="symbolic"),
            MILPOptions(time_limit=60.0),
        )

    @pytest.fixture(scope="class")
    def split(self, tiny_net):
        return Verifier(
            tiny_net,
            split_options(),
            MILPOptions(time_limit=60.0),
        )

    def test_max_identical_to_unsplit(
        self, unsplit, split, region, objective
    ):
        a = unsplit.maximize(region, objective)
        b = split.maximize(region, objective)
        assert a.verdict is b.verdict is Verdict.MAX_FOUND
        assert b.value == pytest.approx(a.value, abs=1e-6)
        assert b.solver == "split"
        assert b.best_bound >= b.value - 1e-9
        assert b.split_cells + b.split_proofs >= 1

    def test_prove_verified_matches_unsplit(
        self, unsplit, split, tiny_net, region, objective
    ):
        threshold = unsplit.maximize(region, objective).value + 0.1
        prop = SafetyProperty(
            name="holds", region=region, objective=objective,
            threshold=threshold,
        )
        a = unsplit.prove(prop)
        b = split.prove(prop)
        assert a.verdict is b.verdict is Verdict.VERIFIED

    def test_prove_falsified_with_replayed_witness(
        self, unsplit, split, tiny_net, region, objective
    ):
        threshold = unsplit.maximize(region, objective).value - 0.1
        prop = SafetyProperty(
            name="fails", region=region, objective=objective,
            threshold=threshold,
        )
        a = unsplit.prove(prop)
        b = split.prove(prop)
        assert a.verdict is b.verdict is Verdict.FALSIFIED
        assert region.contains(b.counterexample)
        replayed = objective.value(
            tiny_net.forward(b.counterexample)[0]
        )
        assert replayed >= threshold - 1e-4

    def test_counterexample_exactly_on_split_plane(self):
        # output(x) = -(relu(x - c) + relu(c - x)) = -|x - c|: the
        # unique maximiser x = c sits exactly on the first bisection
        # plane of a region centred at c.  Both closed halves contain
        # it, so the assembled verdict must find it.
        c = 0.5
        network = FeedForwardNetwork([
            DenseLayer(
                np.array([[1.0, -1.0]]), np.array([-c, c]), "relu"
            ),
            DenseLayer(
                np.array([[-1.0], [-1.0]]), np.array([0.0]), "identity"
            ),
        ])
        region = InputRegion(
            np.array([[c - 1.0, c + 1.0]]), name="around_c"
        )
        objective = OutputObjective.single(0)
        prop = SafetyProperty(
            name="peak", region=region, objective=objective,
            threshold=-1e-3,
        )
        split = Verifier(
            network, split_options(), MILPOptions(time_limit=60.0)
        )
        unsplit = Verifier(
            network,
            EncoderOptions(bound_mode="symbolic"),
            MILPOptions(time_limit=60.0),
        )
        a = unsplit.prove(prop)
        b = split.prove(prop)
        assert a.verdict is b.verdict is Verdict.FALSIFIED
        # The witness must violate: |x - c| < 1e-3 up to solver tol.
        assert abs(float(b.counterexample[0]) - c) < 2e-3
        m = split.maximize(region, objective)
        assert m.verdict is Verdict.MAX_FOUND
        assert m.value == pytest.approx(0.0, abs=1e-6)

    def test_all_leaves_pruned_verifies_statically(
        self, tiny_net, region, objective
    ):
        # A threshold above the root prescreen bound prunes everything
        # during planning: VERIFIED with zero MILP shards.
        driver = RegionBisectionDriver(
            tiny_net, split_options(), MILPOptions(time_limit=60.0)
        )
        plan = driver.plan(region, objective, threshold=1e6)
        prop = SafetyProperty(
            name="loose", region=region, objective=objective,
            threshold=1e6,
        )
        result = assemble_prove(
            prop, plan, [], tiny_net, wall_time=0.01,
        )
        assert result.verdict is Verdict.VERIFIED
        assert result.split_proofs >= 1 and result.split_cells == 0
        assert result.best_bound == plan.upper_bound

    def test_unsupported_shape_falls_back_to_unsplit(self):
        # tanh hidden layers are outside the symbolic engine; the
        # verifier must quietly run the plain MILP path... which also
        # rejects tanh — but the point is split never masks the error
        # class or changes behaviour vs split=False.
        network = FeedForwardNetwork.mlp(
            2, [4], 1, hidden_activation="tanh",
            rng=np.random.default_rng(0),
        )
        for options in (
            split_options(), EncoderOptions(bound_mode="symbolic")
        ):
            verifier = Verifier(
                network, options, MILPOptions(time_limit=5.0)
            )
            with pytest.raises(EncodingError):
                verifier.maximize(
                    unit_region(2), OutputObjective.single(0)
                )

    @pytest.mark.parametrize("case", ["relu_output", "index_out_of_range",
                                      "negative_index"])
    @pytest.mark.parametrize("certify", [False, True])
    def test_unsupported_objective_falls_back_to_unsplit(
        self, case, certify, monkeypatch
    ):
        """An objective the symbolic engine refuses keeps a split query
        on the unsplit MILP path: the same error as without ``--split``,
        and the bisection driver never runs."""
        import repro.analysis.split as split_module

        rng = np.random.default_rng(0)
        activation = "relu" if case == "relu_output" else "identity"
        network = FeedForwardNetwork([
            DenseLayer(rng.standard_normal((2, 4)),
                       rng.standard_normal(4), "relu"),
            DenseLayer(rng.standard_normal((4, 1)),
                       rng.standard_normal(1), activation),
        ])
        index = {"index_out_of_range": 3, "negative_index": -1}.get(case, 0)
        objective = OutputObjective({index: 1.0})
        prop = SafetyProperty(
            name=case, region=unit_region(2), objective=objective,
            threshold=0.5,
        )

        def no_plan(*args, **kwargs):
            raise AssertionError("the bisection driver ran")

        monkeypatch.setattr(
            split_module.RegionBisectionDriver, "plan", no_plan
        )
        messages = []
        for split in (False, True):
            verifier = Verifier(
                network,
                EncoderOptions(split=split, certify=certify),
                MILPOptions(time_limit=5.0),
            )
            for query in (
                lambda: verifier.prove(prop),
                lambda: verifier.maximize(prop.region, objective),
            ):
                with pytest.raises(EncodingError) as info:
                    query()
                messages.append(str(info.value))
        assert messages[:2] == messages[2:]

    def test_failed_shard_self_check_is_an_error(self, monkeypatch):
        """A shard whose replayed optimum disagrees with its MILP is an
        error, never an empty shard: dropping it would report the other
        shard's optimum as the maximum."""
        from repro.core.campaign import VerificationCampaign

        # A max plan on this net keeps two MILP shards.
        network = FeedForwardNetwork.mlp(
            2, [8], 1, rng=np.random.default_rng(0)
        )
        region = unit_region(2, name="two_shards")
        objective = OutputObjective.single(0)
        options = split_options(split_depth=3)
        plan = RegionBisectionDriver(
            network, options, MILPOptions(time_limit=60.0)
        ).plan(region, objective, threshold=None)
        assert len(plan.survivors) == 2

        replay = Verifier._replay
        calls = []

        def corrupt_first(self, encoded, solution, objective):
            witness, value = replay(self, encoded, solution, objective)
            calls.append(value)
            return witness, value + (1.0 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(Verifier, "_replay", corrupt_first)
        verifier = Verifier(network, options, MILPOptions(time_limit=60.0))
        with pytest.raises(EncodingError, match="soundness self-check"):
            verifier.maximize(region, objective)

        calls.clear()
        campaign = VerificationCampaign(
            options, MILPOptions(time_limit=60.0)
        )
        campaign.add_network(network)
        campaign.add_max_query("max0", region, objective)
        (cell,) = campaign.run().cells
        assert cell.result.verdict is Verdict.ERROR
        assert "soundness self-check" in cell.result.description


# -- campaign equivalence (serial vs pooled) --------------------------------

def certificate_kind(cell):
    certificate = cell.result.certificate
    return None if certificate is None else certificate["kind"]


class TestCampaignSplit:
    @pytest.fixture(scope="class")
    def campaign_parts(self, tiny_net):
        region = unit_region(tiny_net.input_dim, name="campaign_unit")
        objective = OutputObjective.single(0)
        return tiny_net, region, objective

    def _build(self, parts, jobs=None, **option_overrides):
        from repro.core.campaign import VerificationCampaign

        network, region, objective = parts
        campaign = VerificationCampaign(
            split_options(**option_overrides),
            MILPOptions(time_limit=60.0),
            jobs=jobs,
        )
        campaign.add_network(network)
        campaign.add_max_query("max0", region, objective)
        campaign.add_property(SafetyProperty(
            name="loose", region=region, objective=objective,
            threshold=1e6,
        ))
        return campaign

    @pytest.mark.parametrize("certify", [False, True])
    def test_serial_and_pooled_agree(self, campaign_parts, certify):
        serial = self._build(campaign_parts, certify=certify).run()
        pooled = self._build(
            campaign_parts, jobs=2, certify=certify
        ).run()
        for a, b in zip(serial.cells, pooled.cells):
            assert a.property_name == b.property_name
            assert a.result.verdict is b.result.verdict
            if not math.isnan(a.result.value):
                assert b.result.value == pytest.approx(
                    a.result.value, abs=1e-6
                )
            assert a.result.solver == b.result.solver
            assert certificate_kind(a) == certificate_kind(b)
        assert serial.split_cells == pooled.split_cells
        assert serial.split_proofs == pooled.split_proofs
        if serial.split_cells or serial.split_proofs:
            assert "region bisection:" in serial.summary()

    def test_shard_work_counted_exactly_once(self, campaign_parts):
        report = self._build(campaign_parts).run()
        # Shards never appear as extra cells: one row per query.
        assert len(report.cells) == 2
        assert report.total_cell_time == pytest.approx(
            sum(c.result.wall_time for c in report.cells)
        )

    def test_cell_budget_overrun_is_timeout(self, campaign_parts):
        from repro.core.campaign import VerificationCampaign

        network, region, objective = campaign_parts
        campaign = VerificationCampaign(
            split_options(),
            MILPOptions(time_limit=60.0),
            cell_time_limit=1e-9,
        )
        campaign.add_network(network)
        campaign.add_max_query("max0", region, objective)
        report = campaign.run()
        assert report.cells[0].result.verdict is Verdict.TIMEOUT

    @pytest.fixture(scope="class")
    def gap_property(self, campaign_parts):
        """A decision query that depth-4 bisection answers with at
        least two MILP shards."""
        network, region, objective = campaign_parts
        optimum = Verifier(
            network, EncoderOptions(bound_mode="symbolic"),
            MILPOptions(time_limit=60.0),
        ).maximize(region, objective).value
        return SafetyProperty(
            name="gap", region=region, objective=objective,
            threshold=optimum + 0.2,
        )

    def test_shards_share_one_deadline(
        self, campaign_parts, gap_property, monkeypatch
    ):
        """Each shard of a split cell solves against what the plan and
        the earlier shards left of the cell's one MILP time limit,
        never against the whole limit again."""
        import repro.core.verifier as verifier_mod
        from repro.core.campaign import VerificationCampaign

        limits = []
        solve = verifier_mod.solve_milp

        def recording(model, options, **kwargs):
            limits.append(options.time_limit)
            return solve(model, options, **kwargs)

        monkeypatch.setattr(verifier_mod, "solve_milp", recording)
        campaign = VerificationCampaign(
            split_options(split_depth=4), MILPOptions(time_limit=60.0),
        )
        campaign.add_network(campaign_parts[0])
        campaign.add_property(gap_property)
        (cell,) = campaign.run().cells
        assert cell.result.verdict is Verdict.VERIFIED
        assert cell.result.split_cells == len(limits) >= 2
        assert all(0.0 < limit < 60.0 for limit in limits)
        assert all(a > b for a, b in zip(limits, limits[1:]))

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_traced_split_campaign_nests_under_cells(
        self, campaign_parts, gap_property, jobs
    ):
        """The plan and its shards trace inside their campaign cell:
        one ``cell`` span per cell, and every ``split``/``static``/
        ``query`` span has one as its ancestor."""
        from repro.core.campaign import VerificationCampaign
        from repro.obs import RingBufferSink, Tracer

        network, region, objective = campaign_parts
        campaign = VerificationCampaign(
            split_options(split_depth=4), MILPOptions(time_limit=60.0),
        )
        campaign.add_network(network)
        campaign.add_max_query("max0", region, objective)
        campaign.add_property(gap_property)
        sink = RingBufferSink()
        report = campaign.run(jobs=jobs, tracer=Tracer([sink]))
        assert report.split_cells >= 2
        spans = {
            record["id"]: record for record in sink.records
            if record["type"] == "span"
        }
        cells = [r for r in spans.values() if r["name"] == "cell"]
        assert sorted(r["attrs"]["query"] for r in cells) == ["gap", "max0"]
        nested = [
            r for r in spans.values()
            if r["name"] in ("split", "static", "query")
        ]
        assert {r["name"] for r in nested} == {"split", "static", "query"}
        for record in nested:
            ancestor = spans.get(record["parent"])
            while ancestor is not None and ancestor["name"] != "cell":
                ancestor = spans.get(ancestor["parent"])
            assert ancestor is not None, record["name"]
            assert ancestor["attrs"]["query"] in ("gap", "max0")

    def test_certified_shards_agree_serial_and_pooled(
        self, campaign_parts
    ):
        """Gap thresholds force MILP shards: both modes assemble the
        same verdict, split certificate and witness."""
        from repro.core.campaign import VerificationCampaign

        network, region, objective = campaign_parts
        optimum = Verifier(
            network, EncoderOptions(bound_mode="symbolic"),
            MILPOptions(time_limit=60.0),
        ).maximize(region, objective).value

        def run(jobs):
            campaign = VerificationCampaign(
                split_options(certify=True), MILPOptions(time_limit=60.0),
                jobs=jobs,
            )
            campaign.add_network(network)
            for name, threshold in (
                ("above", optimum + 0.05), ("below", optimum - 0.05),
            ):
                campaign.add_property(SafetyProperty(
                    name=name, region=region, objective=objective,
                    threshold=threshold,
                ))
            return campaign.run()

        serial, pooled = run(None), run(2)
        assert serial.split_cells == pooled.split_cells > 0
        verdicts = {}
        for a, b in zip(serial.cells, pooled.cells):
            assert a.result.verdict is b.result.verdict
            assert a.result.solver == b.result.solver == "split"
            assert certificate_kind(a) == certificate_kind(b)
            if a.result.counterexample is not None:
                np.testing.assert_array_equal(
                    a.result.counterexample, b.result.counterexample
                )
            verdicts[a.property_name] = (
                a.result.verdict, certificate_kind(a)
            )
        assert verdicts == {
            "above": (Verdict.VERIFIED, "split"),
            "below": (Verdict.FALSIFIED, None),
        }
