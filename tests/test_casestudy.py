"""End-to-end case-study pipeline tests (integration)."""

import dataclasses

import numpy as np
import pytest

from repro import casestudy
from repro.core.certification import Pillar
from repro.core.verifier import TableIIRow
from repro.errors import TrainingError
from repro.nn.mdn import mu_lat_indices


class TestPrepare:
    def test_study_artifacts(self, small_study):
        assert len(small_study.dataset) > 100
        assert small_study.provenance.verify_chain()
        actions = [e.action for e in small_study.provenance.entries]
        assert actions == ["generate", "sanitize"]

    def test_dataset_is_sanitized(self, small_study):
        from repro.data import DataValidator

        validator = DataValidator.default(small_study.encoder)
        assert validator.validate(small_study.dataset).passed


class TestTraining:
    def test_predictor_shapes(self, small_study, small_predictor):
        assert small_predictor.input_dim == 84
        assert small_predictor.output_dim == 10  # param_dim(2)
        assert small_predictor.architecture_id == "I4x5"

    def test_predictor_fits_expert(self, small_study, small_predictor):
        """The trained net must track the expert's lateral behaviour:
        prediction error far below the action range."""
        out = small_predictor.forward(small_study.dataset.x)
        mu_lat = out[:, mu_lat_indices(2)]
        target = small_study.dataset.lateral_velocity
        # dominant-component proxy: nearest component mean
        err = np.min(
            np.abs(mu_lat - target[:, None]), axis=1
        ).mean()
        assert err < 0.4

    def test_invalid_width_rejected(self, small_study):
        with pytest.raises(TrainingError):
            casestudy.train_predictor(small_study, width=0)

    def test_family_shares_data_differs_by_seed(self, small_study):
        family = casestudy.train_family(small_study, widths=[3, 4])
        assert set(family) == {3, 4}
        assert family[3].architecture_id == "I4x3"
        assert family[4].architecture_id == "I4x4"


class TestVerification:
    def test_table_ii_row(self, small_study, small_predictor):
        row = casestudy.verify_network(
            small_study, small_predictor, time_limit=120.0
        )
        assert isinstance(row, TableIIRow)
        assert row.architecture == "I4x5"
        if not row.timed_out:
            assert row.max_velocity is not None
            assert np.isfinite(row.max_velocity)
        assert row.wall_time > 0

    def test_verified_max_dominates_simulation(self, small_study, small_predictor):
        """Soundness against the actual closed-loop distribution: no
        sampled scene with the left occupied may beat the proven max."""
        row = casestudy.verify_network(
            small_study, small_predictor, time_limit=120.0
        )
        if row.timed_out:
            pytest.skip("verification timed out on this machine")
        # Sample the same region the row was verified over (the
        # data-derived operational domain).
        region = casestudy.operational_region(small_study)
        samples = region.sample(np.random.default_rng(1), 200)
        outs = small_predictor.forward(samples)
        sampled_max = outs[:, mu_lat_indices(2)].max()
        assert row.max_velocity >= sampled_max - 1e-6


    def test_run_table_ii_serial_parallel_equivalence(
        self, small_study, small_predictor
    ):
        """The campaign-backed sweep matches itself across engines."""
        nets = {5: small_predictor}
        serial = casestudy.run_table_ii(
            small_study, nets, time_limit=120.0
        )
        parallel = casestudy.run_table_ii(
            small_study, nets, time_limit=120.0, jobs=2
        )
        assert len(serial) == len(parallel) == 1
        assert serial[0].architecture == parallel[0].architecture
        if not (serial[0].timed_out or parallel[0].timed_out):
            assert parallel[0].max_velocity == pytest.approx(
                serial[0].max_velocity, abs=1e-6
            )

    def test_run_table_ii_matches_verify_network(
        self, small_study, small_predictor
    ):
        """The single-network row and the swept row both reproduce the
        per-component :meth:`Verifier.maximize` queries they fold."""
        from repro.core.properties import component_lateral_objectives
        from repro.core.verifier import Verdict, Verifier
        from repro.milp.branch_and_bound import MILPOptions

        region = casestudy.operational_region(small_study)
        verifier = Verifier(
            small_predictor,
            casestudy._encoder_options("lp", None),
            MILPOptions(time_limit=120.0),
        )
        components = [
            verifier.maximize(region, objective)
            for objective in component_lateral_objectives(
                small_study.config.num_components
            )
        ]
        timed_out = any(r.verdict is Verdict.TIMEOUT for r in components)
        direct = casestudy.verify_network(
            small_study, small_predictor, time_limit=120.0, region=region
        )
        [swept] = casestudy.run_table_ii(
            small_study, {5: small_predictor}, time_limit=120.0,
            region=region,
        )
        for row in (direct, swept):
            assert row.architecture == small_predictor.architecture_id
            assert row.error is None
            assert row.timed_out == timed_out
            assert row.num_binaries == max(
                r.num_binaries for r in components
            )
            if not timed_out:
                assert row.max_velocity == pytest.approx(
                    max(r.value for r in components), abs=1e-6
                )


def _fail_components(monkeypatch, components):
    """Make ``Verifier.maximize`` raise for the given mixture components."""
    from repro.core.verifier import Verifier

    real = Verifier.maximize

    def maximize(self, region, objective, *args, **kwargs):
        if any(
            objective.description == f"mu_lat[component {k}]"
            for k in components
        ):
            raise RuntimeError("injected solver fault")
        return real(self, region, objective, *args, **kwargs)

    monkeypatch.setattr(Verifier, "maximize", maximize)


class TestComponentFailure:
    """A component query that errors must fail the row, not shrink it."""

    def test_one_failed_component_fails_the_row(
        self, small_study, small_predictor, monkeypatch
    ):
        _fail_components(monkeypatch, [1])
        row = casestudy.verify_network(
            small_study, small_predictor, time_limit=120.0
        )
        assert row.max_velocity is None
        assert "mu_lat_comp1" in row.error
        assert "injected solver fault" in row.error
        assert "verification error" in row.render()

    @pytest.mark.parametrize("components", [[1], [0, 1]])
    def test_failed_component_fails_correctness_evidence(
        self, small_study, small_predictor, monkeypatch, components
    ):
        _fail_components(monkeypatch, components)
        case = casestudy.certify_predictor(
            small_study, small_predictor, safety_threshold=100.0,
            time_limit=120.0,
        )
        [formal] = [
            e for e in case.evidence_for(Pillar.CORRECTNESS)
            if e.name.startswith("formal verification")
        ]
        assert not formal.passed
        assert "verification error" in formal.summary


class TestCertification:
    def test_full_case_structure(self, small_study, small_predictor):
        case = casestudy.certify_predictor(
            small_study, small_predictor, time_limit=120.0
        )
        assert case.complete
        assert len(case.evidence_for(Pillar.SPEC_VALIDITY)) == 2
        assert len(case.evidence_for(Pillar.CORRECTNESS)) == 2
        assert len(case.evidence_for(Pillar.UNDERSTANDABILITY)) == 1
        # Data pillar must pass for the sanitized pipeline.
        assert all(
            e.passed for e in case.evidence_for(Pillar.SPEC_VALIDITY)
        )
        text = case.render()
        assert "Verdict" in text
