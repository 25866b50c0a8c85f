"""Emission paths: certificates out of the prover, proof records out
of branch-and-bound, and the serialization round trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoder import (
    EncoderOptions,
    attach_violation_constraint,
    encode_network,
)
from repro.core.properties import OutputObjective, SafetyProperty
from repro.core.verifier import (
    Verdict,
    Verifier,
    result_from_dict,
    result_to_dict,
)
from repro.milp import MILPOptions, SolveStatus, solve_milp
from repro.milp.scipy_backend import HighsSession
from repro.proof.check import check_certificate
from repro.proof.emit import assemble_milp_certificate, record_chain

from .conftest import box_region, prove_certified


def _violation_model(network, threshold, bounds=None):
    """Decision-query model: feasible iff output 0 can exceed threshold.

    ``bounds`` replaces the LP-tightened big-M bounds (the certified
    encoding passes the chain's)."""
    encoded = encode_network(
        network, box_region(2), EncoderOptions(bound_mode="lp"),
        precomputed_bounds=bounds,
    )
    attach_violation_constraint(
        encoded, OutputObjective.single(0), threshold
    )
    return encoded


class TestCertificateShapes:
    def test_static(self, static_result):
        cert = static_result.certificate
        assert cert["schema"] == "repro-proof/1"
        assert cert["kind"] == "static"
        assert cert["chain"]  # per-layer relaxation record
        assert static_result.certified

    def test_milp(self, milp_result):
        cert = milp_result.certificate
        assert cert["kind"] == "milp"
        assert len(cert["leaves"]) >= 1
        for leaf in cert["leaves"]:
            assert leaf["kind"] == "farkas"
            assert isinstance(leaf["literals"], dict)
            assert leaf["dual"]

    def test_split(self, split_result):
        cert = split_result.certificate
        assert cert["kind"] == "split"
        tree = cert["tree"]
        assert tree["split_dim"] is not None or tree.get("leaf")

    def test_falsified_has_no_certificate(self, net2, net2_spread):
        true_max, _ = net2_spread
        result = prove_certified(
            net2, box_region(2), true_max - 0.5
        )
        assert result.verdict is Verdict.FALSIFIED
        assert result.certificate is None
        assert not result.certified

    def test_certify_off_has_no_certificate(self, net2, net2_spread):
        _, upper = net2_spread
        result = prove_certified(
            net2, box_region(2), upper + 1.0, certify=False
        )
        assert result.verdict is Verdict.VERIFIED
        assert result.certificate is None


class TestRoundTrip:
    def test_result_dict_round_trip(self, milp_result):
        payload = result_to_dict(milp_result)
        back = result_from_dict(payload)
        assert back.verdict is milp_result.verdict
        assert back.certificate == milp_result.certificate
        assert back.certified


class TestChainRecord:
    def test_matches_symbolic_bounds(self, net2):
        from repro.analysis.symbolic import symbolic_objective_bounds

        region = box_region(2)
        coeffs = OutputObjective.single(0).coefficients
        record = record_chain(net2, region, coeffs)
        lo, hi = symbolic_objective_bounds(net2, region, coeffs)
        assert record.objective_lower == pytest.approx(lo, abs=1e-9)
        assert record.objective_upper == pytest.approx(hi, abs=1e-9)


class TestBranchAndBoundProof:
    def test_one_search_with_and_without_certify(self, net2, net2_spread):
        """Every search records a checkable leaf cover, so certifying a
        query changes its bounds source, never its search."""
        true_max, upper = net2_spread
        threshold = true_max + 0.25 * (upper - true_max)
        region = box_region(2)
        objective = OutputObjective.single(0)
        record = record_chain(net2, region, objective.coefficients)

        encoded = _violation_model(net2, threshold, record.bounds)
        result = solve_milp(encoded.model)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.proof["complete"]
        certificate = assemble_milp_certificate(
            net2, region, objective, threshold,
            EncoderOptions().bound_margin, "q", record, encoded.model,
            result.proof,
        )
        assert certificate is not None
        assert not check_certificate(certificate).has_errors

        prop = SafetyProperty(
            name="q", region=region, objective=objective,
            threshold=float(threshold),
        )
        runs = [
            Verifier(
                net2, EncoderOptions(bound_mode="lp", certify=certify),
                MILPOptions(time_limit=120.0),
            ).prove(prop, precomputed_bounds=record.bounds)
            for certify in (False, True)
        ]
        assert [run.verdict for run in runs] == [Verdict.VERIFIED] * 2
        assert runs[0].certificate is None
        assert runs[1].certificate is not None
        assert runs[0].nodes == runs[1].nodes
        assert runs[0].lp_iterations == runs[1].lp_iterations

    def test_complete_proof(self, net2, net2_spread):
        true_max, upper = net2_spread
        threshold = true_max + 0.25 * (upper - true_max)
        encoded = _violation_model(net2, threshold)
        result = solve_milp(encoded.model)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.proof is not None
        assert result.proof["complete"]
        assert result.proof["leaves"]
        for leaf in result.proof["leaves"]:
            assert isinstance(leaf["fixed"], dict)
            assert leaf["farkas"] is not None


def _prove(network, threshold, certify, split=False):
    """One decision query ``output 0 <= threshold`` on the unit box."""
    verifier = Verifier(
        network,
        EncoderOptions(
            bound_mode="lp", certify=certify, split=split, split_depth=3
        ),
        MILPOptions(time_limit=120.0),
    )
    return verifier.prove(SafetyProperty(
        name="q", region=box_region(2),
        objective=OutputObjective.single(0), threshold=float(threshold),
    ))


def _gap_thresholds(spread):
    """Thresholds across the relaxation gap: MILP proofs and one
    falsifiable query below the maximum."""
    true_max, upper = spread
    return [true_max - 0.5] + [
        true_max + f * (upper - true_max) for f in (0.1, 0.25, 0.5)
    ]


class TestCertifiedRuns:
    """A certified search answers like the uncertified one, with a
    certificate the checker accepts."""

    def test_certified_run_answers_like_plain(self, net2, net2_spread):
        for threshold in _gap_thresholds(net2_spread):
            plain = _prove(net2, threshold, False)
            certified = _prove(net2, threshold, True)
            assert certified.verdict is plain.verdict
            if certified.verdict is Verdict.VERIFIED:
                assert certified.certificate is not None
                assert certified.certificate["kind"] == "milp"
                assert not check_certificate(certified.certificate).has_errors


def _scramble(ray):
    """Flip the signs of a seeded half of the entries, the first nonzero
    one always, so a ``<=`` row gets a negative multiplier."""
    signs = np.where(np.random.default_rng(0).random(ray.shape) < 0.5, -1.0, 1.0)
    signs[np.flatnonzero(ray)[0]] = -1.0
    return ray * signs


RAY_FAULTS = {
    "missing": lambda ray: None,
    "zero": np.zeros_like,
    "scrambled": _scramble,
}


class TestRayFaults:
    """A bad ray from the LP backend costs the certificate, never the
    verdict, and never yields a certificate the checker rejects."""

    @pytest.mark.parametrize("fault", sorted(RAY_FAULTS))
    @pytest.mark.parametrize(
        "split, gap_fraction", [(False, 0.25), (True, 0.05)],
        ids=["milp", "split"],
    )
    def test_bad_ray_leaves_verdict_uncertified(
        self, net2, net2_spread, monkeypatch, fault, split, gap_fraction
    ):
        """Near the maximum the split driver still leaves MILP shards."""
        solve = HighsSession.solve
        faults = []

        def faulty(self, *args, **kwargs):
            result = solve(self, *args, **kwargs)
            if result.farkas is not None:
                result.farkas = RAY_FAULTS[fault](result.farkas)
                faults.append(fault)
            return result

        monkeypatch.setattr(HighsSession, "solve", faulty)
        true_max, upper = net2_spread
        threshold = true_max + gap_fraction * (upper - true_max)
        result = _prove(net2, threshold, True, split)
        assert faults
        assert result.verdict is Verdict.VERIFIED
        assert result.certificate is None
