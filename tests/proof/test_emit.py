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
from repro.core.properties import OutputObjective
from repro.core.verifier import (
    Verdict,
    result_from_dict,
    result_to_dict,
)
from repro.milp import MILPOptions, SolveStatus, solve_milp
from repro.proof.emit import record_chain

from .conftest import box_region, prove_certified

PROOF_MILP = dict(
    lp_backend="revised",
    presolve=False,
    record_proof=True,
)


def _violation_model(network, threshold):
    """Decision-query model: feasible iff output 0 can exceed threshold."""
    encoded = encode_network(
        network, box_region(2), EncoderOptions(bound_mode="lp")
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
    def test_no_proof_without_flag(self, net2, net2_spread):
        _, upper = net2_spread
        encoded = _violation_model(net2, upper + 1.0)
        result = solve_milp(encoded.model, MILPOptions(lp_backend="revised"))
        assert result.status is SolveStatus.INFEASIBLE
        assert result.proof is None

    def test_complete_proof(self, net2, net2_spread):
        true_max, upper = net2_spread
        threshold = true_max + 0.25 * (upper - true_max)
        encoded = _violation_model(net2, threshold)
        result = solve_milp(encoded.model, MILPOptions(**PROOF_MILP))
        assert result.status is SolveStatus.INFEASIBLE
        assert result.proof is not None
        assert result.proof["complete"]
        assert result.proof["leaves"]
        for leaf in result.proof["leaves"]:
            assert isinstance(leaf["fixed"], dict)
            assert leaf["farkas"] is not None

    def test_presolve_poisons_the_proof(self, net2, net2_spread):
        """Presolve rewrites the model, so the recorded duals no
        longer speak about the certified encoding — the proof must be
        marked incomplete rather than silently wrong."""
        true_max, upper = net2_spread
        threshold = true_max + 0.25 * (upper - true_max)
        encoded = _violation_model(net2, threshold)
        options = MILPOptions(**{**PROOF_MILP, "presolve": True})
        result = solve_milp(encoded.model, options)
        assert result.status is SolveStatus.INFEASIBLE
        assert result.proof is None or not result.proof["complete"]
