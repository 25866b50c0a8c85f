"""Static soundness auditor tests: every code class, campaign gating."""

import numpy as np
import pytest

from repro.analysis import (
    AuditReport,
    Severity,
    audit_encoding,
    audit_network,
    audit_region,
)
from repro.core.campaign import VerificationCampaign
from repro.core.encoder import EncoderOptions, encode_network
from repro.core.properties import (
    InputRegion,
    LinearInputConstraint,
    OutputObjective,
    SafetyProperty,
)
from repro.core.verifier import Verdict
from repro.milp import MILPOptions
from repro.milp.expr import VarType
from repro.nn import FeedForwardNetwork


def unit_region(dim=4, name="region"):
    return InputRegion(np.array([[-1.0, 1.0]] * dim), name=name)


def codes(report: AuditReport):
    return [d.code for d in report.diagnostics]


@pytest.fixture()
def net(rng):
    return FeedForwardNetwork.mlp(4, [6, 6], 2, rng=rng)


class TestNetworkAudit:
    def test_clean_network_has_no_errors(self, net):
        report = audit_network(net)
        assert not report.has_errors

    def test_nan_weight_a001(self, net):
        net.layers[0].weights[0, 0] = np.nan
        report = audit_network(net)
        assert "A001" in codes(report)
        assert report.has_errors

    def test_inf_bias_a001(self, net):
        net.layers[1].bias[0] = np.inf
        assert "A001" in codes(audit_network(net))

    def test_dead_neuron_a002(self, net):
        net.layers[0].weights[:, 2] = 0.0
        net.layers[0].bias[2] = -0.5
        report = audit_network(net)
        assert "A002" in codes(report)
        assert not report.has_errors  # warning only

    def test_duplicate_neuron_a003(self, net):
        net.layers[0].weights[:, 3] = net.layers[0].weights[:, 1]
        net.layers[0].bias[3] = net.layers[0].bias[1]
        assert "A003" in codes(audit_network(net))

    def test_scale_spread_a004(self, net):
        net.layers[0].weights[0, 0] = 1e10
        net.layers[0].weights[1, 0] = 1e-5
        assert "A004" in codes(audit_network(net))

    def test_never_read_neuron_a005(self, net):
        net.layers[1].weights[4, :] = 0.0
        assert "A005" in codes(audit_network(net))

    def test_unverifiable_activation_a006(self, rng):
        net = FeedForwardNetwork.mlp(3, [4], 1, rng=rng)
        # Simulate a network deserialised from a richer training stack.
        net.layers[0].activation = "sigmoid"
        report = audit_network(net)
        assert "A006" in codes(report)


class TestRegionAudit:
    def test_clean_region(self):
        assert not audit_region(unit_region()).diagnostics

    def test_nonfinite_bounds_a101(self):
        region = unit_region()
        region.bounds[1, 1] = np.inf
        report = audit_region(region)
        assert "A101" in codes(report)
        assert report.has_errors

    def test_crossed_bounds_a102(self):
        # The constructor rejects crossed bounds, so corrupt in place
        # (deserialisation bugs produce exactly this shape).
        region = unit_region()
        region.bounds[0] = (1.0, -1.0)
        assert "A102" in codes(audit_region(region))

    def test_infeasible_constraint_a103(self):
        region = unit_region().add_constraint(
            LinearInputConstraint({0: 1.0}, rhs=-5.0)
        )
        report = audit_region(region)
        assert "A103" in codes(report)
        assert report.has_errors

    def test_out_of_range_column_a104(self):
        region = unit_region().add_constraint(
            LinearInputConstraint({10: 1.0}, rhs=0.0)
        )
        assert "A104" in codes(audit_region(region))

    def test_nonfinite_coefficient_a104(self):
        region = unit_region().add_constraint(
            LinearInputConstraint({0: np.nan}, rhs=0.0)
        )
        assert "A104" in codes(audit_region(region))

    def test_redundant_constraint_a105(self):
        region = unit_region().add_constraint(
            LinearInputConstraint({0: 1.0}, rhs=5.0)
        )
        report = audit_region(region)
        assert "A105" in codes(report)
        assert not report.has_errors


class TestEncodingAudit:
    @pytest.fixture()
    def encoded(self, tiny_net):
        return encode_network(
            tiny_net,
            unit_region(6),
            EncoderOptions(bound_mode="interval"),
        )

    def test_clean_encoding(self, encoded):
        assert not audit_encoding(encoded).has_errors

    def test_tampered_bigm_coefficient_a207(self, encoded):
        neuron = encoded.neurons[0]
        name = f"relu_up_{neuron.layer}_{neuron.index}"
        constr = next(
            c for c in encoded.model.constraints if c.name == name
        )
        constr.expr.coeffs[neuron.d_col] *= 2.0
        report = audit_encoding(encoded)
        assert "A207" in codes(report)
        assert report.has_errors

    def test_missing_bigm_row_a207(self, encoded):
        neuron = encoded.neurons[0]
        name = f"relu_cap_{neuron.layer}_{neuron.index}"
        encoded.model.constraints = [
            c for c in encoded.model.constraints if c.name != name
        ]
        assert "A207" in codes(audit_encoding(encoded))

    def test_wrong_binary_type_a203(self, encoded):
        var = encoded.binaries[0]
        encoded.model.vtypes[var.index] = VarType.CONTINUOUS
        report = audit_encoding(encoded)
        assert "A203" in codes(report)
        # The neuron metadata linkage breaks too.
        assert "A204" in codes(report)

    def test_binary_domain_escape_a203(self, encoded):
        var = encoded.binaries[0]
        encoded.model.ub[var.index] = 2.0
        assert "A203" in codes(audit_encoding(encoded))

    def test_crossed_variable_domain_a202(self, encoded):
        encoded.model.lb[0] = encoded.model.ub[0] + 1.0
        assert "A202" in codes(audit_encoding(encoded))

    def test_metadata_column_out_of_range_a204(self, encoded):
        encoded.neurons[0].a_col = encoded.model.num_vars + 7
        assert "A204" in codes(audit_encoding(encoded))

    def test_crossed_certified_bounds_a205(self, encoded):
        neuron = encoded.neurons[0]
        neuron.lower, neuron.upper = neuron.upper, neuron.lower
        assert "A205" in codes(audit_encoding(encoded))

    def test_stable_neuron_binary_a206(self, encoded):
        neuron = encoded.neurons[0]
        neuron.lower = 0.0  # certified stable-active, binary is waste
        report = audit_encoding(encoded)
        assert "A206" in codes(report)
        assert any(d.severity is Severity.WARNING for d in report.diagnostics)

    def test_nonfinite_constraint_a201(self, encoded):
        constr = encoded.model.constraints[0]
        first = next(iter(constr.expr.coeffs))
        constr.expr.coeffs[first] = np.nan
        assert "A201" in codes(audit_encoding(encoded))

    def test_cut_row_unknown_column_a209(self, encoded):
        """A row referencing unknown columns is ``A201``, whatever its
        name."""
        n = encoded.model.num_vars
        x0 = encoded.model.variables[0]
        cut = encoded.model.add_constr(x0 <= 100.0, name="cut0")
        # Retarget the cut at a column the model does not have.
        cut.expr.coeffs[n + 3] = cut.expr.coeffs.pop(0)
        report = audit_encoding(encoded)
        assert "A201" in codes(report)
        assert report.has_errors

    def test_orphaned_column_a208(self, encoded):
        encoded.model.add_var("orphan", lb=0.0, ub=1.0)
        report = audit_encoding(encoded)
        assert "A208" in codes(report)
        assert not report.has_errors

    def test_report_serialisation(self, encoded):
        encoded.neurons[0].lower, encoded.neurons[0].upper = (
            encoded.neurons[0].upper,
            encoded.neurons[0].lower,
        )
        report = audit_encoding(encoded)
        payload = report.to_dict()
        assert payload["schema"] == "repro-audit/1"
        assert payload["errors"] == len(report.errors)
        assert all(
            set(d) == {"code", "severity", "subject", "message"}
            for d in payload["diagnostics"]
        )
        assert "A205" in report.render()


class TestCampaignGating:
    def _campaign(self, **kwargs):
        return VerificationCampaign(
            EncoderOptions(bound_mode="interval"),
            MILPOptions(time_limit=60.0),
            **kwargs,
        )

    def _prop(self, name, threshold):
        return SafetyProperty(
            name=name,
            region=unit_region(),
            objective=OutputObjective.single(0),
            threshold=threshold,
        )

    def test_corrupted_network_gated_healthy_rows_unaffected(self, rng):
        good = FeedForwardNetwork.mlp(4, [5], 2, rng=rng)
        bad = FeedForwardNetwork.mlp(4, [5], 2, rng=rng)
        bad.layers[0].weights[0, 0] = np.nan
        campaign = self._campaign()
        campaign.add_network(good, "good")
        campaign.add_network(bad, "bad")
        campaign.add_property(self._prop("loose", 1000.0))
        report = campaign.run()
        bad_cell = report.cell("bad", "loose")
        assert bad_cell.result.verdict is Verdict.ERROR
        assert "static audit rejected" in bad_cell.result.description
        assert "A001" in bad_cell.result.description
        assert bad_cell.result.nodes == 0  # no solver time spent
        assert report.cell("good", "loose").passed

    def test_audit_is_pure_inspection_on_clean_inputs(self, rng):
        net = FeedForwardNetwork.mlp(4, [5], 2, rng=rng)
        verdicts = {}
        for audit in (True, False):
            campaign = self._campaign(audit=audit)
            campaign.add_network(net, "net")
            campaign.add_property(self._prop("loose", 1000.0))
            campaign.add_property(self._prop("tight", -1000.0))
            report = campaign.run()
            verdicts[audit] = {
                cell.property_name: cell.result.verdict
                for cell in report.cells
            }
        assert verdicts[True] == verdicts[False]

    def test_audit_off_restores_old_behaviour(self, rng):
        bad = FeedForwardNetwork.mlp(4, [5], 2, rng=rng)
        bad.layers[0].weights[0, 0] = np.nan
        campaign = self._campaign(audit=False)
        campaign.add_network(bad, "bad")
        campaign.add_property(self._prop("loose", 1000.0))
        report = campaign.run()
        # Still fault-isolated, but via the solver path, not the audit.
        cell = report.cell("bad", "loose")
        assert "static audit rejected" not in cell.result.description

    def test_static_proofs_surface_in_summary(self, rng):
        net = FeedForwardNetwork.mlp(4, [5], 2, rng=rng)
        campaign = self._campaign()
        campaign.add_network(net, "net")
        campaign.add_property(self._prop("very_loose", 1e6))
        report = campaign.run()
        assert report.cell("net", "very_loose").passed
        assert report.static_proofs >= 1
        assert "static analysis" in report.summary()
