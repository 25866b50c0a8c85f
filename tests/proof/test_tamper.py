"""Tamper battery: every forged or corrupted certificate must be
rejected with the matching A3xx finding.

Each test starts from a genuine checker-clean certificate, applies one
targeted perturbation, and asserts the independent replay catches it.
"""

from __future__ import annotations

import pytest

from repro.proof.check import check_certificate

from .test_check import codes


def first_farkas_leaf(cert):
    for leaf in cert["leaves"]:
        if leaf["kind"] == "farkas":
            return leaf
    raise AssertionError("certificate has no farkas leaf")


class TestFarkasTamper:
    """A302/A307 — the dual vector no longer certifies infeasibility."""

    def test_negated_dual_entry(self, milp_cert):
        leaf = first_farkas_leaf(milp_cert)
        row = next(iter(leaf["dual"]))
        leaf["dual"][row] = -abs(leaf["dual"][row]) - 1.0
        report = check_certificate(milp_cert)
        assert report.has_errors
        assert "A302" in codes(report)

    def test_emptied_dual(self, milp_cert):
        first_farkas_leaf(milp_cert)["dual"] = {}
        report = check_certificate(milp_cert)
        assert report.has_errors
        assert "A302" in codes(report)

    def test_unknown_row_name(self, milp_cert):
        first_farkas_leaf(milp_cert)["dual"]["no_such_row"] = 1.0
        report = check_certificate(milp_cert)
        assert report.has_errors
        assert "A307" in codes(report)


class TestLeafCoverTamper:
    """A303 — the leaf cover no longer tiles the binary hypercube."""

    def test_dropped_leaf(self, milp_cert):
        assert len(milp_cert["leaves"]) >= 2
        del milp_cert["leaves"][0]
        report = check_certificate(milp_cert)
        assert report.has_errors
        assert "A303" in codes(report)

    def test_flipped_literal(self, milp_cert):
        leaf = next(
            l for l in milp_cert["leaves"] if l.get("literals")
        )
        var = next(iter(leaf["literals"]))
        leaf["literals"][var] = 1 - int(leaf["literals"][var])
        report = check_certificate(milp_cert)
        assert report.has_errors
        assert "A303" in codes(report)


class TestSlopeTamper:
    """A304 — a relaxation slope outside the sound ReLU envelope."""

    def test_widened_lower_slope(self, static_cert):
        relax = static_cert["chain"]["objective"]["relax"]
        record = next(iter(relax.values()))
        record["lo_lower"][0][0] = 1.5  # outside the sound [0, 1] band
        report = check_certificate(static_cert)
        assert report.has_errors
        assert "A304" in codes(report)

    def test_upper_line_below_relu(self, static_cert):
        relax = static_cert["chain"]["objective"]["relax"]
        record = next(iter(relax.values()))
        record["up_icept"][0] -= 10.0  # chord dives under relu(x)
        report = check_certificate(static_cert)
        assert report.has_errors
        assert "A304" in codes(report)


def middle_relax(cert):
    """The recorded relaxation of ReLU layer 0 in the middle layer entry
    of a static certificate's chain (the fixture net has three layers)."""
    entries = cert["chain"]["layers"]
    assert len(entries) == 3
    return entries[1]["relax"]["0"]


def subjects(report, code):
    return [d.subject for d in report.diagnostics if d.code == code]


class TestMiddleEntryTamper:
    """Every layer entry's evidence is checked, not only the objective's."""

    def test_lower_slope_out_of_band(self, static_cert):
        middle_relax(static_cert)["lo_lower"][0][0] = 1.5
        report = check_certificate(static_cert)
        assert report.has_errors
        assert subjects(report, "A304") == ["certificate.chain.layer1"]

    def test_upper_line_below_relu(self, static_cert):
        middle_relax(static_cert)["up_icept"][0] -= 10.0
        report = check_certificate(static_cert)
        assert report.has_errors
        assert subjects(report, "A304") == ["certificate.chain.layer1"]

    def test_claimed_upper_too_tight(self, static_cert):
        static_cert["chain"]["layers"][1]["upper"][0] -= 1e-3
        report = check_certificate(static_cert)
        assert report.has_errors
        assert subjects(report, "A305") == ["certificate.chain.layer1"]

    def test_nan_in_relaxation(self, static_cert):
        middle_relax(static_cert)["up_lower"][0][0] = float("nan")
        report = check_certificate(static_cert)
        assert report.has_errors
        assert codes(report) == ["A301"]
        (finding,) = report.diagnostics
        assert "chain.layer1.relax[0].up_lower" in finding.message

    def test_wrong_shape_relaxation(self, static_cert):
        del middle_relax(static_cert)["lo_lower"][-1]
        report = check_certificate(static_cert)
        assert report.has_errors
        assert codes(report) == ["A301"]
        (finding,) = report.diagnostics
        assert "chain.layer1.relax[0].lo_lower" in finding.message


class TestSplitTreeTamper:
    """A306 — the partition tree no longer tiles the parent box."""

    def test_deleted_child(self, split_cert):
        node = split_cert["tree"]
        assert "split_dim" in node, "fixture tree has no internal node"
        del node["low"]
        report = check_certificate(split_cert)
        assert report.has_errors
        assert "A306" in codes(report)

    def test_unknown_leaf_kind(self, split_cert):
        node = split_cert["tree"]
        while "split_dim" in node:
            node = node["low"]
        node["kind"] = "oracle"
        report = check_certificate(split_cert)
        assert report.has_errors
        assert "A306" in codes(report)


def tree_leaves(node, subject="certificate"):
    """``(subject, leaf)`` of a split tree's leaves, depth first."""
    if "split_dim" in node:
        for key in ("low", "high"):
            yield from tree_leaves(node[key], f"{subject}.{key}")
    else:
        yield subject, node


NON_NUMBERS = {"null": None, "list": [1.0], "text": "x"}


class TestObjectiveBoundTamper:
    """A301 — a claimed objective bound that is not a number is a
    malformed certificate, not a crash of the checker."""

    @pytest.mark.parametrize("key", ["lower", "upper"])
    @pytest.mark.parametrize("value", sorted(NON_NUMBERS))
    def test_static(self, static_cert, key, value):
        static_cert["chain"]["objective"][key] = NON_NUMBERS[value]
        report = check_certificate(static_cert)
        assert report.has_errors
        assert codes(report) == ["A301"]
        (finding,) = report.diagnostics
        assert finding.subject == "certificate"
        assert f"chain.objective.{key}" in finding.message

    @pytest.mark.parametrize("value", sorted(NON_NUMBERS))
    def test_split_leaf(self, split_cert, value):
        subject, leaf = next(
            (subject, leaf) for subject, leaf in tree_leaves(split_cert["tree"])
            if leaf["kind"] in ("pruned", "static")
        )
        leaf["chain"]["objective"]["upper"] = NON_NUMBERS[value]
        report = check_certificate(split_cert)
        assert report.has_errors
        assert codes(report) == ["A301"]
        (finding,) = report.diagnostics
        assert finding.subject == subject
        assert "chain.objective.upper" in finding.message
