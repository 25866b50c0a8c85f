"""Static soundness auditor for networks, regions and MILP encodings.

A lint pass over the three artifact kinds the verification pipeline
consumes, emitting machine-readable :class:`Diagnostic` records with
**stable codes** so campaign runners, CI jobs and certification audits
can gate on them before any solver time is spent.  Severities are
``error`` (the artifact will produce wrong or undefined verification
results — gate on these) and ``warning`` (wasteful or suspicious, but
sound).

Network codes (``audit_network``):

* ``A001`` error — non-finite weight or bias entries;
* ``A002`` warning — dead hidden neuron (all-zero incoming weights and
  non-positive bias under ReLU: constant zero output);
* ``A003`` warning — duplicate hidden neurons (identical incoming row
  and bias within a layer — redundant binaries in every encoding);
* ``A004`` warning — degenerate weight scaling (nonzero-magnitude spread
  beyond :data:`SCALE_SPREAD_LIMIT` in one layer, the classic folded-in
  scaler failure; big-M numerics degrade);
* ``A005`` warning — hidden neuron never read (all-zero outgoing
  weights);
* ``A006`` warning — activation outside the verifiable set.

Region codes (``audit_region``):

* ``A101`` error — non-finite box bounds;
* ``A102`` error — crossed box bounds (lower > upper);
* ``A103`` error — a linear constraint excludes the entire box (the
  region is empty: every query on it degenerates to an error cell);
* ``A104`` error — a linear constraint references an out-of-range
  column or carries non-finite coefficients;
* ``A105`` warning — a linear constraint is redundant (satisfied on the
  whole box).

Encoding codes (``audit_encoding``):

* ``A201`` error — non-finite coefficients in constraints or objective,
  or a constraint referencing unknown columns;
* ``A202`` error — a variable with a crossed domain (lb > ub);
* ``A203`` error — a phase binary that is not binary-typed or whose
  bounds escape ``[0, 1]``;
* ``A204`` error — ReLU-neuron metadata referencing out-of-range or
  wrongly-typed columns (binary↔phase linkage broken);
* ``A205`` error — certified neuron bounds crossed;
* ``A206`` warning — a phase binary spent on a neuron whose certified
  bounds already fix the phase;
* ``A207`` error — big-M rows missing or their ``d`` coefficients
  disagree with the certified bounds;
* ``A208`` warning — a column that appears in no constraint and not in
  the objective.

Proof-certificate codes (emitted by the independent checker
:func:`repro.proof.check.check_certificate`, which reuses this module's
:class:`Diagnostic`/:class:`AuditReport` machinery):

* ``A301`` error — malformed certificate: unknown schema, missing or
  mis-shaped sections, or a network fingerprint mismatch;
* ``A302`` error — an LP infeasibility claim whose Farkas/dual
  certificate does not check out (dual-infeasible multipliers, or the
  implied bound does not exceed the right-hand side);
* ``A303`` error — a branch-and-bound leaf cover that is not an exact
  partition of the binary hypercube (overlapping, missing or
  conflicting leaves);
* ``A304`` error — a recorded ReLU relaxation slope that is unsound
  (lower slope outside ``[0, 1]``, or an upper chord lying below the
  ReLU at a certified endpoint);
* ``A305`` error — a bound claim the replayed back-substitution cannot
  support, or a proved threshold the certified bound does not clear;
* ``A306`` error — a split tree that does not tile its parent box
  (missing child, wrong dimension, or a malformed leaf);
* ``A307`` error — a certificate referencing rows or variables absent
  from the independently rebuilt encoding;
* ``A309`` warning — a check that passes with less than one decade of
  slack over its tolerance (numerically thin certificate).

All epsilon comparisons use :mod:`repro.tolerances`, so the auditor
accepts exactly what the solver accepts.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Dict, List, Optional

import numpy as np

from repro.nn.network import FeedForwardNetwork
from repro.tolerances import BOUND_CROSS_TOL, FEASIBILITY_TOL, REGION_TOL

__all__ = [
    "AUDIT_SCHEMA",
    "AuditReport",
    "Diagnostic",
    "SCALE_SPREAD_LIMIT",
    "Severity",
    "audit_encoding",
    "audit_network",
    "audit_region",
]

#: Version tag of the JSON report format.
AUDIT_SCHEMA = "repro-audit/1"

#: Nonzero |weight| spread (max/min) within one layer beyond which the
#: scaling is flagged as degenerate (A004).
SCALE_SPREAD_LIMIT = 1e8


class Severity(enum.Enum):
    """Diagnostic severity: errors gate pipelines, warnings inform."""

    ERROR = "error"
    WARNING = "warning"


@dataclasses.dataclass
class Diagnostic:
    """One finding: a stable code, a severity, a subject and a message."""

    code: str
    severity: Severity
    subject: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        """The diagnostic as a JSON-ready mapping."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
        }

    def render(self) -> str:
        """One human-readable line: code, severity, subject, message."""
        return (
            f"{self.code} {self.severity.value:<7} {self.subject}: "
            f"{self.message}"
        )


@dataclasses.dataclass
class AuditReport:
    """All diagnostics of one audit run (possibly over several artifacts)."""

    diagnostics: List[Diagnostic] = dataclasses.field(default_factory=list)

    def add(
        self, code: str, severity: Severity, subject: str, message: str
    ) -> None:
        """Append one diagnostic."""
        self.diagnostics.append(Diagnostic(code, severity, subject, message))

    def extend(self, other: "AuditReport") -> "AuditReport":
        """Fold another report's diagnostics in; returns self."""
        self.diagnostics.extend(other.diagnostics)
        return self

    @property
    def errors(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.ERROR
        ]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.WARNING
        ]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def render(self) -> str:
        """Human-readable report, one line per diagnostic."""
        if not self.diagnostics:
            return "audit: clean (no findings)"
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"audit: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable report (stable schema, JSON-ready)."""
        return {
            "schema": AUDIT_SCHEMA,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` payload serialised as JSON."""
        return json.dumps(self.to_dict(), indent=indent)


# -- networks ----------------------------------------------------------------

#: Activations the verification pipeline can reason about.
_VERIFIABLE_ACTIVATIONS = ("relu", "identity", "tanh")


def audit_network(network: FeedForwardNetwork) -> AuditReport:
    """Lint a trained network's parameters (codes ``A001``–``A006``)."""
    report = AuditReport()
    for li, layer in enumerate(network.layers):
        subject = f"layer {li}"
        w = layer.weights
        b = layer.bias
        bad = int(np.sum(~np.isfinite(w))) + int(np.sum(~np.isfinite(b)))
        if bad:
            report.add(
                "A001", Severity.ERROR, subject,
                f"{bad} non-finite parameter entr"
                f"{'y' if bad == 1 else 'ies'} (NaN/Inf)",
            )
            # Magnitude statistics over garbage are meaningless.
            continue
        if layer.activation not in _VERIFIABLE_ACTIVATIONS:
            report.add(
                "A006", Severity.WARNING, subject,
                f"activation {layer.activation!r} is outside the "
                "verifiable set; bound propagation will reject it",
            )
        nonzero = np.abs(w[w != 0.0])
        if nonzero.size:
            spread = float(nonzero.max() / nonzero.min())
            if spread > SCALE_SPREAD_LIMIT:
                report.add(
                    "A004", Severity.WARNING, subject,
                    f"weight magnitudes span {spread:.1e} (> "
                    f"{SCALE_SPREAD_LIMIT:.0e}); a degenerate input "
                    "scaler was likely folded in and big-M numerics "
                    "will suffer",
                )
        if li >= len(network.layers) - 1:
            continue  # neuron-level checks are for hidden layers
        incoming_zero = np.all(w == 0.0, axis=0)
        for j in np.flatnonzero(incoming_zero):
            if layer.activation == "relu" and b[j] <= 0.0:
                report.add(
                    "A002", Severity.WARNING, f"{subject} neuron {j}",
                    "dead neuron: zero incoming weights and "
                    f"non-positive bias {b[j]:.3g} (constant 0)",
                )
        outgoing = network.layers[li + 1].weights
        for j in np.flatnonzero(np.all(outgoing == 0.0, axis=1)):
            report.add(
                "A005", Severity.WARNING, f"{subject} neuron {j}",
                "neuron is never read (all outgoing weights are zero)",
            )
        seen: Dict[bytes, int] = {}
        for j in range(layer.fan_out):
            key = np.ascontiguousarray(w[:, j]).tobytes() + bytes(
                np.float64(b[j]).tobytes()
            )
            if key in seen:
                report.add(
                    "A003", Severity.WARNING, f"{subject} neuron {j}",
                    f"duplicate of neuron {seen[key]} (identical "
                    "incoming weights and bias)",
                )
            else:
                seen[key] = j
    return report


# -- regions -----------------------------------------------------------------

def audit_region(region) -> AuditReport:
    """Lint an :class:`~repro.core.properties.InputRegion`
    (codes ``A101``–``A105``)."""
    report = AuditReport()
    subject = f"region {region.name!r}"
    bounds = np.asarray(region.bounds, dtype=float)
    if not np.all(np.isfinite(bounds)):
        report.add(
            "A101", Severity.ERROR, subject,
            f"{int(np.sum(~np.isfinite(bounds)))} non-finite box bounds",
        )
        return report
    crossed = bounds[:, 0] > bounds[:, 1] + BOUND_CROSS_TOL
    for idx in np.flatnonzero(crossed):
        report.add(
            "A102", Severity.ERROR, f"{subject} feature {idx}",
            f"crossed box bounds [{bounds[idx, 0]:.6g}, "
            f"{bounds[idx, 1]:.6g}]",
        )
    for k, constraint in enumerate(region.constraints):
        csubject = f"{subject} constraint {k}"
        try:
            coeffs, rhs = constraint.as_indexed()
        except Exception as exc:  # unknown feature names etc.
            report.add(
                "A104", Severity.ERROR, csubject,
                f"cannot resolve constraint: {exc}",
            )
            continue
        if not np.isfinite(rhs) or any(
            not np.isfinite(c) for c in coeffs.values()
        ):
            report.add(
                "A104", Severity.ERROR, csubject,
                "non-finite constraint coefficients",
            )
            continue
        if any(not 0 <= idx < region.dim for idx in coeffs):
            report.add(
                "A104", Severity.ERROR, csubject,
                "constraint references a column outside the region's "
                f"{region.dim} dimensions",
            )
            continue
        lhs_min = sum(
            c * (bounds[i, 0] if c > 0 else bounds[i, 1])
            for i, c in coeffs.items()
        )
        lhs_max = sum(
            c * (bounds[i, 1] if c > 0 else bounds[i, 0])
            for i, c in coeffs.items()
        )
        if lhs_min > rhs + REGION_TOL:
            report.add(
                "A103", Severity.ERROR, csubject,
                f"constraint is infeasible on the whole box "
                f"(min lhs {lhs_min:.6g} > rhs {rhs:.6g}): the region "
                "is empty",
            )
        elif lhs_max <= rhs + REGION_TOL:
            report.add(
                "A105", Severity.WARNING, csubject,
                f"constraint is redundant on the box "
                f"(max lhs {lhs_max:.6g} <= rhs {rhs:.6g})",
            )
    return report


# -- encodings ---------------------------------------------------------------

def _expr_entries(expr) -> Dict[int, float]:
    return dict(expr.coeffs)


def audit_encoding(encoded, rel_tol: float = FEASIBILITY_TOL) -> AuditReport:
    """Lint an :class:`~repro.core.encoder.EncodedNetwork`
    (codes ``A201``–``A208``).

    Checks the MILP container (finite coefficients, consistent variable
    domains), the phase binaries, the per-neuron metadata
    (``EncodedNetwork.neurons``), and the big-M rows' linkage between
    binaries and certified bounds.
    """
    # Imported here, not at module top: the solver-free proof checker
    # (repro.proof.check) imports this module for its Diagnostic
    # machinery and must not drag the MILP stack into the process.
    from repro.milp.expr import VarType

    report = AuditReport()
    model = encoded.model
    n = model.num_vars
    used = np.zeros(n, dtype=bool)
    by_name = {}
    for constr in model.constraints:
        by_name[constr.name] = constr
        entries = _expr_entries(constr.expr)
        subject = f"constraint {constr.name!r}"
        bad_cols = [idx for idx in entries if not 0 <= idx < n]
        if bad_cols:
            report.add(
                "A201", Severity.ERROR, subject,
                f"references unknown column(s) {bad_cols}",
            )
            continue
        for idx in entries:
            used[idx] = True
        if not all(
            np.isfinite(c) for c in entries.values()
        ) or not np.isfinite(constr.expr.constant):
            report.add(
                "A201", Severity.ERROR, subject,
                "non-finite coefficients or right-hand side",
            )
    obj_entries = _expr_entries(model.objective)
    for idx in obj_entries:
        if 0 <= idx < n:
            used[idx] = True
    # Inputs and output-expression columns are structurally live even
    # before a query attaches its objective or violation rows (stable
    # neurons fold forward symbolically, so an all-stable prefix leaves
    # the inputs out of every constraint).
    for var in encoded.input_vars:
        if 0 <= var.index < n:
            used[var.index] = True
    for expr in encoded.output_exprs:
        for idx in expr.coeffs:
            if 0 <= idx < n:
                used[idx] = True
    if not all(np.isfinite(c) for c in obj_entries.values()):
        report.add(
            "A201", Severity.ERROR, "objective",
            "non-finite objective coefficients",
        )

    for i in range(n):
        if model.lb[i] > model.ub[i]:
            report.add(
                "A202", Severity.ERROR,
                f"variable {model.variables[i].name!r}",
                f"crossed domain [{model.lb[i]:.6g}, {model.ub[i]:.6g}]",
            )
    for var in encoded.binaries:
        subject = f"binary {var.name!r}"
        if model.vtypes[var.index] is not VarType.BINARY:
            report.add(
                "A203", Severity.ERROR, subject,
                f"phase variable is typed {model.vtypes[var.index].name}, "
                "not BINARY",
            )
        if model.lb[var.index] < -rel_tol or model.ub[var.index] > 1 + rel_tol:
            report.add(
                "A203", Severity.ERROR, subject,
                f"binary domain [{model.lb[var.index]:.6g}, "
                f"{model.ub[var.index]:.6g}] escapes [0, 1]",
            )

    for neuron in encoded.neurons:
        subject = f"neuron ({neuron.layer}, {neuron.index})"
        if not (0 <= neuron.a_col < n and 0 <= neuron.d_col < n):
            report.add(
                "A204", Severity.ERROR, subject,
                f"metadata columns a={neuron.a_col}, d={neuron.d_col} "
                f"out of range for {n} model columns",
            )
            continue
        if model.vtypes[neuron.d_col] is not VarType.BINARY:
            report.add(
                "A204", Severity.ERROR, subject,
                "metadata d column is not a binary variable",
            )
        if model.vtypes[neuron.a_col] is not VarType.CONTINUOUS:
            report.add(
                "A204", Severity.ERROR, subject,
                "metadata a column is not a continuous variable",
            )
        if neuron.lower > neuron.upper + BOUND_CROSS_TOL:
            report.add(
                "A205", Severity.ERROR, subject,
                f"certified bounds crossed [{neuron.lower:.6g}, "
                f"{neuron.upper:.6g}]",
            )
            continue
        if neuron.lower >= 0.0 or neuron.upper <= 0.0:
            report.add(
                "A206", Severity.WARNING, subject,
                f"phase binary spent on a stable neuron (certified "
                f"bounds [{neuron.lower:.6g}, {neuron.upper:.6g}])",
            )
        scale = max(1.0, abs(neuron.lower), abs(neuron.upper))
        for row_prefix, expected in (
            ("relu_up", -neuron.lower),
            ("relu_cap", -neuron.upper),
        ):
            name = f"{row_prefix}_{neuron.layer}_{neuron.index}"
            constr = by_name.get(name)
            if constr is None:
                report.add(
                    "A207", Severity.ERROR, subject,
                    f"big-M row {name!r} is missing",
                )
                continue
            d_coef = constr.expr.coeffs.get(neuron.d_col, 0.0)
            if abs(d_coef - expected) > rel_tol * scale:
                report.add(
                    "A207", Severity.ERROR, subject,
                    f"big-M row {name!r} carries d coefficient "
                    f"{d_coef:.6g}, certified bounds imply "
                    f"{expected:.6g}",
                )
        if f"relu_ge_{neuron.layer}_{neuron.index}" not in by_name:
            report.add(
                "A207", Severity.ERROR, subject,
                f"big-M row 'relu_ge_{neuron.layer}_{neuron.index}' "
                "is missing",
            )

    for idx in np.flatnonzero(~used):
        report.add(
            "A208", Severity.WARNING,
            f"variable {model.variables[idx].name!r}",
            "column appears in no constraint and not in the objective",
        )
    return report


def audit_all(
    network: Optional[FeedForwardNetwork] = None,
    region=None,
    encoded=None,
) -> AuditReport:
    """Audit whichever artifacts are given, merged into one report."""
    report = AuditReport()
    if network is not None:
        report.extend(audit_network(network))
    if region is not None:
        report.extend(audit_region(region))
    if encoded is not None:
        report.extend(audit_encoding(encoded))
    return report
