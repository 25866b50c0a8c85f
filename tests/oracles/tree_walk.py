"""Leaf-by-leaf split-tree walk: the test suite's oracle for the checker.

This is how :mod:`repro.proof.check` checked a ``split`` certificate
before it replayed every leaf of a partition tree in one sweep: the
tree is walked depth first from the parent box, each child box is
re-derived at the midpoint of the recorded split dimension, and each
leaf is checked as a ``static``/``milp`` sub-certificate on its own,
its chain replayed by the entry-by-entry oracle
:func:`tests.oracles.chain_replay.check_chain`.  It is not on any
proving path; the tests run it beside the checker and expect the same
findings, in the same order.

:func:`check_tree` has the signature of
``repro.proof.check._check_tree``, so a test can swap it in to check a
whole certificate the old way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.audit import AuditReport, Severity
from repro.proof.check import (
    _check_milp_leaves,
    _check_threshold,
    _Layers,
    _Malformed,
)

from .chain_replay import check_chain


def check_tree(
    report: AuditReport,
    subject: str,
    layers: _Layers,
    box: np.ndarray,
    constraints: List[Tuple[Dict[int, float], float]],
    objective_row: np.ndarray,
    threshold: float,
    margin: float,
    node: Any,
) -> bool:
    """Recursive split-tree walk; child boxes are re-derived here."""
    if not isinstance(node, dict):
        report.add(
            "A306", Severity.ERROR, subject, "tree node is not an object"
        )
        return False
    if "split_dim" in node:
        try:
            dim = int(node["split_dim"])
        except (TypeError, ValueError):
            report.add(
                "A306", Severity.ERROR, subject,
                f"split_dim {node.get('split_dim')!r} is not an integer",
            )
            return False
        if not 0 <= dim < box.shape[0]:
            report.add(
                "A306", Severity.ERROR, subject,
                f"split dimension {dim} out of range for input dim "
                f"{box.shape[0]}",
            )
            return False
        lo, hi = float(box[dim, 0]), float(box[dim, 1])
        if lo >= hi:
            report.add(
                "A306", Severity.ERROR, subject,
                f"split on zero-width dimension {dim}",
            )
            return False
        missing = [key for key in ("low", "high") if key not in node]
        if missing:
            report.add(
                "A306", Severity.ERROR, subject,
                f"internal node is missing child(ren) {missing}; the "
                "tree does not tile the parent box",
            )
            return False
        mid = 0.5 * (lo + hi)
        ok = True
        for key, child_interval in (("low", (lo, mid)), ("high", (mid, hi))):
            child_box = box.copy()
            child_box[dim] = child_interval
            if not check_tree(
                report, f"{subject}.{key}", layers, child_box,
                constraints, objective_row, threshold, margin,
                node[key],
            ):
                ok = False
        return ok

    kind = node.get("kind")
    input_box = (box[:, 0].copy(), box[:, 1].copy())
    if kind in ("pruned", "static"):
        try:
            _, obj_bounds = check_chain(
                report, subject, layers, input_box, node.get("chain"),
                objective_row,
            )
        except _Malformed as exc:
            report.add("A301", Severity.ERROR, subject, str(exc))
            return False
        if obj_bounds is None:
            return False
        return _check_threshold(
            report, subject, obj_bounds[1], threshold, margin
        )
    if kind == "milp":
        try:
            validated, _ = check_chain(
                report, subject, layers, input_box, node.get("chain"),
                None,
            )
            if validated is None:
                return False
            return _check_milp_leaves(
                report, subject, layers, box, constraints, validated,
                margin, objective_row, threshold, node.get("leaves"),
            )
        except _Malformed as exc:
            report.add("A301", Severity.ERROR, subject, str(exc))
            return False
    report.add(
        "A306", Severity.ERROR, subject,
        f"leaf node has unknown kind {kind!r}",
    )
    return False
