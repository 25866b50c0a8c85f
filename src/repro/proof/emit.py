"""Certificate emission: turning proving-path evidence into artifacts.

This is the *emitting* half of :mod:`repro.proof` — unlike
:mod:`repro.proof.check` it is allowed (and required) to import the
symbolic engine and the MILP stack, because it runs inside the prover.

Two jobs:

* :func:`chain_payload` serializes a fixed-policy
  :class:`~repro.analysis.symbolic.SymbolicScreen` — the one prescreen
  every decision query runs, certified or not — into a certificate's
  ``chain``.  The screen keeps, per (target layer, ReLU layer) pair,
  which policy won each row, and per ReLU layer the slopes its pass
  used; together they give exactly the relaxation each row was bounded
  with, the chord upper line plus the per-row lower slopes, so the
  checker can replay every claimed bound without knowing anything
  about the policy search.  A screen is a picklable
  record of arrays, bounded once per box and handed from the prescreen
  to the bisection plan and the MILP shards; only a certificate (or a
  pruned node of a certified split tree) that embeds it pays for the
  JSON, once.

* :func:`assemble_milp_certificate` converts a branch-and-bound proof
  record (leaf literals + per-leaf standardized dual rays) into the
  named-row Farkas leaves of the certificate format.  The conversion
  checks nothing: every certificate passes the independent checker
  once before it is attached to a result — an unsplit proof's through
  :meth:`repro.core.verifier.Verifier._checked`, a split shard's as
  part of its parent's tree in :func:`assemble_split_certificate` —
  so a wrong ray from the LP backend costs the certificate (an honest
  and visible failure), never yields one the checker would reject.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.symbolic import SymbolicScreen, symbolic_screen
from repro.proof import check as _check
from repro.proof.certificate import (
    KIND_MILP,
    KIND_SPLIT,
    KIND_STATIC,
    build_certificate,
)

__all__ = [
    "assemble_milp_certificate",
    "assemble_split_certificate",
    "assemble_static_certificate",
    "chain_payload",
    "fill_leaf_slot",
    "record_chain",
]


def _relax_payload(
    screen: SymbolicScreen,
    winners: Tuple[np.ndarray, np.ndarray],
    start: int,
) -> Dict[str, Dict[str, Any]]:
    """Winning-policy slope matrices for every ReLU layer up to ``start``.

    The slopes are the ones the screen's own pass used.  The stacked
    pass is row-separable, so replaying row ``r`` with the slope
    vectors of its winning policy reproduces the best bound for that
    row exactly.
    """
    win_lo, win_hi = winners
    relax: Dict[str, Dict[str, Any]] = {}
    for k, relaxation in enumerate(screen.relaxations[:start + 1]):
        if relaxation is None:
            continue
        up_slope, up_icept, stack = relaxation
        relax[str(k)] = {
            "up_slope": up_slope.tolist(),
            "up_icept": up_icept.tolist(),
            "lo_lower": stack[win_lo].tolist(),
            "up_lower": stack[win_hi].tolist(),
        }
    return relax


def chain_payload(screen: SymbolicScreen) -> Dict[str, Any]:
    """The certificate's ``chain`` payload from a screen's arrays."""
    layers: List[Dict[str, Any]] = []
    for index, (bounds, winners) in enumerate(
        zip(screen.bounds, screen.winners)
    ):
        entry: Dict[str, Any] = {
            "lower": bounds.lower.tolist(), "upper": bounds.upper.tolist(),
        }
        if winners is not None:  # layer 0's interval image is exact
            entry["relax"] = _relax_payload(screen, winners, index - 1)
        layers.append(entry)
    chain: Dict[str, Any] = {"layers": layers}
    if screen.objective_upper is not None:
        objective: Dict[str, Any] = {
            "lower": screen.objective_lower,
            "upper": screen.objective_upper,
        }
        winners = screen.winners[len(screen.bounds)]
        if winners is not None:
            objective["relax"] = _relax_payload(
                screen, winners, len(screen.bounds) - 2
            )
        chain["objective"] = objective
    return chain


def record_chain(
    network: Any,
    region: Any,
    objective_coefficients: Optional[Mapping[int, float]] = None,
) -> SymbolicScreen:
    """Fixed-policy symbolic bounds with full replay evidence.

    This is :func:`~repro.analysis.symbolic.symbolic_screen`: the same
    numbers as :func:`repro.analysis.symbolic.symbolic_bounds` (and
    ``symbolic_objective_bounds`` for the objective), plus the winning
    policies that :func:`chain_payload` turns into a checkable chain.
    """
    return symbolic_screen(network, region, objective_coefficients)


def assemble_static_certificate(
    network: Any,
    region: Any,
    objective: Any,
    threshold: float,
    margin: float,
    name: str,
    screen: SymbolicScreen,
) -> Optional[Dict[str, Any]]:
    """A ``static`` certificate, or ``None`` if the chain does not prove."""
    if screen.objective_upper is None:
        return None
    if screen.objective_upper > threshold - margin:
        return None
    return build_certificate(
        KIND_STATIC, network, region, objective, threshold, margin,
        name=name, chain=chain_payload(screen),
    )


def milp_proof_leaves(
    model: Any, proof: Mapping[str, Any]
) -> Optional[List[Dict[str, Any]]]:
    """Named Farkas leaves from a B&B proof record.

    ``proof`` is the raw :attr:`repro.milp.solution.MILPResult.proof`
    payload: per leaf, the fixed integer columns and the standardized
    dual ray in :attr:`repro.milp.solution.LPResult.farkas` form
    (``y >= 0`` on the ``<=`` rows).  Column indices become variable
    names and ray entries become per-row multipliers keyed by
    constraint name; nothing is checked here, the checker does that
    once for the whole certificate.  Returns ``None`` when the record
    is incomplete or a leaf has no ray of the model's row count.
    """
    if not proof.get("complete", False):
        return None
    ub_names, eq_names = model.row_names()
    row_names = ub_names + eq_names
    leaves: List[Dict[str, Any]] = []
    for leaf in proof.get("leaves", []):
        farkas = leaf.get("farkas")
        if farkas is None:
            return None
        ray = np.asarray(farkas, dtype=float)
        if ray.shape != (len(row_names),):
            return None
        leaves.append({
            "kind": "farkas",
            "literals": {
                model.variables[col].name: int(value)
                for col, value in leaf.get("fixed", {}).items()
            },
            "dual": {
                row_names[r]: float(v) for r, v in enumerate(ray) if v != 0.0
            },
        })
    return leaves


def assemble_milp_certificate(
    network: Any,
    region: Any,
    objective: Any,
    threshold: float,
    margin: float,
    name: str,
    screen: SymbolicScreen,
    model: Any,
    proof: Optional[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    """A ``milp`` certificate, or ``None`` when the proof is incomplete."""
    if proof is None:
        return None
    leaves = milp_proof_leaves(model, proof)
    if leaves is None:
        return None
    return build_certificate(
        KIND_MILP, network, region, objective, threshold, margin,
        name=name, chain=chain_payload(screen), leaves=leaves,
    )


def fill_leaf_slot(
    slot: Dict[str, Any], certificate: Optional[Mapping[str, Any]]
) -> None:
    """Copy a shard certificate's evidence into its split-tree slot.

    A shard without a usable certificate leaves its slot empty, which
    makes the parent tree unassemblable — the parent verdict then ships
    without a certificate instead of with a hole in its cover.
    """
    if certificate is None:
        return
    kind = certificate.get("kind")
    if kind not in (KIND_STATIC, KIND_MILP):
        return
    slot["kind"] = kind
    slot["chain"] = certificate["chain"]
    if kind == KIND_MILP:
        slot["leaves"] = certificate["leaves"]


def _slots_filled(node: Mapping[str, Any]) -> bool:
    if "split_dim" in node:
        return _slots_filled(node["low"]) and _slots_filled(node["high"])
    return node.get("kind") in ("pruned", KIND_STATIC, KIND_MILP)


def assemble_split_certificate(
    network: Any,
    region: Any,
    objective: Any,
    threshold: float,
    margin: float,
    name: str,
    tree: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """A ``split`` certificate, or ``None`` when any slot stayed empty.

    The assembled tree is immediately replayed through the checker, and
    this is the only check its shards' evidence gets: a shard's chain
    and Farkas leaves are checked as leaves of the tree, not on their
    own first.  A bad shard leaf, or a drifted one (a shard solved over
    a box that no longer matches the midpoint re-derivation), yields no
    certificate rather than a rejected one.
    """
    if tree is None or not _slots_filled(tree):
        return None
    cert = build_certificate(
        KIND_SPLIT, network, region, objective, threshold, margin,
        name=name, tree=tree,
    )
    return None if _check.check_certificate(cert).has_errors else cert
