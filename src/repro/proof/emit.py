"""Certificate emission: turning proving-path evidence into artifacts.

This is the *emitting* half of :mod:`repro.proof` — unlike
:mod:`repro.proof.check` it is allowed (and required) to import the
symbolic engine and the MILP stack, because it runs inside the prover.

Two jobs:

* :func:`record_chain` runs the fixed-policy symbolic prescreen
  (:func:`repro.analysis.symbolic.symbolic_screen`) and keeps, per
  (target layer, ReLU layer) pair, which policy won each row — enough
  to rebuild exactly the relaxation slopes it used, the chord upper
  line plus the per-row lower slopes — so the checker can replay every
  claimed bound without knowing anything about the policy search.  The
  evidence is lazy: a :class:`ChainRecord` is a picklable record of
  arrays, bounded once per box and handed from the prescreen to the
  bisection plan and the MILP shards, and it serializes its JSON
  ``chain`` only when a certificate embeds it.

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

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.symbolic import (
    SymbolicScreen,
    _SlopeCache,
    symbolic_screen,
)
from repro.proof import check as _check
from repro.proof.certificate import (
    KIND_MILP,
    KIND_SPLIT,
    KIND_STATIC,
    build_certificate,
)

__all__ = [
    "ChainRecord",
    "assemble_milp_certificate",
    "assemble_split_certificate",
    "assemble_static_certificate",
    "fill_leaf_slot",
    "record_chain",
]


@dataclasses.dataclass
class ChainRecord(SymbolicScreen):
    """Fixed-policy bounds plus the evidence behind them.

    The evidence is kept as arrays (the winning policy per row and
    side, see :class:`~repro.analysis.symbolic.SymbolicScreen`); the
    serialized ``chain`` a certificate embeds is built on first access
    and then kept.  Most records never reach a certificate — a split
    node that is bisected further, or a query that is falsified — so
    they never pay for it.
    """

    _chain: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def chain(self) -> Dict[str, Any]:
        if self._chain is None:
            self._chain = _serialize_chain(self)
        return self._chain


def _relax_payload(
    record: ChainRecord,
    slopes: _SlopeCache,
    winners: Tuple[np.ndarray, np.ndarray],
    start: int,
) -> Dict[str, Dict[str, Any]]:
    """Winning-policy slope matrices for every ReLU layer up to ``start``.

    The stacked pass is row-separable, so replaying row ``r`` with the
    slope vectors of its winning policy reproduces the best bound for
    that row exactly.
    """
    win_lo, win_hi = winners
    relax: Dict[str, Dict[str, Any]] = {}
    for k in range(start + 1):
        if record.activations[k] != "relu":
            continue
        up_slope, up_icept = slopes.upper(k)
        stack = slopes.lower(k)[:, 0]
        relax[str(k)] = {
            "up_slope": up_slope.tolist(),
            "up_icept": up_icept.tolist(),
            "lo_lower": stack[win_lo].tolist(),
            "up_lower": stack[win_hi].tolist(),
        }
    return relax


def _serialize_chain(record: ChainRecord) -> Dict[str, Any]:
    """The certificate's ``chain`` payload from a record's arrays."""
    slopes = _SlopeCache(record.bounds)
    layers: List[Dict[str, Any]] = []
    for index, (bounds, winners) in enumerate(
        zip(record.bounds, record.winners)
    ):
        entry: Dict[str, Any] = {
            "lower": bounds.lower.tolist(), "upper": bounds.upper.tolist(),
        }
        if winners is not None:  # layer 0's interval image is exact
            entry["relax"] = _relax_payload(
                record, slopes, winners, index - 1
            )
        layers.append(entry)
    chain: Dict[str, Any] = {"layers": layers}
    if record.objective_upper is not None:
        objective: Dict[str, Any] = {
            "lower": record.objective_lower,
            "upper": record.objective_upper,
        }
        winners = record.winners[len(record.bounds)]
        if winners is not None:
            objective["relax"] = _relax_payload(
                record, slopes, winners, len(record.bounds) - 2
            )
        chain["objective"] = objective
    return chain


def record_chain(
    network: Any,
    region: Any,
    objective_coefficients: Optional[Mapping[int, float]] = None,
) -> ChainRecord:
    """Fixed-policy symbolic bounds with full replay evidence.

    Produces the same numbers as
    :func:`repro.analysis.symbolic.symbolic_bounds` (and
    ``symbolic_objective_bounds`` for the objective) — it is
    :func:`~repro.analysis.symbolic.symbolic_screen` — and keeps the
    relaxation slopes actually used, so the result is checkable.
    """
    screen = symbolic_screen(network, region, objective_coefficients)
    return ChainRecord(**vars(screen))


def assemble_static_certificate(
    network: Any,
    region: Any,
    objective: Any,
    threshold: float,
    margin: float,
    name: str,
    record: ChainRecord,
) -> Optional[Dict[str, Any]]:
    """A ``static`` certificate, or ``None`` if the chain does not prove."""
    if record.objective_upper is None:
        return None
    if record.objective_upper > threshold - margin:
        return None
    return build_certificate(
        KIND_STATIC, network, region, objective, threshold, margin,
        name=name, chain=record.chain,
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
    record: ChainRecord,
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
        name=name, chain=record.chain, leaves=leaves,
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
