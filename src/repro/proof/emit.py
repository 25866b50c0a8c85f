"""Certificate emission: turning proving-path evidence into artifacts.

This is the *emitting* half of :mod:`repro.proof` — unlike
:mod:`repro.proof.check` it is allowed (and required) to import the
symbolic engine and the MILP stack, because it runs inside the prover.

Two jobs:

* :func:`record_chain` re-runs the fixed-policy symbolic propagation
  while capturing, per (target layer, ReLU layer) pair, exactly the
  relaxation slopes the winning policy used — the chord upper line plus
  the per-row lower slopes — so the checker can replay every claimed
  bound without knowing anything about the policy search.

* :func:`assemble_milp_certificate` converts a branch-and-bound proof
  record (leaf literals + per-leaf standardized dual rays) into the
  named-row Farkas leaves of the certificate format.  Each ray is
  *self-validated* against the same clean-room encoding rebuild the
  checker uses, so a wrong or missing ray from the LP backend can never
  produce a certificate the checker would reject — it produces no
  certificate at all, which is an honest (and visible) failure.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.audit import AuditReport
from repro.analysis.symbolic import (
    POLICIES,
    _check_supported,
    _objective_row,
    _objective_seed,
    _policy_backsubstitute,
    _post_box,
    _SlopeCache,
)
from repro.core.bounds import LayerBounds, _interval_affine
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
class ChainRecord:
    """Fixed-policy bounds plus the serialized evidence behind them."""

    bounds: List[LayerBounds]
    chain: Dict[str, Any]
    objective_lower: Optional[float] = None
    objective_upper: Optional[float] = None


def _relax_payload(
    network: Any,
    slopes: _SlopeCache,
    per_lo: np.ndarray,
    per_hi: np.ndarray,
    start: int,
) -> Dict[str, Dict[str, Any]]:
    """Winning-policy slope matrices for every ReLU layer up to ``start``.

    The stacked pass is row-separable, so replaying row ``r`` with the
    slope vectors of its winning policy reproduces the best bound for
    that row exactly.
    """
    win_lo = per_lo.argmax(axis=0)
    win_hi = per_hi.argmin(axis=0)
    relax: Dict[str, Dict[str, Any]] = {}
    for k in range(start + 1):
        if network.layers[k].activation != "relu":
            continue
        up_slope, up_icept = slopes.upper(k)
        stack = np.stack(
            [slopes.lower(k, policy) for policy in POLICIES]
        )
        relax[str(k)] = {
            "up_slope": up_slope.tolist(),
            "up_icept": up_icept.tolist(),
            "lo_lower": stack[win_lo].tolist(),
            "up_lower": stack[win_hi].tolist(),
        }
    return relax


def record_chain(
    network: Any,
    region: Any,
    objective_coefficients: Optional[Mapping[int, float]] = None,
) -> ChainRecord:
    """Fixed-policy symbolic bounds with full replay evidence.

    Produces the same numbers as
    :func:`repro.analysis.symbolic.symbolic_bounds` (and
    ``symbolic_objective_bounds`` for the objective), but records the
    relaxation slopes actually used so the result is checkable.
    """
    _check_supported(network, region)
    input_lo = region.bounds[:, 0].copy()
    input_hi = region.bounds[:, 1].copy()
    input_box = (input_lo, input_hi)

    computed: List[LayerBounds] = []
    post_boxes: List[Tuple[np.ndarray, np.ndarray]] = []
    slopes = _SlopeCache(computed)
    chain_layers: List[Dict[str, Any]] = []
    for index, layer in enumerate(network.layers):
        if index == 0:
            lo, hi = _interval_affine(
                input_lo, input_hi, layer.weights, layer.bias
            )
            entry: Dict[str, Any] = {
                "lower": lo.tolist(), "upper": hi.tolist(),
            }
        else:
            lo, hi, per_lo, per_hi = _policy_backsubstitute(
                network, slopes, post_boxes, input_box,
                layer.weights.T, layer.bias, start=index - 1,
            )
            entry = {
                "lower": lo.tolist(),
                "upper": hi.tolist(),
                "relax": _relax_payload(
                    network, slopes, per_lo, per_hi, index - 1
                ),
            }
        bounds = LayerBounds(lo, hi)
        computed.append(bounds)
        post_boxes.append(_post_box(bounds, layer.activation))
        chain_layers.append(entry)

    chain: Dict[str, Any] = {"layers": chain_layers}
    obj_lo: Optional[float] = None
    obj_hi: Optional[float] = None
    if objective_coefficients is not None:
        row = _objective_row(network, objective_coefficients)
        seed, seed_bias = _objective_seed(network, row[np.newaxis, :])
        if len(network.layers) == 1:
            lo_arr = seed_bias + (
                np.maximum(seed, 0.0) @ input_lo
                + np.minimum(seed, 0.0) @ input_hi
            )
            hi_arr = seed_bias + (
                np.maximum(seed, 0.0) @ input_hi
                + np.minimum(seed, 0.0) @ input_lo
            )
            obj_lo, obj_hi = float(lo_arr[0]), float(hi_arr[0])
            chain["objective"] = {"lower": obj_lo, "upper": obj_hi}
        else:
            start = len(network.layers) - 2
            lo_b, hi_b, per_lo, per_hi = _policy_backsubstitute(
                network, slopes, post_boxes, input_box, seed,
                seed_bias, start=start,
            )
            obj_lo, obj_hi = float(lo_b[0]), float(hi_b[0])
            chain["objective"] = {
                "lower": obj_lo,
                "upper": obj_hi,
                "relax": _relax_payload(
                    network, slopes, per_lo, per_hi, start
                ),
            }
    return ChainRecord(computed, chain, obj_lo, obj_hi)


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


def _checker_layers(network: Any) -> List[Tuple[np.ndarray, np.ndarray, str]]:
    return [
        (layer.weights, layer.bias, layer.activation)
        for layer in network.layers
    ]


def milp_proof_leaves(
    model: Any,
    proof: Mapping[str, Any],
    network: Any,
    region: Any,
    validated: List[LayerBounds],
    margin: float,
    objective_row: np.ndarray,
    threshold: float,
) -> Optional[List[Dict[str, Any]]]:
    """Named, self-validated Farkas leaves from a B&B proof record.

    ``proof`` is the raw :attr:`repro.milp.solution.MILPResult.proof`
    payload: per leaf, the fixed integer columns and the standardized
    dual ray in :attr:`repro.milp.solution.LPResult.farkas` form
    (``y >= 0`` on the ``<=`` rows).  Column indices become variable
    names, ray entries become per-row multipliers keyed by constraint
    name, and every converted leaf is immediately re-checked with the
    checker's own Farkas arithmetic.  Returns ``None`` as soon as any
    leaf cannot be certified.
    """
    if not proof.get("complete", False):
        return None
    ub_names, eq_names = model.row_names()
    row_names = ub_names + eq_names
    constraints = [c.as_indexed() for c in region.constraints]
    bounds_pairs = [(b.lower, b.upper) for b in validated]
    rows, var_bounds, _ = _check._rebuild_encoding(
        _checker_layers(network), region.bounds, constraints,
        bounds_pairs, margin, objective_row, threshold,
    )
    leaves: List[Dict[str, Any]] = []
    for leaf in proof.get("leaves", []):
        farkas = leaf.get("farkas")
        if farkas is None:
            return None
        ray = np.asarray(farkas, dtype=float)
        if ray.shape != (len(row_names),):
            return None
        literals = {
            model.variables[col].name: int(value)
            for col, value in leaf.get("fixed", {}).items()
        }
        named = {
            row_names[r]: float(v) for r, v in enumerate(ray) if v != 0.0
        }
        if not _check._check_farkas(
            AuditReport(), "emit", rows, var_bounds, literals, named
        ):
            return None
        leaves.append({
            "kind": "farkas",
            "literals": literals,
            "dual": named,
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
    objective_row = _objective_row(network, objective.coefficients)
    leaves = milp_proof_leaves(
        model, proof, network, region, record.bounds, margin,
        objective_row, threshold,
    )
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

    The assembled tree is immediately replayed through the checker, so
    a drifted leaf (a shard solved over a box that no longer matches
    the midpoint re-derivation) yields no certificate rather than a
    rejected one.
    """
    if tree is None or not _slots_filled(tree):
        return None
    cert = build_certificate(
        KIND_SPLIT, network, region, objective, threshold, margin,
        name=name, tree=tree,
    )
    return None if _check.check_certificate(cert).has_errors else cert
