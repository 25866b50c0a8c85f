"""Entry-by-entry chain replay: the test suite's oracle for the checker.

This is how :mod:`repro.proof.check` replayed a back-substitution chain
before it batched the whole chain into one stacked sweep: each layer
entry and the objective are taken in order, every recorded relaxation
an entry uses is validated on its own, and the entry is replayed by a
separate backward pass from its own layer down to the input, with
separate upper and lower coefficient matrices.  It is not on any
proving path; the tests run it beside the checker and expect the same
accept/reject verdict and the same replayed objective interval.

:func:`check_chain` has the signature and the return value of
``repro.proof.check._check_chain``, so a test can swap it in to check a
whole certificate the old way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.audit import AuditReport, Severity
from repro.proof.check import (
    _as_array,
    _Box,
    _claimed_objective,
    _interval_affine,
    _Layers,
    _Malformed,
)
from repro.tolerances import PROOF_REPLAY_TOL


def _conc_hi(
    coef: np.ndarray, bias: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    return bias + np.maximum(coef, 0.0) @ hi + np.minimum(coef, 0.0) @ lo


def _conc_lo(
    coef: np.ndarray, bias: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    return bias + np.maximum(coef, 0.0) @ lo + np.minimum(coef, 0.0) @ hi


def _parse_relax(
    raw: Any, k: int, m: int, n_k: int, what: str
) -> Dict[str, np.ndarray]:
    if not isinstance(raw, dict) or str(k) not in raw:
        raise _Malformed(f"{what} has no relaxation for ReLU layer {k}")
    entry = raw[str(k)]
    if not isinstance(entry, dict):
        raise _Malformed(f"{what} relaxation for layer {k} is not an object")
    try:
        return {
            "up_slope": _as_array(
                entry["up_slope"], (n_k,), f"{what}.relax[{k}].up_slope"
            ),
            "up_icept": _as_array(
                entry["up_icept"], (n_k,), f"{what}.relax[{k}].up_icept"
            ),
            "lo_lower": _as_array(
                entry["lo_lower"], (m, n_k), f"{what}.relax[{k}].lo_lower"
            ),
            "up_lower": _as_array(
                entry["up_lower"], (m, n_k), f"{what}.relax[{k}].up_lower"
            ),
        }
    except KeyError as exc:
        raise _Malformed(
            f"{what} relaxation for layer {k} is missing {exc}"
        ) from exc


def _validate_relax(
    report: AuditReport,
    subject: str,
    relax: Dict[str, np.ndarray],
    layer_lo: np.ndarray,
    layer_hi: np.ndarray,
) -> bool:
    """Soundness of one recorded relaxation (A304 on failure)."""
    ok = True
    for key in ("lo_lower", "up_lower"):
        slopes = relax[key]
        if np.any(slopes < 0.0) or np.any(slopes > 1.0):
            report.add(
                "A304", Severity.ERROR, subject,
                f"{key} slope outside [0, 1] "
                f"(range [{slopes.min():.6g}, {slopes.max():.6g}])",
            )
            ok = False
    slope = relax["up_slope"]
    icept = relax["up_icept"]
    for z in (layer_lo, layer_hi):
        gap = np.maximum(z, 0.0) - (slope * z + icept)
        if np.any(gap > PROOF_REPLAY_TOL):
            report.add(
                "A304", Severity.ERROR, subject,
                "upper relaxation line falls below relu at an interval "
                f"endpoint (worst violation {gap.max():.6g})",
            )
            ok = False
            break
    return ok


def _replay(
    layers: _Layers,
    relax: Dict[int, Dict[str, np.ndarray]],
    post_boxes: List[_Box],
    input_box: _Box,
    coef: np.ndarray,
    bias: np.ndarray,
    start: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Anytime backward substitution of one entry's rows."""
    up_coef = coef.copy()
    up_bias = bias.copy()
    lo_coef = coef.copy()
    lo_bias = bias.copy()
    box_lo, box_hi = post_boxes[start]
    best_hi = _conc_hi(up_coef, up_bias, box_lo, box_hi)
    best_lo = _conc_lo(lo_coef, lo_bias, box_lo, box_hi)
    for k in range(start, -1, -1):
        weights, layer_bias, activation = layers[k]
        if activation == "relu":
            entry = relax[k]
            us = entry["up_slope"]
            ui = entry["up_icept"]
            up_pos = np.maximum(up_coef, 0.0)
            up_neg = np.minimum(up_coef, 0.0)
            up_bias = up_bias + up_pos @ ui
            up_coef = up_pos * us + up_neg * entry["up_lower"]
            lo_pos = np.maximum(lo_coef, 0.0)
            lo_neg = np.minimum(lo_coef, 0.0)
            lo_bias = lo_bias + lo_neg @ ui
            lo_coef = lo_pos * entry["lo_lower"] + lo_neg * us
        up_bias = up_bias + up_coef @ layer_bias
        lo_bias = lo_bias + lo_coef @ layer_bias
        up_coef = up_coef @ weights.T
        lo_coef = lo_coef @ weights.T
        if k > 0:
            box_lo, box_hi = post_boxes[k - 1]
        else:
            box_lo, box_hi = input_box
        best_hi = np.minimum(
            best_hi, _conc_hi(up_coef, up_bias, box_lo, box_hi)
        )
        best_lo = np.maximum(
            best_lo, _conc_lo(lo_coef, lo_bias, box_lo, box_hi)
        )
    return best_lo, best_hi


def check_chain(
    report: AuditReport,
    subject: str,
    layers: _Layers,
    input_box: _Box,
    chain: Any,
    objective_row: Optional[np.ndarray],
) -> Tuple[Optional[List[_Box]], Optional[Tuple[float, float]]]:
    """Validate one chain entry by entry; see the module docstring."""
    if not isinstance(chain, dict) or "layers" not in chain:
        raise _Malformed("chain has no layers")
    entries = chain["layers"]
    if not isinstance(entries, list) or len(entries) != len(layers):
        raise _Malformed(
            f"chain has {len(entries) if isinstance(entries, list) else '?'}"
            f" layer entries, network has {len(layers)}"
        )
    validated: List[_Box] = []
    post_boxes: List[_Box] = []
    ok = True
    for i, entry in enumerate(entries):
        weights, bias, activation = layers[i]
        n_i = bias.shape[0]
        what = f"chain.layer{i}"
        if not isinstance(entry, dict):
            raise _Malformed(f"{what} is not an object")
        lo_c = _as_array(entry.get("lower"), (n_i,), f"{what}.lower")
        hi_c = _as_array(entry.get("upper"), (n_i,), f"{what}.upper")
        if i == 0:
            replay_lo, replay_hi = _interval_affine(
                input_box[0], input_box[1], weights, bias
            )
        else:
            relax: Dict[int, Dict[str, np.ndarray]] = {}
            relax_ok = True
            for k in range(i):
                if layers[k][2] != "relu":
                    continue
                n_k = layers[k][1].shape[0]
                relax[k] = _parse_relax(
                    entry.get("relax"), k, n_i, n_k, what
                )
                if not _validate_relax(
                    report, f"{subject}.{what}", relax[k],
                    validated[k][0], validated[k][1],
                ):
                    relax_ok = False
            if not relax_ok:
                return None, None
            replay_lo, replay_hi = _replay(
                layers, relax, post_boxes, input_box,
                weights.T.copy(), bias.copy(), start=i - 1,
            )
        low_gap = float(np.max(lo_c - replay_lo))
        high_gap = float(np.max(replay_hi - hi_c))
        if low_gap > PROOF_REPLAY_TOL or high_gap > PROOF_REPLAY_TOL:
            report.add(
                "A305", Severity.ERROR, f"{subject}.{what}",
                "claimed bounds are tighter than the replayed chain "
                f"supports (lower gap {low_gap:.6g}, upper gap "
                f"{high_gap:.6g})",
            )
            ok = False
        validated.append((lo_c, hi_c))
        if activation == "relu":
            post_boxes.append(
                (np.maximum(lo_c, 0.0), np.maximum(hi_c, 0.0))
            )
        else:
            post_boxes.append((lo_c, hi_c))
    if not ok:
        return None, None

    obj_bounds: Optional[Tuple[float, float]] = None
    if objective_row is not None:
        obj_entry = chain.get("objective")
        if not isinstance(obj_entry, dict):
            raise _Malformed("chain has no objective entry")
        out_w, out_b, _ = layers[-1]
        seed = (objective_row[np.newaxis, :] @ out_w.T)
        seed_bias = objective_row[np.newaxis, :] @ out_b
        if len(layers) == 1:
            replay_lo = _conc_lo(seed, seed_bias, *input_box)
            replay_hi = _conc_hi(seed, seed_bias, *input_box)
        else:
            relax = {}
            for k in range(len(layers) - 1):
                if layers[k][2] != "relu":
                    continue
                n_k = layers[k][1].shape[0]
                relax[k] = _parse_relax(
                    obj_entry.get("relax"), k, 1, n_k, "chain.objective"
                )
                if not _validate_relax(
                    report, f"{subject}.chain.objective", relax[k],
                    validated[k][0], validated[k][1],
                ):
                    return validated, None
            replay_lo, replay_hi = _replay(
                layers, relax, post_boxes, input_box,
                seed.copy(), seed_bias.copy(), start=len(layers) - 2,
            )
        claimed_lo, claimed_hi = _claimed_objective(obj_entry)
        low_gap = claimed_lo - float(replay_lo[0])
        high_gap = float(replay_hi[0]) - claimed_hi
        if low_gap > PROOF_REPLAY_TOL or high_gap > PROOF_REPLAY_TOL:
            report.add(
                "A305", Severity.ERROR, f"{subject}.chain.objective",
                "claimed objective bounds are tighter than the replayed "
                f"chain supports (lower gap {low_gap:.6g}, upper gap "
                f"{high_gap:.6g})",
            )
            return validated, None
        obj_bounds = (float(replay_lo[0]), float(replay_hi[0]))
    return validated, obj_bounds
