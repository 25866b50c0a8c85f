"""One box at a time: the test suite's oracle for the symbolic screen.

This is how :func:`repro.analysis.symbolic.symbolic_screen` screened a
box before the prover batched sibling boxes into one kernel call and
joined the output layer's backward pass with the objective's: each box
alone, one backward pass per layer after the first, then a separate
pass for the objective seeded by folding the objective row through the
output layer.  Relaxation slopes come from a lazy per-layer cache, and
:func:`reference_chain_payload` serializes a screen's chain from that
cache, as the emitter did before a screen carried its slopes.

It is not on any proving path; the tests run it beside the prover and
expect the same bounds, objective bounds, sensitivity and winning
policies, and the same certificate chain bytes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.bounds import LayerBounds, _interval_affine
from repro.core.properties import InputRegion
from repro.errors import EncodingError
from repro.nn.network import FeedForwardNetwork

#: Lower-relaxation slope policies, in the prover's order.
POLICIES = ("area", "zero", "one")


def _upper_slopes(
    lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    active = lower >= 0.0
    unstable = (~active) & (upper > 0.0)
    chord = np.where(
        unstable, upper / np.where(unstable, upper - lower, 1.0), 0.0
    )
    up_slope = np.where(active, 1.0, chord)
    up_icept = np.where(unstable, -chord * lower, 0.0)
    return up_slope, up_icept


def _policy_slopes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    active = lower >= 0.0
    unstable = (~active) & (upper > 0.0)
    area = np.where(unstable, upper >= -lower, active)
    stack = np.array([area, active, active | unstable], dtype=float)
    return stack[:, np.newaxis, :]


class SlopeCache:
    """Lazy per-layer relaxation slopes over a growing bounds list."""

    def __init__(self, computed: List[LayerBounds]) -> None:
        self._computed = computed
        self._upper: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._lower: Dict[int, np.ndarray] = {}

    def upper(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if k not in self._upper:
            b = self._computed[k]
            self._upper[k] = _upper_slopes(b.lower, b.upper)
        return self._upper[k]

    def lower(self, k: int) -> np.ndarray:
        if k not in self._lower:
            b = self._computed[k]
            self._lower[k] = _policy_slopes(b.lower, b.upper)
        return self._lower[k]


def _concretize_hi(coef, bias, lo, hi):
    pos = np.maximum(coef, 0.0)
    neg = np.minimum(coef, 0.0)
    return bias + pos @ hi + neg @ lo


def _post_box(layer_bounds: LayerBounds, activation: str):
    if activation == "relu":
        return (
            np.maximum(layer_bounds.lower, 0.0),
            np.maximum(layer_bounds.upper, 0.0),
        )
    return layer_bounds.lower, layer_bounds.upper


def _both_sides(coef, bias, copies=1):
    return (
        np.concatenate([coef, -coef] * copies),
        np.concatenate([bias, -bias] * copies),
    )


def _run_backward(network, slopes, post_boxes, input_box, coef, bias, start):
    best = _concretize_hi(coef, bias, *post_boxes[start])
    for k in range(start, -1, -1):
        layer_k = network.layers[k]
        if layer_k.activation == "relu":
            us, ui = slopes.upper(k)
            ls = slopes.lower(k)
            pos = np.maximum(coef, 0.0)
            neg = np.minimum(coef, 0.0)
            bias = bias + pos @ ui
            coef = pos * us + (
                neg.reshape(ls.shape[0], -1, neg.shape[1]) * ls
            ).reshape(neg.shape)
        bias = bias + coef @ layer_k.bias
        coef = coef @ layer_k.weights.T
        box = post_boxes[k - 1] if k > 0 else input_box
        np.minimum(best, _concretize_hi(coef, bias, *box), out=best)
    return best, coef


def _collapse_crossed(lo: np.ndarray, hi: np.ndarray) -> None:
    crossed = lo > hi
    if crossed.any():
        mid = 0.5 * (lo[crossed] + hi[crossed])
        lo[crossed] = mid
        hi[crossed] = mid


def _policy_backsubstitute(
    network, slopes, post_boxes, input_box, coef, bias, start
):
    m = coef.shape[0]
    p = len(POLICIES)
    rows, rows_bias = _both_sides(coef, bias, copies=p)
    hi_all, input_coef = _run_backward(
        network, slopes, post_boxes, input_box, rows, rows_bias, start,
    )
    per = hi_all.reshape(p, 2, m)
    per_hi = per[:, 0]
    per_lo = -per[:, 1]
    best_lo = per_lo.max(axis=0)
    best_hi = per_hi.min(axis=0)
    _collapse_crossed(best_lo, best_hi)
    return best_lo, best_hi, per_lo, per_hi, input_coef.reshape(p, 2 * m, -1)


def _layer_pass(network, input_box, per_policy):
    input_lo, input_hi = input_box
    computed: List[LayerBounds] = []
    post_boxes = []
    winners: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    slopes = SlopeCache(computed)
    for index, layer in enumerate(network.layers):
        if index == 0:
            lo, hi = _interval_affine(
                input_lo, input_hi, layer.weights, layer.bias
            )
            winners.append(None)
            per_policy.append(None)
        else:
            lo, hi, per_lo, per_hi, _ = _policy_backsubstitute(
                network, slopes, post_boxes, input_box,
                layer.weights.T, layer.bias, start=index - 1,
            )
            winners.append((per_lo.argmax(axis=0), per_hi.argmin(axis=0)))
            per_policy.append((per_lo, per_hi))
        bounds = LayerBounds(lo, hi)
        computed.append(bounds)
        post_boxes.append(_post_box(bounds, layer.activation))
    return computed, post_boxes, slopes, winners


def _objective_row(network, coefficients):
    if network.layers[-1].activation != "identity":
        raise EncodingError(
            "objective bounds need a linear output layer "
            f"(got {network.layers[-1].activation!r})"
        )
    c = np.zeros(network.output_dim)
    for idx, coef in coefficients.items():
        if not 0 <= idx < network.output_dim:
            raise EncodingError(
                f"objective references output {idx}, network has "
                f"{network.output_dim}"
            )
        c[idx] = coef
    return c


def _objective_pass(network, input_box, rows, slopes, post_boxes,
                    per_policy):
    out_layer = network.layers[-1]
    seed = rows @ out_layer.weights.T
    seed_bias = rows @ out_layer.bias
    if len(network.layers) == 1:
        both, both_bias = _both_sides(seed, seed_bias)
        hi_all = _concretize_hi(both, both_bias, *input_box)
        m = rows.shape[0]
        per_policy.append(None)
        return -hi_all[m:], hi_all[:m], None, both
    lo, hi, per_lo, per_hi, input_coef = _policy_backsubstitute(
        network, slopes, post_boxes, input_box, seed, seed_bias,
        start=len(network.layers) - 2,
    )
    winners = (per_lo.argmax(axis=0), per_hi.argmin(axis=0))
    per_policy.append((per_lo, per_hi))
    return lo, hi, winners, input_coef[POLICIES.index("area")]


@dataclasses.dataclass
class ReferenceScreen:
    """One box's screen: what ``symbolic_screen`` returned, computed
    the old way."""

    bounds: List[LayerBounds]
    winners: List[Optional[Tuple[np.ndarray, np.ndarray]]]
    #: Per winners entry, ``(per_lo, per_hi)``: each policy's bound on
    #: each row, ``(policies, m)``, whose arg-best is the winner.
    per_policy: List[Optional[Tuple[np.ndarray, np.ndarray]]]
    objective_lower: Optional[float] = None
    objective_upper: Optional[float] = None
    sensitivity: Optional[np.ndarray] = None


def reference_screen(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficients: Optional[Mapping[int, float]] = None,
) -> ReferenceScreen:
    """Layer bounds, then objective bounds and sensitivity of one box."""
    input_box = (region.bounds[:, 0].copy(), region.bounds[:, 1].copy())
    per_policy: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    computed, post_boxes, slopes, winners = _layer_pass(
        network, input_box, per_policy
    )
    screen = ReferenceScreen(
        bounds=computed, winners=winners, per_policy=per_policy,
    )
    if coefficients is not None:
        row = _objective_row(network, coefficients)
        lo, hi, obj_winners, area_coef = _objective_pass(
            network, input_box, row[np.newaxis, :], slopes, post_boxes,
            per_policy,
        )
        screen.objective_lower = float(lo[0])
        screen.objective_upper = float(hi[0])
        screen.sensitivity = np.abs(area_coef).max(axis=0)
        winners.append(obj_winners)
    return screen


def _relax_payload(activations, slopes, winners, start):
    win_lo, win_hi = winners
    relax: Dict[str, Dict[str, Any]] = {}
    for k in range(start + 1):
        if activations[k] != "relu":
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


def reference_chain_payload(
    network: FeedForwardNetwork, screen: Any
) -> Dict[str, Any]:
    """A certificate ``chain`` rebuilt from a screen's bounds and
    winners, recomputing every slope from the bounds."""
    activations = [layer.activation for layer in network.layers]
    slopes = SlopeCache(screen.bounds)
    layers: List[Dict[str, Any]] = []
    for index, (bounds, winners) in enumerate(
        zip(screen.bounds, screen.winners)
    ):
        entry: Dict[str, Any] = {
            "lower": bounds.lower.tolist(), "upper": bounds.upper.tolist(),
        }
        if winners is not None:
            entry["relax"] = _relax_payload(
                activations, slopes, winners, index - 1
            )
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
                activations, slopes, winners, len(screen.bounds) - 2
            )
        chain["objective"] = objective
    return chain
