"""Optimised symbolic bound propagation for ReLU networks.

One backward linear-relaxation engine with pluggable lower-slope
policies serves two bound modes:

* ``symbolic_bounds`` — DeepPoly-style anytime back-substitution
  (Singh et al.; cf. Wang et al., "Efficient Formal Safety Analysis of
  Neural Networks").  Every unstable ReLU with pre-activation bounds
  ``[l, u]`` is bounded above by the chord ``relu(z) <= u (z - l) / (u
  - l)`` and below by a line ``relu(z) >= alpha z``; the three fixed
  policies (area-optimal, ``alpha = 0``, ``alpha = 1``) are stacked
  into **one batched coefficient matrix** and propagated in a single
  pass, with the elementwise-best result kept.  The forms are
  concretised at *every* intermediate box, so the first stop reproduces
  plain interval propagation exactly and the result is provably no
  looser than :func:`repro.core.bounds.interval_bounds`.

* ``alpha_bounds`` — the optimised escalation: the unstable lower
  slopes ``alpha`` become free parameters *per (target row, neuron)*
  and are refined by projected gradient ascent on the concretised
  bound.  The back-substituted affine form gives the gradient in
  closed form (a reverse-mode sweep re-using the recorded sign splits;
  no autodiff framework involved), every iterate is itself a sound
  bound, and the result is intersected with the fixed-policy bounds so
  it **provably dominates** ``symbolic_bounds`` elementwise.

Relaxation slopes are computed once per layer and shared across every
target layer, policy and gradient iteration via :class:`_SlopeCache`,
removing the quadratic slope rework of the per-policy implementation.

Only the box part of an :class:`~repro.core.properties.InputRegion` is
used; ignoring its linear constraints is sound (they can only shrink
the true reachable set).

:func:`symbolic_objective_bounds` / :func:`alpha_objective_bounds` run
the same machinery seeded with a linear functional of the *outputs*
instead of a layer's weight rows — the one-shot bound that lets
decision queries be proved statically, with no MILP ever built (see
:meth:`repro.core.verifier.Verifier.prove`).  The ``_batch`` variants
push many objective rows through one shared substitution chain.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import (
    DEFAULT_ALPHA_ITERS,
    DEFAULT_ALPHA_LR,
    LayerBounds,
    _interval_affine,
)
from repro.core.properties import InputRegion
from repro.errors import EncodingError
from repro.nn.network import FeedForwardNetwork

__all__ = [
    "POLICIES",
    "DEFAULT_ALPHA_ITERS",
    "DEFAULT_ALPHA_LR",
    "AlphaStats",
    "AlphaBoundsList",
    "alpha_bounds",
    "alpha_objective_bounds",
    "alpha_objective_bounds_batch",
    "symbolic_bounds",
    "symbolic_objective_bounds",
    "symbolic_objective_bounds_batch",
]

#: Activations the backward relaxation knows how to traverse.
_SUPPORTED = ("relu", "identity")

#: Lower-relaxation slope policies for unstable neurons; the batched
#: backward pass stacks all of them and keeps the elementwise best.
POLICIES = ("area", "zero", "one")

#: Final step size is ``lr * _ALPHA_DECAY_TARGET`` (geometric schedule).
_ALPHA_DECAY_TARGET = 0.1


@dataclasses.dataclass
class AlphaStats:
    """Telemetry from one :func:`alpha_bounds` run.

    ``improvement`` is the relative shrinkage of the summed bound width
    over all back-substituted layers versus the fixed-policy symbolic
    bounds (``0.0`` = no tightening, ``0.15`` = widths down 15%).
    """

    iters: int = 0
    improvement: float = 0.0

    def as_metrics(self) -> Dict[str, float]:
        """The stats as flat metric entries for result/span telemetry."""
        return {
            "alpha_iters": float(self.iters),
            "alpha_improvement": float(self.improvement),
        }


class AlphaBoundsList(list):
    """Per-layer bounds with the optimiser's telemetry riding along.

    Behaves exactly like the plain ``List[LayerBounds]`` the other
    bound modes return; ``alpha_stats`` carries an :class:`AlphaStats`
    and ``fixed_bounds`` the phase-1 fixed-policy bounds (used by
    :func:`alpha_objective_bounds` to guarantee objective dominance).
    Both attributes survive pickling but not the JSONL cache spill —
    a spilled entry reloads as a plain list, which is fine: cache hits
    pay zero optimiser iterations.
    """

    def __init__(
        self,
        layers: Sequence[LayerBounds],
        stats: AlphaStats,
        fixed: Optional[List[LayerBounds]] = None,
    ) -> None:
        super().__init__(layers)
        self.alpha_stats = stats
        self.fixed_bounds = fixed


def _upper_slopes(
    lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-neuron ``(slope, intercept)`` of the chord upper relaxation."""
    n = lower.shape[0]
    up_slope = np.zeros(n)
    up_icept = np.zeros(n)
    active = lower >= 0.0
    up_slope[active] = 1.0
    unstable = (~active) & (upper > 0.0)
    lo_u = lower[unstable]
    hi_u = upper[unstable]
    chord = hi_u / (hi_u - lo_u)
    up_slope[unstable] = chord
    up_icept[unstable] = -chord * lo_u
    return up_slope, up_icept


def _lower_slopes(
    lower: np.ndarray, upper: np.ndarray, policy: str
) -> np.ndarray:
    """Per-neuron slope of the lower relaxation ``relu(z) >= alpha z``.

    The lower line always passes through the origin, so there is no
    intercept.  ``policy`` fixes ``alpha`` for unstable neurons:
    ``"area"`` picks the area-optimal ``alpha in {0, 1}``,
    ``"zero"``/``"one"`` force it — all three are sound, and which one
    is tightest depends on the downstream coefficient signs.
    """
    lo_slope = np.zeros(lower.shape[0])
    active = lower >= 0.0
    lo_slope[active] = 1.0
    unstable = (~active) & (upper > 0.0)
    if policy == "area":
        lo_slope[unstable] = (upper[unstable] >= -lower[unstable]).astype(
            float
        )
    elif policy == "one":
        lo_slope[unstable] = 1.0
    elif policy != "zero":
        raise EncodingError(f"unknown relaxation policy {policy!r}")
    return lo_slope


class _SlopeCache:
    """Lazy per-layer relaxation slopes over a growing bounds list.

    One instance is shared by every target layer, policy and gradient
    iteration of a propagation run, so slopes for layer ``k`` are
    computed exactly once instead of once per (target, policy) pair.
    Entries are read only after ``computed[k]`` is final, so growing
    the underlying list is safe.
    """

    def __init__(self, computed: List[LayerBounds]) -> None:
        self._computed = computed
        self._upper: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._lower: Dict[Tuple[int, str], np.ndarray] = {}
        self._unstable: Dict[int, np.ndarray] = {}

    def upper(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if k not in self._upper:
            b = self._computed[k]
            self._upper[k] = _upper_slopes(b.lower, b.upper)
        return self._upper[k]

    def lower(self, k: int, policy: str) -> np.ndarray:
        key = (k, policy)
        if key not in self._lower:
            b = self._computed[k]
            self._lower[key] = _lower_slopes(b.lower, b.upper, policy)
        return self._lower[key]

    def unstable(self, k: int) -> np.ndarray:
        if k not in self._unstable:
            b = self._computed[k]
            self._unstable[k] = (b.lower < 0.0) & (b.upper > 0.0)
        return self._unstable[k]


def _concretize_hi(
    coef: np.ndarray, bias: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Maximum of ``coef @ v + bias`` over the box ``[lo, hi]``."""
    pos = np.maximum(coef, 0.0)
    neg = np.minimum(coef, 0.0)
    return bias + pos @ hi + neg @ lo


def _concretize_lo(
    coef: np.ndarray, bias: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Minimum of ``coef @ v + bias`` over the box ``[lo, hi]``."""
    pos = np.maximum(coef, 0.0)
    neg = np.minimum(coef, 0.0)
    return bias + pos @ lo + neg @ hi


def _post_box(
    layer_bounds: LayerBounds, activation: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Post-activation box of a layer from its pre-activation bounds."""
    if activation == "relu":
        return (
            np.maximum(layer_bounds.lower, 0.0),
            np.maximum(layer_bounds.upper, 0.0),
        )
    return layer_bounds.lower, layer_bounds.upper


def _check_supported(
    network: FeedForwardNetwork, region: InputRegion
) -> None:
    for layer in network.layers[:-1]:
        if layer.activation not in _SUPPORTED:
            raise EncodingError(
                "symbolic bounds support relu/identity hidden layers "
                f"only (got {layer.activation!r})"
            )
    if region.dim != network.input_dim:
        raise EncodingError(
            f"region dim {region.dim} != network input {network.input_dim}"
        )


_SlopeFn = Callable[[int], np.ndarray]


def _run_backward(
    network: FeedForwardNetwork,
    slopes: _SlopeCache,
    post_boxes: List[Tuple[np.ndarray, np.ndarray]],
    input_box: Tuple[np.ndarray, np.ndarray],
    upper_coef: np.ndarray,
    upper_bias: np.ndarray,
    lower_coef: np.ndarray,
    lower_bias: np.ndarray,
    start: int,
    lower_slope_fn: _SlopeFn,
    upper_slope_fn: _SlopeFn,
    record: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """One batched backward substitution of affine target forms.

    The coefficients arrive expressed over the *post-activations of
    layer ``start``* and are pushed backward one layer at a time.  The
    lower-relaxation slopes are supplied per pass by ``lower_slope_fn``
    (used by the lower-bound rows' positive coefficients) and
    ``upper_slope_fn`` (used by the upper-bound rows' negative
    coefficients); each may return a per-neuron vector or a full
    per-(row, neuron) matrix — broadcasting handles both, which is what
    lets one code path serve the fixed policies, the stacked-policy
    batch and the per-row optimised alphas.

    The forms are concretised at every stop (the first equals interval
    propagation) and the elementwise best is returned.  ``record``
    captures the pre-relaxation coefficient matrices per ReLU layer for
    the closed-form gradient sweep.

    Returns ``(best_lo, best_hi, lower_coef, lower_bias, upper_coef,
    upper_bias)`` with the coefficients fully substituted to the input.
    """
    input_lo, input_hi = input_box
    box_lo, box_hi = post_boxes[start]
    best_hi = _concretize_hi(upper_coef, upper_bias, box_lo, box_hi)
    best_lo = _concretize_lo(lower_coef, lower_bias, box_lo, box_hi)

    for k in range(start, -1, -1):
        layer_k = network.layers[k]
        if layer_k.activation == "relu":
            us, ui = slopes.upper(k)
            ls_lo = lower_slope_fn(k)
            ls_up = upper_slope_fn(k)
            if record is not None:
                record[k] = (upper_coef, lower_coef)
            # Pick the relaxation per coefficient sign, separately for
            # the upper-bound rows and the lower-bound rows.  The lower
            # line has no intercept, so only the chord contributes bias.
            up_pos = np.maximum(upper_coef, 0.0)
            up_neg = np.minimum(upper_coef, 0.0)
            upper_bias = upper_bias + up_pos @ ui
            upper_coef = up_pos * us + up_neg * ls_up
            lo_pos = np.maximum(lower_coef, 0.0)
            lo_neg = np.minimum(lower_coef, 0.0)
            lower_bias = lower_bias + lo_neg @ ui
            lower_coef = lo_pos * ls_lo + lo_neg * us
        # identity: coefficients pass through unchanged.

        # Through the affine part of layer k: z_k = a_{k-1} @ W_k + b_k.
        wk = layer_k.weights
        bk = layer_k.bias
        upper_bias = upper_bias + upper_coef @ bk
        lower_bias = lower_bias + lower_coef @ bk
        upper_coef = upper_coef @ wk.T
        lower_coef = lower_coef @ wk.T

        if k > 0:
            box_lo, box_hi = post_boxes[k - 1]
        else:
            box_lo, box_hi = input_lo, input_hi
        hi_k = _concretize_hi(upper_coef, upper_bias, box_lo, box_hi)
        lo_k = _concretize_lo(lower_coef, lower_bias, box_lo, box_hi)
        best_hi = np.minimum(best_hi, hi_k)
        best_lo = np.maximum(best_lo, lo_k)
    return best_lo, best_hi, lower_coef, lower_bias, upper_coef, upper_bias


def _collapse_crossed(lo: np.ndarray, hi: np.ndarray) -> None:
    """Collapse float-rounding crossings of individually-sound bounds."""
    crossed = lo > hi
    if np.any(crossed):
        mid = 0.5 * (lo[crossed] + hi[crossed])
        lo[crossed] = mid
        hi[crossed] = mid


def _policy_backsubstitute(
    network: FeedForwardNetwork,
    slopes: _SlopeCache,
    post_boxes: List[Tuple[np.ndarray, np.ndarray]],
    input_box: Tuple[np.ndarray, np.ndarray],
    coef: np.ndarray,
    bias: np.ndarray,
    start: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward substitution under every slope policy in one batch.

    The ``m`` target rows are replicated once per policy into a single
    ``(len(POLICIES) * m)``-row coefficient matrix, so one matmul chain
    replaces the former per-policy passes.  Each policy yields sound
    bounds, so the elementwise best across them is sound too; which
    policy wins depends on the signs the coefficients pick up as they
    travel backward, which is why no single choice dominates.

    Returns ``(best_lo, best_hi, per_lo, per_hi)`` where the ``per_*``
    arrays hold the per-policy values with shape ``(policies, m)`` —
    the warm start for the alpha optimiser.
    """
    m = coef.shape[0]
    p = len(POLICIES)
    stacked_coef = np.tile(coef, (p, 1))
    stacked_bias = np.tile(bias, p)
    repeated: Dict[int, np.ndarray] = {}

    def slope_fn(k: int) -> np.ndarray:
        # Rows are ordered policy-major (np.tile), so the slope matrix
        # repeats each policy's vector m times (np.repeat) to match.
        if k not in repeated:
            ls_stack = np.stack(
                [slopes.lower(k, policy) for policy in POLICIES]
            )
            repeated[k] = np.repeat(ls_stack, m, axis=0)
        return repeated[k]

    lo_all, hi_all, _, _, _, _ = _run_backward(
        network, slopes, post_boxes, input_box,
        stacked_coef, stacked_bias, stacked_coef.copy(),
        stacked_bias.copy(), start, slope_fn, slope_fn,
    )
    per_lo = lo_all.reshape(p, m)
    per_hi = hi_all.reshape(p, m)
    best_lo = per_lo.max(axis=0)
    best_hi = per_hi.min(axis=0)
    _collapse_crossed(best_lo, best_hi)
    return best_lo, best_hi, per_lo, per_hi


def symbolic_bounds(
    network: FeedForwardNetwork, region: InputRegion
) -> List[LayerBounds]:
    """Pre-activation bounds for every layer via symbolic propagation.

    Provably no looser than :func:`repro.core.bounds.interval_bounds`
    on every neuron (the first concretisation stop *is* the interval
    value); typically far tighter on deep layers, where interval
    propagation compounds its per-layer over-approximation.
    """
    _check_supported(network, region)
    input_lo = region.bounds[:, 0].copy()
    input_hi = region.bounds[:, 1].copy()

    computed: List[LayerBounds] = []
    post_boxes: List[Tuple[np.ndarray, np.ndarray]] = []
    slopes = _SlopeCache(computed)
    for index, layer in enumerate(network.layers):
        if index == 0:
            # Affine over the input box: the interval image is exact.
            lo, hi = _interval_affine(
                input_lo, input_hi, layer.weights, layer.bias
            )
        else:
            lo, hi, _, _ = _policy_backsubstitute(
                network, slopes, post_boxes, (input_lo, input_hi),
                layer.weights.T, layer.bias, start=index - 1,
            )
        bounds = LayerBounds(lo, hi)
        computed.append(bounds)
        post_boxes.append(_post_box(bounds, layer.activation))
    return computed


def _alpha_gradients(
    network: FeedForwardNetwork,
    slopes: _SlopeCache,
    record: Dict[int, Tuple[np.ndarray, np.ndarray]],
    input_box: Tuple[np.ndarray, np.ndarray],
    lower_coef: np.ndarray,
    upper_coef: np.ndarray,
    start: int,
    alpha_lo: Dict[int, np.ndarray],
    alpha_up: Dict[int, np.ndarray],
) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
    """Closed-form gradients of the input-stop bounds w.r.t. the alphas.

    A reverse-mode sweep over the backward pass itself: the adjoint of
    the concretised bound w.r.t. the running coefficient matrix starts
    at the input box (the concretisation picks ``lo`` or ``hi`` per
    coefficient sign) and is pushed forward through the recorded
    relax/affine steps.  An alpha at ReLU layer ``k`` multiplies the
    positive lower-row coefficients (resp. negative upper-row
    coefficients), so its gradient is the adjoint times that
    coefficient part — no numerical differentiation anywhere.
    """
    input_lo, input_hi = input_box
    abar_lo = np.where(lower_coef >= 0.0, input_lo, input_hi)
    abar_up = np.where(upper_coef >= 0.0, input_hi, input_lo)
    g_lo: Dict[int, np.ndarray] = {}
    g_up: Dict[int, np.ndarray] = {}
    for k in range(start + 1):
        layer_k = network.layers[k]
        wk = layer_k.weights
        bk = layer_k.bias
        # Reverse of the affine step (bias adjoint is identically 1).
        abar_lo = abar_lo @ wk + bk[np.newaxis, :]
        abar_up = abar_up @ wk + bk[np.newaxis, :]
        if layer_k.activation == "relu":
            up_pre, lo_pre = record[k]
            us, ui = slopes.upper(k)
            g_lo[k] = abar_lo * np.maximum(lo_pre, 0.0)
            g_up[k] = abar_up * np.minimum(up_pre, 0.0)
            # Reverse of the relaxation step.
            abar_lo = np.where(
                lo_pre >= 0.0, abar_lo * alpha_lo[k], abar_lo * us + ui
            )
            abar_up = np.where(
                up_pre >= 0.0, abar_up * us + ui, abar_up * alpha_up[k]
            )
    return g_lo, g_up


def _alpha_refine(
    network: FeedForwardNetwork,
    slopes: _SlopeCache,
    post_boxes: List[Tuple[np.ndarray, np.ndarray]],
    input_box: Tuple[np.ndarray, np.ndarray],
    coef: np.ndarray,
    bias: np.ndarray,
    start: int,
    per_lo: np.ndarray,
    per_hi: np.ndarray,
    init_lo: np.ndarray,
    init_hi: np.ndarray,
    iters: int,
    lr: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent on the lower-relaxation slopes.

    Warm-started per (row, direction) from whichever fixed policy won
    the stacked pass, so the very first iterate already matches the
    fixed-policy best; every subsequent iterate is a sound bound (any
    ``alpha in [0, 1]`` is), so folding the elementwise best over all
    iterates is sound and monotone — the result provably dominates the
    warm start.
    """
    relu_all = [
        k for k in range(start + 1)
        if network.layers[k].activation == "relu"
    ]
    relu_ks = [k for k in relu_all if bool(np.any(slopes.unstable(k)))]
    if not relu_ks or iters <= 0:
        return init_lo, init_hi

    m = coef.shape[0]
    win_lo = per_lo.argmax(axis=0)
    win_hi = per_hi.argmin(axis=0)
    alpha_lo: Dict[int, np.ndarray] = {}
    alpha_up: Dict[int, np.ndarray] = {}
    free: Dict[int, np.ndarray] = {}
    # Slope matrices exist for *every* ReLU layer (the backward pass
    # consults them all); only layers with unstable neurons are free.
    for k in relu_all:
        ls_stack = np.stack(
            [slopes.lower(k, policy) for policy in POLICIES]
        )
        alpha_lo[k] = ls_stack[win_lo]
        alpha_up[k] = ls_stack[win_hi]
    for k in relu_ks:
        free[k] = slopes.unstable(k)[np.newaxis, :].astype(float)

    best_lo = init_lo.copy()
    best_hi = init_hi.copy()
    decay = _ALPHA_DECAY_TARGET ** (1.0 / max(iters - 1, 1))
    step = lr
    tiny = 1e-12
    for _ in range(iters):
        record: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        lo_t, hi_t, lo_coef, _, up_coef, _ = _run_backward(
            network, slopes, post_boxes, input_box,
            coef.copy(), bias.copy(), coef.copy(), bias.copy(), start,
            lambda k: alpha_lo[k], lambda k: alpha_up[k],
            record=record,
        )
        np.maximum(best_lo, lo_t, out=best_lo)
        np.minimum(best_hi, hi_t, out=best_hi)
        g_lo, g_up = _alpha_gradients(
            network, slopes, record, input_box, lo_coef, up_coef, start,
            alpha_lo, alpha_up,
        )
        gmax_lo = np.zeros(m)
        gmax_up = np.zeros(m)
        for k in relu_ks:
            g_lo[k] *= free[k]
            g_up[k] *= free[k]
            gmax_lo = np.maximum(gmax_lo, np.abs(g_lo[k]).max(axis=1))
            gmax_up = np.maximum(gmax_up, np.abs(g_up[k]).max(axis=1))
        scale_lo = (step / np.maximum(gmax_lo, tiny))[:, np.newaxis]
        scale_up = (step / np.maximum(gmax_up, tiny))[:, np.newaxis]
        for k in relu_ks:
            # Ascent on the lower bound, descent on the upper bound;
            # projection back onto the sound slope box [0, 1].
            np.clip(alpha_lo[k] + scale_lo * g_lo[k], 0.0, 1.0,
                    out=alpha_lo[k])
            np.clip(alpha_up[k] - scale_up * g_up[k], 0.0, 1.0,
                    out=alpha_up[k])
        step *= decay
    # Evaluate the final projected iterate too.
    lo_t, hi_t, _, _, _, _ = _run_backward(
        network, slopes, post_boxes, input_box,
        coef.copy(), bias.copy(), coef.copy(), bias.copy(), start,
        lambda k: alpha_lo[k], lambda k: alpha_up[k],
    )
    np.maximum(best_lo, lo_t, out=best_lo)
    np.minimum(best_hi, hi_t, out=best_hi)
    return best_lo, best_hi


def alpha_bounds(
    network: FeedForwardNetwork,
    region: InputRegion,
    iters: int = DEFAULT_ALPHA_ITERS,
    lr: float = DEFAULT_ALPHA_LR,
) -> AlphaBoundsList:
    """Alpha-optimised pre-activation bounds for every layer.

    Two phases: the fixed-policy :func:`symbolic_bounds` run first,
    then each layer is re-bounded with per-(row, neuron) optimised
    lower slopes over the *already refined* earlier layers, and the
    result is intersected with the fixed-policy value — so the output
    provably dominates ``symbolic_bounds`` elementwise (and therefore
    interval propagation too), with soundness from the intersection of
    individually sound bounds.
    """
    _check_supported(network, region)
    fixed = symbolic_bounds(network, region)
    stats = AlphaStats(iters=0, improvement=0.0)
    if iters <= 0 or len(network.layers) == 1:
        return AlphaBoundsList(fixed, stats, fixed)

    input_lo = region.bounds[:, 0].copy()
    input_hi = region.bounds[:, 1].copy()
    input_box = (input_lo, input_hi)

    computed: List[LayerBounds] = []
    post_boxes: List[Tuple[np.ndarray, np.ndarray]] = []
    slopes = _SlopeCache(computed)
    width_fixed = 0.0
    width_alpha = 0.0
    for index, layer in enumerate(network.layers):
        if index == 0:
            lo, hi = _interval_affine(
                input_lo, input_hi, layer.weights, layer.bias
            )
        else:
            coef = layer.weights.T
            bias = layer.bias
            base_lo, base_hi, per_lo, per_hi = _policy_backsubstitute(
                network, slopes, post_boxes, input_box, coef, bias,
                start=index - 1,
            )
            lo, hi = _alpha_refine(
                network, slopes, post_boxes, input_box, coef, bias,
                index - 1, per_lo, per_hi, base_lo, base_hi, iters, lr,
            )
            stats.iters += iters
            # Dominance guarantee: never looser than the fixed-policy
            # bounds, which were computed over their own (looser) boxes.
            lo = np.maximum(lo, fixed[index].lower)
            hi = np.minimum(hi, fixed[index].upper)
            _collapse_crossed(lo, hi)
            width_fixed += float(
                np.sum(fixed[index].upper - fixed[index].lower)
            )
            width_alpha += float(np.sum(hi - lo))
        bounds = LayerBounds(lo, hi)
        computed.append(bounds)
        post_boxes.append(_post_box(bounds, layer.activation))
    if width_fixed > 0.0:
        stats.improvement = 1.0 - width_alpha / width_fixed
    return AlphaBoundsList(computed, stats, fixed)


def _objective_row(
    network: FeedForwardNetwork, coefficients: Mapping[int, float]
) -> np.ndarray:
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


def _objective_seed(
    network: FeedForwardNetwork, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold objective rows through the output layer's affine part:
    ``objective = c @ (a_{L-1} @ W_L + b_L)``."""
    out_layer = network.layers[-1]
    seed = rows @ out_layer.weights.T
    seed_bias = rows @ out_layer.bias
    return seed, seed_bias


def symbolic_objective_bounds_batch(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficient_rows: Sequence[Mapping[int, float]],
    bounds: Optional[List[LayerBounds]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sound bounds on many output functionals in one batched pass.

    Returns ``(lower, upper)`` arrays, one entry per row of
    ``coefficient_rows``.  All rows share a single back-substitution
    chain (stacked into one coefficient matrix), so bounding ``m``
    objectives costs one propagation instead of ``m``.
    """
    _check_supported(network, region)
    rows = np.stack(
        [_objective_row(network, c) for c in coefficient_rows]
    )
    computed = bounds if bounds is not None else symbolic_bounds(
        network, region
    )
    input_lo = region.bounds[:, 0].copy()
    input_hi = region.bounds[:, 1].copy()
    seed, seed_bias = _objective_seed(network, rows)

    if len(network.layers) == 1:
        lo = _concretize_lo(seed, seed_bias, input_lo, input_hi)
        hi = _concretize_hi(seed, seed_bias, input_lo, input_hi)
        return lo, hi

    post_boxes = [
        _post_box(lb, layer.activation)
        for lb, layer in zip(computed, network.layers)
    ]
    slopes = _SlopeCache(list(computed))
    lo, hi, _, _ = _policy_backsubstitute(
        network, slopes, post_boxes, (input_lo, input_hi), seed,
        seed_bias, start=len(network.layers) - 2,
    )
    return lo, hi


def symbolic_objective_bounds(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficients: Mapping[int, float],
    bounds: Optional[List[LayerBounds]] = None,
) -> Tuple[float, float]:
    """Sound ``(lower, upper)`` bounds on ``sum c_i * out_i`` over the region.

    Seeds the backward pass with the objective row itself instead of a
    layer's weight matrix, so the whole functional is bounded in one
    substitution chain (tighter than combining per-output bounds, which
    would lose all cross-output cancellation).  The output layer must be
    linear.  ``bounds`` may carry precomputed symbolic layer bounds to
    reuse; they must describe the same network over the same region.
    """
    lo, hi = symbolic_objective_bounds_batch(
        network, region, [coefficients], bounds
    )
    return float(lo[0]), float(hi[0])


def alpha_objective_bounds_batch(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficient_rows: Sequence[Mapping[int, float]],
    bounds: Optional[List[LayerBounds]] = None,
    iters: int = DEFAULT_ALPHA_ITERS,
    lr: float = DEFAULT_ALPHA_LR,
    stats: Optional[AlphaStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Alpha-optimised bounds on many output functionals at once.

    ``bounds`` should be alpha-refined layer bounds (they are computed
    on demand when omitted); when they carry the fixed-policy bounds of
    phase 1 (see :class:`AlphaBoundsList`), the result is additionally
    intersected with the fixed-policy objective bound, making dominance
    over :func:`symbolic_objective_bounds` unconditional.  ``stats``
    accumulates optimiser telemetry in place when given.
    """
    _check_supported(network, region)
    rows = np.stack(
        [_objective_row(network, c) for c in coefficient_rows]
    )
    computed = bounds if bounds is not None else alpha_bounds(
        network, region, iters=iters, lr=lr
    )
    input_lo = region.bounds[:, 0].copy()
    input_hi = region.bounds[:, 1].copy()
    input_box = (input_lo, input_hi)
    seed, seed_bias = _objective_seed(network, rows)

    if len(network.layers) == 1:
        lo = _concretize_lo(seed, seed_bias, input_lo, input_hi)
        hi = _concretize_hi(seed, seed_bias, input_lo, input_hi)
        return lo, hi

    post_boxes = [
        _post_box(lb, layer.activation)
        for lb, layer in zip(computed, network.layers)
    ]
    slopes = _SlopeCache(list(computed))
    start = len(network.layers) - 2
    base_lo, base_hi, per_lo, per_hi = _policy_backsubstitute(
        network, slopes, post_boxes, input_box, seed, seed_bias, start,
    )
    lo, hi = _alpha_refine(
        network, slopes, post_boxes, input_box, seed, seed_bias, start,
        per_lo, per_hi, base_lo, base_hi, iters, lr,
    )
    if stats is not None:
        stats.iters += iters
        base_width = float(np.sum(base_hi - base_lo))
        if base_width > 0.0:
            stats.improvement = max(
                stats.improvement,
                1.0 - float(np.sum(hi - lo)) / base_width,
            )
    fixed = getattr(computed, "fixed_bounds", None)
    if fixed is not None:
        fixed_lo, fixed_hi = symbolic_objective_bounds_batch(
            network, region, coefficient_rows, fixed
        )
        lo = np.maximum(lo, fixed_lo)
        hi = np.minimum(hi, fixed_hi)
    _collapse_crossed(lo, hi)
    return lo, hi


def alpha_objective_bounds(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficients: Mapping[int, float],
    bounds: Optional[List[LayerBounds]] = None,
    iters: int = DEFAULT_ALPHA_ITERS,
    lr: float = DEFAULT_ALPHA_LR,
    stats: Optional[AlphaStats] = None,
) -> Tuple[float, float]:
    """Alpha-optimised ``(lower, upper)`` bound on one output functional."""
    lo, hi = alpha_objective_bounds_batch(
        network, region, [coefficients], bounds, iters=iters, lr=lr,
        stats=stats,
    )
    return float(lo[0]), float(hi[0])
