"""Optimised symbolic bound propagation for ReLU networks.

One backward linear-relaxation kernel, :func:`_run_backward`, serves
every bound in this module.  It bounds *upper* sides only: a lower
bound on a row ``c`` is the negated upper bound of ``-c``, so each
batch of target rows ``C`` travels as ``[C; -C]`` through a single
pass, and the lower-relaxation slopes come from one per-layer
``(policies, 1, n)`` stack broadcast over a policy-major view of the
rows.  Two bound modes are built on it:

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
  and are refined by projected gradient descent on the concretised
  upper bounds of ``[C; -C]``.  The back-substituted affine form gives
  the gradient in closed form (a reverse-mode sweep re-using the
  recorded sign splits; no autodiff framework involved), every iterate
  is itself a sound bound, and the result is intersected with the
  fixed-policy bounds so it **provably dominates** ``symbolic_bounds``
  elementwise.

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

:func:`symbolic_screen` is the prescreen of one box in one fused pass:
layer bounds, objective bounds and the per-input sensitivity the
bisection driver splits on (:func:`input_sensitivity`), with the
winning policies as certificate evidence.  The prover bounds each box
once with it and hands the :class:`SymbolicScreen` on — to the
bisection plan, to the MILP shards and to LP bound tightening — instead
of recomputing it.
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
from repro.core.properties import InputRegion, OutputObjective
from repro.errors import EncodingError
from repro.nn.network import FeedForwardNetwork

__all__ = [
    "POLICIES",
    "DEFAULT_ALPHA_ITERS",
    "DEFAULT_ALPHA_LR",
    "AlphaStats",
    "AlphaBoundsList",
    "SymbolicScreen",
    "alpha_bounds",
    "alpha_objective_bounds",
    "alpha_objective_bounds_batch",
    "input_sensitivity",
    "symbolic_bounds",
    "symbolic_objective_bounds",
    "symbolic_objective_bounds_batch",
    "symbolic_screen",
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
    active = lower >= 0.0
    unstable = (~active) & (upper > 0.0)
    chord = np.where(
        unstable, upper / np.where(unstable, upper - lower, 1.0), 0.0
    )
    up_slope = np.where(active, 1.0, chord)
    up_icept = np.where(unstable, -chord * lower, 0.0)
    return up_slope, up_icept


def _policy_slopes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Lower-relaxation slopes of every policy, as one ``(p, 1, n)`` stack.

    Row ``i`` holds the slope of ``relu(z) >= alpha z`` under
    ``POLICIES[i]`` (area, zero, one).  The lower line always passes
    through the origin, so there is no intercept.  For unstable neurons
    ``"area"`` picks the area-optimal ``alpha in {0, 1}`` and
    ``"zero"``/``"one"`` force it — all three are sound, and which one
    is tightest depends on the downstream coefficient signs.  The middle axis lets the stack
    broadcast over a policy-major ``(p, rows, n)`` view of the rows.
    """
    active = lower >= 0.0
    unstable = (~active) & (upper > 0.0)
    area = np.where(unstable, upper >= -lower, active)
    stack = np.array([area, active, active | unstable], dtype=float)
    return stack[:, np.newaxis, :]


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
        self._lower: Dict[int, np.ndarray] = {}
        self._unstable: Dict[int, np.ndarray] = {}

    def upper(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if k not in self._upper:
            b = self._computed[k]
            self._upper[k] = _upper_slopes(b.lower, b.upper)
        return self._upper[k]

    def lower(self, k: int) -> np.ndarray:
        """The ``(p, 1, n)`` policy stack of :func:`_policy_slopes`."""
        if k not in self._lower:
            b = self._computed[k]
            self._lower[k] = _policy_slopes(b.lower, b.upper)
        return self._lower[k]

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


def _input_box(region: InputRegion) -> Tuple[np.ndarray, np.ndarray]:
    return region.bounds[:, 0].copy(), region.bounds[:, 1].copy()


def _both_sides(
    coef: np.ndarray, bias: np.ndarray, copies: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """``[C; -C]`` (repeated ``copies`` times): the kernel bounds upper
    sides only, and the lower bound of a row is the negated upper bound
    of its negation."""
    return (
        np.concatenate([coef, -coef] * copies),
        np.concatenate([bias, -bias] * copies),
    )


def _run_backward(
    network: FeedForwardNetwork,
    slopes: _SlopeCache,
    post_boxes: List[Tuple[np.ndarray, np.ndarray]],
    input_box: Tuple[np.ndarray, np.ndarray],
    coef: np.ndarray,
    bias: np.ndarray,
    start: int,
    lower_slope: Callable[[int], np.ndarray],
    record: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The backward kernel: upper bounds of a batch of affine forms.

    The ``(rows, n)`` coefficients arrive expressed over the
    *post-activations of layer ``start``* and are pushed backward one
    layer at a time.  At a ReLU layer a positive coefficient takes the
    chord, a negative one the lower line, whose slopes
    ``lower_slope(k)`` supplies as a ``(g, r, n)`` array broadcast over
    the ``(g, rows / g, n)`` view of the rows: ``(p, 1, n)`` policy
    stacks for policy-major row groups, ``(1, rows, n)`` per-row
    optimised alphas.  Lower bounds are upper bounds of negated rows
    (see :func:`_both_sides`), so there is one code path.

    The forms are concretised at every stop (the first equals interval
    propagation) and the elementwise best is returned.  ``record``
    captures the pre-relaxation coefficient matrix per ReLU layer for
    the closed-form gradient sweep.

    Returns ``(best_hi, input_coef)``: the bounds and the coefficients
    fully substituted to the input.
    """
    best = _concretize_hi(coef, bias, *post_boxes[start])
    for k in range(start, -1, -1):
        layer_k = network.layers[k]
        if layer_k.activation == "relu":
            us, ui = slopes.upper(k)
            ls = lower_slope(k)
            if record is not None:
                record[k] = coef
            # The lower line has no intercept: only the chord adds bias.
            pos = np.maximum(coef, 0.0)
            neg = np.minimum(coef, 0.0)
            bias = bias + pos @ ui
            coef = pos * us + (
                neg.reshape(ls.shape[0], -1, neg.shape[1]) * ls
            ).reshape(neg.shape)
        # identity: coefficients pass through unchanged.

        # Through the affine part of layer k: z_k = a_{k-1} @ W_k + b_k.
        bias = bias + coef @ layer_k.bias
        coef = coef @ layer_k.weights.T
        box = post_boxes[k - 1] if k > 0 else input_box
        np.minimum(best, _concretize_hi(coef, bias, *box), out=best)
    return best, coef


def _collapse_crossed(lo: np.ndarray, hi: np.ndarray) -> None:
    """Collapse float-rounding crossings of individually-sound bounds."""
    crossed = lo > hi
    if crossed.any():
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward substitution under every slope policy in one batch.

    The ``m`` target rows and their negations are replicated once per
    policy into a single policy-major ``(p * 2m)``-row matrix, so one
    kernel pass bounds both sides under every policy, with the policy
    slopes broadcast from the cached ``(p, 1, n)`` stacks.  Each policy
    yields sound bounds, so the elementwise best across them is sound
    too; which policy wins depends on the signs the coefficients pick
    up as they travel backward, which is why no single choice dominates.

    Returns ``(best_lo, best_hi, per_lo, per_hi, input_coef)`` where the
    ``per_*`` arrays hold the per-policy values with shape
    ``(policies, m)`` — the warm start for the alpha optimiser — and
    ``input_coef`` the ``(policies, 2m, n_in)`` input coefficients
    (rows ``C`` then ``-C``).
    """
    m = coef.shape[0]
    p = len(POLICIES)
    rows, rows_bias = _both_sides(coef, bias, copies=p)
    hi_all, input_coef = _run_backward(
        network, slopes, post_boxes, input_box, rows, rows_bias, start,
        slopes.lower,
    )
    per = hi_all.reshape(p, 2, m)
    per_hi = per[:, 0]
    per_lo = -per[:, 1]
    best_lo = per_lo.max(axis=0)
    best_hi = per_hi.min(axis=0)
    _collapse_crossed(best_lo, best_hi)
    return best_lo, best_hi, per_lo, per_hi, input_coef.reshape(p, 2 * m, -1)


def _layer_pass(
    network: FeedForwardNetwork,
    input_box: Tuple[np.ndarray, np.ndarray],
) -> Tuple[List[LayerBounds], List[Tuple[np.ndarray, np.ndarray]],
           _SlopeCache, List[Optional[Tuple[np.ndarray, np.ndarray]]]]:
    """Fixed-policy pre-activation bounds of every layer.

    Returns ``(bounds, post_boxes, slopes, winners)``; ``winners[i]``
    is ``(win_lo, win_hi)``, the policy index that won each row of
    layer ``i`` (``None`` for layer 0, whose interval image is exact).
    """
    input_lo, input_hi = input_box
    computed: List[LayerBounds] = []
    post_boxes: List[Tuple[np.ndarray, np.ndarray]] = []
    winners: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    slopes = _SlopeCache(computed)
    for index, layer in enumerate(network.layers):
        if index == 0:
            # Affine over the input box: the interval image is exact.
            lo, hi = _interval_affine(
                input_lo, input_hi, layer.weights, layer.bias
            )
            winners.append(None)
        else:
            lo, hi, per_lo, per_hi, _ = _policy_backsubstitute(
                network, slopes, post_boxes, input_box,
                layer.weights.T, layer.bias, start=index - 1,
            )
            winners.append((per_lo.argmax(axis=0), per_hi.argmin(axis=0)))
        bounds = LayerBounds(lo, hi)
        computed.append(bounds)
        post_boxes.append(_post_box(bounds, layer.activation))
    return computed, post_boxes, slopes, winners


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
    return _layer_pass(network, _input_box(region))[0]


def _alpha_gradients(
    network: FeedForwardNetwork,
    slopes: _SlopeCache,
    record: Dict[int, np.ndarray],
    input_box: Tuple[np.ndarray, np.ndarray],
    input_coef: np.ndarray,
    start: int,
    alpha: Dict[int, np.ndarray],
) -> Dict[int, np.ndarray]:
    """Closed-form gradients of the input-stop bounds w.r.t. the alphas.

    A reverse-mode sweep over the backward pass itself: the adjoint of
    the concretised bound w.r.t. the running coefficient matrix starts
    at the input box (the concretisation picks ``lo`` or ``hi`` per
    coefficient sign) and is pushed forward through the recorded
    relax/affine steps.  An alpha at ReLU layer ``k`` multiplies the
    negative coefficients of a row, so its gradient is the adjoint
    times that coefficient part — no numerical differentiation anywhere.
    """
    input_lo, input_hi = input_box
    abar = np.where(input_coef >= 0.0, input_hi, input_lo)
    grads: Dict[int, np.ndarray] = {}
    for k in range(start + 1):
        layer_k = network.layers[k]
        # Reverse of the affine step (bias adjoint is identically 1).
        abar = abar @ layer_k.weights + layer_k.bias
        if layer_k.activation == "relu":
            pre = record[k]
            us, ui = slopes.upper(k)
            grads[k] = abar * np.minimum(pre, 0.0)
            # Reverse of the relaxation step.
            abar = np.where(pre >= 0.0, abar * us + ui, abar * alpha[k][0])
    return grads


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

    The rows ``C`` and ``-C`` each get their own alphas, warm-started
    from whichever fixed policy won that row and side in the stacked
    pass, so the very first iterate already matches the fixed-policy
    best; every subsequent iterate is a sound bound (any ``alpha in
    [0, 1]`` is), so folding the elementwise best over all iterates is
    sound and monotone — the result provably dominates the warm start.
    Every iterate is one kernel pass that tightens the upper bound of
    all ``2m`` rows (descent on their alphas).
    """
    relu_all = [
        k for k in range(start + 1)
        if network.layers[k].activation == "relu"
    ]
    relu_ks = [k for k in relu_all if bool(np.any(slopes.unstable(k)))]
    if not relu_ks or iters <= 0:
        return init_lo, init_hi

    m = coef.shape[0]
    rows, rows_bias = _both_sides(coef, bias)
    win = np.concatenate([per_hi.argmin(axis=0), per_lo.argmax(axis=0)])
    # Slope matrices exist for *every* ReLU layer (the backward pass
    # consults them all); only layers with unstable neurons are free.
    # Shaped (1, 2m, n): one row group for the kernel's broadcast.
    alpha = {
        k: slopes.lower(k)[win, 0][np.newaxis] for k in relu_all
    }
    free = {
        k: slopes.unstable(k)[np.newaxis, :].astype(float) for k in relu_ks
    }

    best_lo = init_lo.copy()
    best_hi = init_hi.copy()

    def fold(hi_t: np.ndarray) -> None:
        np.minimum(best_hi, hi_t[:m], out=best_hi)
        np.maximum(best_lo, -hi_t[m:], out=best_lo)

    decay = _ALPHA_DECAY_TARGET ** (1.0 / max(iters - 1, 1))
    step = lr
    tiny = 1e-12
    for _ in range(iters):
        record: Dict[int, np.ndarray] = {}
        hi_t, input_coef = _run_backward(
            network, slopes, post_boxes, input_box, rows, rows_bias,
            start, alpha.__getitem__, record=record,
        )
        fold(hi_t)
        grads = _alpha_gradients(
            network, slopes, record, input_box, input_coef, start, alpha,
        )
        gmax = np.zeros(2 * m)
        for k in relu_ks:
            grads[k] *= free[k]
            gmax = np.maximum(gmax, np.abs(grads[k]).max(axis=1))
        scale = (step / np.maximum(gmax, tiny))[:, np.newaxis]
        for k in relu_ks:
            # Descent on the upper bound; projection back onto the
            # sound slope box [0, 1].
            np.clip(alpha[k] - scale * grads[k], 0.0, 1.0, out=alpha[k])
        step *= decay
    # Evaluate the final projected iterate too.
    fold(_run_backward(
        network, slopes, post_boxes, input_box, rows, rows_bias, start,
        alpha.__getitem__,
    )[0])
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

    input_box = _input_box(region)
    computed: List[LayerBounds] = []
    post_boxes: List[Tuple[np.ndarray, np.ndarray]] = []
    slopes = _SlopeCache(computed)
    width_fixed = 0.0
    width_alpha = 0.0
    for index, layer in enumerate(network.layers):
        if index == 0:
            lo, hi = _interval_affine(
                *input_box, layer.weights, layer.bias
            )
        else:
            coef = layer.weights.T
            bias = layer.bias
            base_lo, base_hi, per_lo, per_hi, _ = _policy_backsubstitute(
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


def _objective_pass(
    network: FeedForwardNetwork,
    computed: List[LayerBounds],
    input_box: Tuple[np.ndarray, np.ndarray],
    rows: np.ndarray,
    slopes: Optional[_SlopeCache] = None,
    post_boxes: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray,
           Optional[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Fixed-policy bounds on objective rows over layer bounds.

    Returns ``(lo, hi, winners, area_coef)``: ``winners`` as in
    :func:`_layer_pass` (``None`` for a single-layer network, which
    needs no relaxation) and ``area_coef`` the area-policy input
    coefficients of the rows ``C`` then ``-C``, the source of
    :func:`input_sensitivity`.  ``slopes``/``post_boxes`` may carry
    the ones the layer pass built over ``computed``.
    """
    seed, seed_bias = _objective_seed(network, rows)
    if len(network.layers) == 1:
        both, both_bias = _both_sides(seed, seed_bias)
        hi_all = _concretize_hi(both, both_bias, *input_box)
        m = rows.shape[0]
        return -hi_all[m:], hi_all[:m], None, both
    if post_boxes is None:
        post_boxes = [
            _post_box(lb, layer.activation)
            for lb, layer in zip(computed, network.layers)
        ]
    if slopes is None:
        slopes = _SlopeCache(list(computed))
    lo, hi, per_lo, per_hi, input_coef = _policy_backsubstitute(
        network, slopes, post_boxes, input_box, seed, seed_bias,
        start=len(network.layers) - 2,
    )
    winners = (per_lo.argmax(axis=0), per_hi.argmin(axis=0))
    return lo, hi, winners, input_coef[POLICIES.index("area")]


def _sensitivity(area_coef: np.ndarray) -> np.ndarray:
    return np.abs(area_coef).max(axis=0)


@dataclasses.dataclass
class SymbolicScreen:
    """One box's fixed-policy symbolic prescreen, kept for reuse.

    ``bounds`` equal :func:`symbolic_bounds` over the box, the
    objective bounds equal :func:`symbolic_objective_bounds` over them
    and ``sensitivity`` equals :func:`input_sensitivity`, all from one
    kernel pass per layer plus one for the objective.  ``winners``
    (per layer, then the objective) and ``activations`` are the
    evidence :class:`repro.proof.emit.ChainRecord` serialises.  Arrays
    and tuples only, no closures: a screen pickles into pool jobs.
    """

    bounds: List[LayerBounds]
    objective_lower: Optional[float] = None
    objective_upper: Optional[float] = None
    sensitivity: Optional[np.ndarray] = None
    activations: Tuple[str, ...] = ()
    winners: List[Optional[Tuple[np.ndarray, np.ndarray]]] = (
        dataclasses.field(default_factory=list)
    )


def symbolic_screen(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficients: Optional[Mapping[int, float]] = None,
) -> SymbolicScreen:
    """Layer bounds, objective bounds and input sensitivity of one box.

    The fixed-policy prescreen in one pass over the box: what
    :func:`symbolic_bounds`, :func:`symbolic_objective_bounds` and
    :func:`input_sensitivity` would give, computed once.  Without
    ``coefficients`` only the layer bounds are computed.
    """
    _check_supported(network, region)
    input_box = _input_box(region)
    computed, post_boxes, slopes, winners = _layer_pass(network, input_box)
    screen = SymbolicScreen(
        bounds=computed,
        activations=tuple(layer.activation for layer in network.layers),
        winners=winners,
    )
    if coefficients is not None:
        row = _objective_row(network, coefficients)
        lo, hi, obj_winners, area_coef = _objective_pass(
            network, computed, input_box, row[np.newaxis, :],
            slopes=slopes, post_boxes=post_boxes,
        )
        screen.objective_lower = float(lo[0])
        screen.objective_upper = float(hi[0])
        screen.sensitivity = _sensitivity(area_coef)
        winners.append(obj_winners)
    return screen


def input_sensitivity(
    network: FeedForwardNetwork,
    region: InputRegion,
    objective: OutputObjective,
    bounds: Optional[List[LayerBounds]] = None,
) -> np.ndarray:
    """Per-input-dimension influence of the objective over the region.

    Back-substitutes the objective functional to the input (area
    policy) and returns ``max(|lower coef|, |upper coef|)`` per input
    dimension — the linear forms the prescreen concretises, so this is
    the sensitivity the symbolic analysis computes "for free" (a
    :class:`SymbolicScreen` carries it).  ``bounds`` may carry
    precomputed symbolic layer bounds to reuse.
    """
    computed = bounds if bounds is not None else symbolic_bounds(
        network, region
    )
    row = _objective_row(network, objective.coefficients)
    area_coef = _objective_pass(
        network, computed, _input_box(region), row[np.newaxis, :]
    )[3]
    return _sensitivity(area_coef)


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
    lo, hi, _, _ = _objective_pass(
        network, computed, _input_box(region), rows
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
    input_box = _input_box(region)
    if len(network.layers) == 1:
        lo, hi, _, _ = _objective_pass(network, computed, input_box, rows)
        return lo, hi

    seed, seed_bias = _objective_seed(network, rows)
    post_boxes = [
        _post_box(lb, layer.activation)
        for lb, layer in zip(computed, network.layers)
    ]
    slopes = _SlopeCache(list(computed))
    start = len(network.layers) - 2
    base_lo, base_hi, per_lo, per_hi, _ = _policy_backsubstitute(
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
