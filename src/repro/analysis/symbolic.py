"""Symbolic bound propagation for ReLU networks.

One backward linear-relaxation kernel, :func:`_run_backward`, serves
every bound in this module.  It bounds *upper* sides only: a lower
bound on a row ``c`` is the negated upper bound of ``-c``, so each
batch of target rows ``C`` travels as ``[C; -C]`` through a single
pass, and the lower-relaxation slopes come from one per-layer
``(policies, n)`` stack broadcast over a policy-major view of the
rows.

The bound is DeepPoly-style anytime back-substitution (Singh et al.;
cf. Wang et al., "Efficient Formal Safety Analysis of Neural
Networks").  Every unstable ReLU with pre-activation bounds ``[l, u]``
is bounded above by the chord ``relu(z) <= u (z - l) / (u - l)`` and
below by a line ``relu(z) >= alpha z``; the three fixed policies
(area-optimal, ``alpha = 0``, ``alpha = 1``) are stacked into **one
batched coefficient matrix** and propagated in a single pass, with the
elementwise-best result kept.  The forms are concretised at *every*
intermediate box, so the first stop reproduces plain interval
propagation exactly and the result is provably no looser than
:func:`repro.core.bounds.interval_bounds`.  Because the policies are
fixed, the winning policy per row is all the independent checker needs
to replay a bound (:mod:`repro.proof`).

**One pass per layer.**  A layer pass makes one kernel call per layer
after the first.  The objective's rows start where the output layer's
do (at the last hidden layer, with the same slopes), so they join the
output layer's call: a screen costs ``len(network.layers) - 1`` calls
in all.  Relaxation slopes are computed once per layer, right after
its bounds.

**Boxes are a leading axis.**  The pass bounds a batch of ``B`` input
boxes at once.  The rows stay 2-D and box-major, ``(B * R, n)``, so
each weight product is one 2-D matrix product over every box; only the
slope multiply and the concretisation, whose vectors differ per box,
see the box axis, and each box is concretised by the same
matrix-vector product it would get alone.

Only the box part of an :class:`~repro.core.properties.InputRegion` is
used; ignoring its linear constraints is sound (they can only shrink
the true reachable set).

:func:`symbolic_screens` is the prescreen of a batch of boxes: layer
bounds, objective bounds and the per-input sensitivity the bisection
driver splits on (:func:`input_sensitivity`), with the winning
policies and slopes as certificate evidence.  The bisection driver
screens both halves of a split in one call; :func:`symbolic_screen`
is the one-box case.  The prover bounds each box once and hands the
:class:`SymbolicScreen` on — to the bisection plan, to the MILP shards
and to LP bound tightening — instead of recomputing it.
:func:`symbolic_objective_bounds` bounds a linear functional of the
*outputs* the same way — the one-shot bound that lets decision queries
be proved statically, with no MILP ever built (see
:meth:`repro.core.verifier.Verifier.prove`); the ``_batch`` variant
pushes many objective rows through one shared substitution chain.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import LayerBounds, _interval_affine
from repro.core.properties import InputRegion, OutputObjective
from repro.errors import EncodingError
from repro.nn.network import FeedForwardNetwork

__all__ = [
    "POLICIES",
    "SymbolicScreen",
    "input_sensitivity",
    "symbolic_bounds",
    "symbolic_objective_bounds",
    "symbolic_objective_bounds_batch",
    "symbolic_screen",
    "symbolic_screens",
]

#: Activations the backward relaxation knows how to traverse.
_SUPPORTED = ("relu", "identity")

#: Lower-relaxation slope policies for unstable neurons; the batched
#: backward pass stacks all of them and keeps the elementwise best.
POLICIES = ("area", "zero", "one")

#: One ReLU layer's relaxation: chord ``(up_slope, up_icept)`` and the
#: ``(policies, n)`` lower-slope stack, each with a leading box axis
#: inside a pass and without one in a :class:`SymbolicScreen`.
Relaxation = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Per-layer post-activation boxes ``(lo, hi)``, each ``(B, n)``.
Boxes = Tuple[np.ndarray, np.ndarray]


def _relaxation(lower: np.ndarray, upper: np.ndarray) -> Relaxation:
    """Slopes of a ReLU layer's relaxation from its pre-activation bounds.

    The upper line is the chord, ``up_slope * z + up_icept``.  Row
    ``i`` of the lower stack holds the slope of ``relu(z) >= alpha z``
    under ``POLICIES[i]`` (area, zero, one); the lower line always
    passes through the origin, so there is no intercept.  For unstable
    neurons ``"area"`` picks the area-optimal ``alpha in {0, 1}`` and
    ``"zero"``/``"one"`` force it — all three are sound, and which one
    is tightest depends on the downstream coefficient signs.
    """
    active = lower >= 0.0
    unstable = (~active) & (upper > 0.0)
    chord = np.where(
        unstable, upper / np.where(unstable, upper - lower, 1.0), 0.0
    )
    up_slope = np.where(active, 1.0, chord)
    up_icept = np.where(unstable, -chord * lower, 0.0)
    area = np.where(unstable, upper >= -lower, active)
    stack = np.array([area, active, active | unstable], dtype=float)
    return up_slope, up_icept, stack.swapaxes(0, 1)


def _box_dot(rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``rows[i] @ vectors[b]`` for the box ``b`` that owns row ``i``.

    ``rows`` are box-major ``(B * R, n)`` and ``vectors`` ``(B, n)``.
    Each box is one matrix-vector product, batched over the boxes.  A
    lone box skips the batch axis: the result is the same to the bit,
    and the batched call costs about 10 % of a one-box screen in numpy
    call overhead.
    """
    boxes, n = vectors.shape
    if boxes == 1:
        return rows @ vectors[0]
    return np.matmul(
        rows.reshape(boxes, -1, n), vectors[:, :, np.newaxis]
    ).reshape(-1)


def _concretize_hi(
    coef: np.ndarray, bias: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Maximum of each row ``coef @ v + bias`` over its box ``[lo, hi]``."""
    pos = np.maximum(coef, 0.0)
    neg = np.minimum(coef, 0.0)
    return bias + _box_dot(pos, hi) + _box_dot(neg, lo)


def _hidden_stop(
    lower: np.ndarray, upper: np.ndarray, activation: str
) -> Tuple[Boxes, Optional[Relaxation]]:
    """A hidden layer as a stop of the backward pass: its
    post-activation box and, for a ReLU, its relaxation."""
    if activation == "relu":
        post_box = (np.maximum(lower, 0.0), np.maximum(upper, 0.0))
        return post_box, _relaxation(lower, upper)
    return (lower, upper), None


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


def _input_boxes(regions: Sequence[InputRegion]) -> Boxes:
    bounds = np.array([region.bounds for region in regions])
    return bounds[:, :, 0].copy(), bounds[:, :, 1].copy()


def _run_backward(
    network: FeedForwardNetwork,
    relaxations: List[Optional[Relaxation]],
    post_boxes: List[Boxes],
    input_box: Boxes,
    coef: np.ndarray,
    bias: np.ndarray,
    start: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The backward kernel: upper bounds of a batch of affine forms.

    The ``(B * R, n)`` coefficients arrive expressed over the
    *post-activations of layer ``start``*, box-major, each box's ``R``
    rows as policy-major groups, one per entry of :data:`POLICIES`, and
    are pushed backward one layer at a time.  At a ReLU layer a
    positive coefficient takes the chord, a negative one the lower line
    of its row's policy: the ``(B, policies, n)`` stack is broadcast
    over the ``(B, policies, R / policies, n)`` view of the rows.
    Lower bounds are upper bounds of negated rows, so there is one code
    path.

    The forms are concretised at every stop (the first equals interval
    propagation) and the elementwise best is returned.

    Returns ``(best_hi, input_coef)``: the bounds and the coefficients
    fully substituted to the input.
    """
    best = _concretize_hi(coef, bias, *post_boxes[start])
    for k in range(start, -1, -1):
        layer_k = network.layers[k]
        if relaxations[k] is not None:
            up_slope, up_icept, stack = relaxations[k]
            boxes, policies, n = stack.shape
            # The lower line has no intercept: only the chord adds bias.
            pos = np.maximum(coef, 0.0)
            neg = np.minimum(coef, 0.0)
            bias = bias + _box_dot(pos, up_icept)
            coef = (
                pos.reshape(boxes, -1, n) * up_slope[:, np.newaxis]
                + (
                    neg.reshape(boxes, policies, -1, n)
                    * stack[:, :, np.newaxis]
                ).reshape(boxes, -1, n)
            ).reshape(-1, n)
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


#: Bounds of ``m`` target rows over ``B`` boxes: ``(lo, hi, win_lo,
#: win_hi, area)``, the first four ``(B, m)`` and ``area`` the
#: area-policy input coefficients ``(B, 2, m, n_in)`` of ``C`` and ``-C``.
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _policy_backsubstitute(
    network: FeedForwardNetwork,
    relaxations: List[Optional[Relaxation]],
    post_boxes: List[Boxes],
    input_box: Boxes,
    coef: np.ndarray,
    bias: np.ndarray,
    start: int,
) -> Rows:
    """Both sides of ``m`` target rows, every policy, every box: one call.

    The rows and their negations are replicated once per policy and per
    box into a single box-major, policy-major ``(B * p * 2m)``-row
    matrix.  Each policy yields sound bounds, so the elementwise best
    across them is sound too; which policy wins depends on the signs
    the coefficients pick up as they travel backward, which is why no
    single choice dominates.  The arg-best per row is the winning
    policy a certificate records.
    """
    boxes = len(input_box[0])
    m = coef.shape[0]
    p = len(POLICIES)
    hi_all, input_coef = _run_backward(
        network, relaxations, post_boxes, input_box,
        np.concatenate([coef, -coef] * (boxes * p)),
        np.concatenate([bias, -bias] * (boxes * p)),
        start,
    )
    per = hi_all.reshape(boxes, p, 2, m)
    per_hi = per[:, :, 0]
    per_lo = -per[:, :, 1]
    best_lo = per_lo.max(axis=1)
    best_hi = per_hi.min(axis=1)
    _collapse_crossed(best_lo, best_hi)
    area = input_coef.reshape(boxes, p, 2, m, -1)[:, POLICIES.index("area")]
    return best_lo, best_hi, per_lo.argmax(axis=1), per_hi.argmin(axis=1), area


def _take(result: Rows, rows: slice) -> Rows:
    """The target rows ``rows`` of a :func:`_policy_backsubstitute`
    result."""
    lo, hi, win_lo, win_hi, area = result
    return (
        lo[:, rows], hi[:, rows], win_lo[:, rows], win_hi[:, rows],
        area[:, :, rows],
    )


#: Objective bounds over ``B`` boxes: ``(lo, hi, winners, sensitivity)``
#: with ``lo``/``hi`` ``(B, m)``, ``winners`` ``(win_lo, win_hi)`` (``None``
#: for a single-layer network, which needs no relaxation) and the
#: ``(B, n_in)`` sensitivity of :func:`input_sensitivity`.
Objective = Tuple[np.ndarray, np.ndarray,
                  Optional[Tuple[np.ndarray, np.ndarray]], np.ndarray]


def _objective(result: Rows) -> Objective:
    lo, hi, win_lo, win_hi, area = result
    return lo, hi, (win_lo, win_hi), np.abs(area).max(axis=(1, 2))


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
    return rows @ out_layer.weights.T, rows @ out_layer.bias


def _objective_pass(
    network: FeedForwardNetwork,
    relaxations: List[Optional[Relaxation]],
    post_boxes: List[Boxes],
    input_box: Boxes,
    rows: np.ndarray,
) -> Objective:
    """Fixed-policy bounds on objective rows over known layer bounds.

    The seeded rows are pushed back from the last hidden layer; a
    single-layer network concretises them at the input box directly.
    """
    seed, seed_bias = _objective_seed(network, rows)
    if len(network.layers) > 1:
        return _objective(_policy_backsubstitute(
            network, relaxations, post_boxes, input_box, seed, seed_bias,
            start=len(network.layers) - 2,
        ))
    boxes, m = len(input_box[0]), rows.shape[0]
    hi_all = _concretize_hi(
        np.concatenate([seed, -seed] * boxes),
        np.concatenate([seed_bias, -seed_bias] * boxes), *input_box,
    ).reshape(boxes, 2, m)
    sensitivity = np.tile(np.abs(seed).max(axis=0), (boxes, 1))
    return -hi_all[:, 1], hi_all[:, 0], None, sensitivity


def _layer_pass(
    network: FeedForwardNetwork,
    input_box: Boxes,
    objective_rows: Optional[np.ndarray] = None,
) -> Tuple[List[Boxes], List[Optional[Relaxation]],
           List[Optional[Tuple[np.ndarray, np.ndarray]]],
           Optional[Objective]]:
    """Fixed-policy pre-activation bounds of every layer over ``B`` boxes.

    Returns ``(bounds, relaxations, winners, objective)``:
    ``bounds[i]`` is ``(lo, hi)`` of layer ``i``, ``relaxations[k]``
    the slopes of hidden layer ``k`` (``None`` unless it is a ReLU),
    ``winners[i]`` ``(win_lo, win_hi)``, the policy index that won each
    row of layer ``i`` (``None`` for layer 0, whose interval image is
    exact), and ``objective`` the bounds of ``objective_rows``, which
    join the output layer's kernel call.
    """
    last = len(network.layers) - 1
    bounds: List[Boxes] = []
    post_boxes: List[Boxes] = []
    relaxations: List[Optional[Relaxation]] = []
    winners: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    objective: Optional[Objective] = None
    for index, layer in enumerate(network.layers):
        if index == 0:
            # Affine over the input box: the interval image is exact.
            # Each box is its own vector-matrix product.
            lo, hi = (
                image[:, 0] for image in _interval_affine(
                    input_box[0][:, np.newaxis], input_box[1][:, np.newaxis],
                    layer.weights, layer.bias,
                )
            )
            winners.append(None)
        else:
            coef, bias = layer.weights.T, layer.bias
            joined = index == last and objective_rows is not None
            if joined:
                seed, seed_bias = _objective_seed(network, objective_rows)
                coef = np.concatenate([coef, seed])
                bias = np.concatenate([bias, seed_bias])
            result = _policy_backsubstitute(
                network, relaxations, post_boxes, input_box,
                coef, bias, start=index - 1,
            )
            if joined:
                objective = _objective(
                    _take(result, slice(layer.fan_out, None))
                )
                result = _take(result, slice(None, layer.fan_out))
            lo, hi, win_lo, win_hi, _ = result
            winners.append((win_lo, win_hi))
        bounds.append((lo, hi))
        if index < last:
            post_box, relaxation = _hidden_stop(lo, hi, layer.activation)
            post_boxes.append(post_box)
            relaxations.append(relaxation)
    if objective_rows is not None and objective is None:
        objective = _objective_pass(
            network, relaxations, post_boxes, input_box, objective_rows
        )
    return bounds, relaxations, winners, objective


@dataclasses.dataclass
class SymbolicScreen:
    """One box's fixed-policy symbolic prescreen, kept for reuse.

    ``bounds`` equal :func:`symbolic_bounds` over the box, the
    objective bounds equal :func:`symbolic_objective_bounds` over them
    and ``sensitivity`` equals :func:`input_sensitivity`.  A screen
    comes from one kernel call per layer after the first, with the
    objective joined to the output layer's call, and both halves of a
    bisection are screened in the same calls
    (:func:`symbolic_screens`).  ``winners`` (per layer, then the
    objective) and ``relaxations`` — per hidden layer, the
    ``(up_slope, up_icept, policy stack)`` the pass used, ``None``
    unless it is a ReLU — are the evidence
    :func:`repro.proof.emit.chain_payload` serialises.  Arrays and
    tuples only, no closures: a screen pickles into pool jobs.
    """

    bounds: List[LayerBounds]
    objective_lower: Optional[float] = None
    objective_upper: Optional[float] = None
    sensitivity: Optional[np.ndarray] = None
    winners: List[Optional[Tuple[np.ndarray, np.ndarray]]] = (
        dataclasses.field(default_factory=list)
    )
    relaxations: List[Optional[Relaxation]] = dataclasses.field(
        default_factory=list
    )


def symbolic_screens(
    network: FeedForwardNetwork,
    regions: Sequence[InputRegion],
    coefficients: Optional[Mapping[int, float]] = None,
) -> List[SymbolicScreen]:
    """Layer bounds, objective bounds and input sensitivity of each box.

    The fixed-policy prescreen of every box in one layer pass: what
    :func:`symbolic_bounds`, :func:`symbolic_objective_bounds` and
    :func:`input_sensitivity` would give for each, computed once.
    Without ``coefficients`` only the layer bounds are computed.  An
    unsupported shape or objective raises
    :class:`~repro.errors.EncodingError` before any bound is computed.
    """
    for region in regions:
        _check_supported(network, region)
    rows = None
    if coefficients is not None:
        rows = _objective_row(network, coefficients)[np.newaxis, :]
    bounds, relaxations, winners, objective = _layer_pass(
        network, _input_boxes(regions), rows
    )
    screens = []
    for b in range(len(regions)):
        screen = SymbolicScreen(
            bounds=[LayerBounds(lo[b], hi[b]) for lo, hi in bounds],
            winners=[
                None if w is None else (w[0][b], w[1][b]) for w in winners
            ],
            relaxations=[
                None if r is None else (r[0][b], r[1][b], r[2][b])
                for r in relaxations
            ],
        )
        if objective is not None:
            lo, hi, obj_winners, sensitivity = objective
            screen.objective_lower = float(lo[b, 0])
            screen.objective_upper = float(hi[b, 0])
            screen.sensitivity = sensitivity[b]
            screen.winners.append(
                None if obj_winners is None
                else (obj_winners[0][b], obj_winners[1][b])
            )
        screens.append(screen)
    return screens


def symbolic_screen(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficients: Optional[Mapping[int, float]] = None,
) -> SymbolicScreen:
    """:func:`symbolic_screens` of one box."""
    return symbolic_screens(network, [region], coefficients)[0]


def symbolic_bounds(
    network: FeedForwardNetwork, region: InputRegion
) -> List[LayerBounds]:
    """Pre-activation bounds for every layer via symbolic propagation.

    Provably no looser than :func:`repro.core.bounds.interval_bounds`
    on every neuron (the first concretisation stop *is* the interval
    value); typically far tighter on deep layers, where interval
    propagation compounds its per-layer over-approximation.
    """
    return symbolic_screen(network, region).bounds


def _objective_over(
    network: FeedForwardNetwork,
    region: InputRegion,
    coefficient_rows: Sequence[Mapping[int, float]],
    bounds: Optional[List[LayerBounds]],
) -> Objective:
    """Bounds of objective rows over ``bounds``, or over the region's
    own layer pass (joined with it) when there are none."""
    _check_supported(network, region)
    rows = np.stack([_objective_row(network, c) for c in coefficient_rows])
    input_box = _input_boxes([region])
    if bounds is None:
        return _layer_pass(network, input_box, rows)[3]
    post_boxes: List[Boxes] = []
    relaxations: List[Optional[Relaxation]] = []
    for layer_bounds, layer in zip(bounds[:-1], network.layers):
        post_box, relaxation = _hidden_stop(
            layer_bounds.lower[np.newaxis], layer_bounds.upper[np.newaxis],
            layer.activation,
        )
        post_boxes.append(post_box)
        relaxations.append(relaxation)
    return _objective_pass(network, relaxations, post_boxes, input_box, rows)


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
    return _objective_over(
        network, region, [objective.coefficients], bounds
    )[3][0]


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
    lo, hi, _, _ = _objective_over(
        network, region, coefficient_rows, bounds
    )
    return lo[0], hi[0]


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
