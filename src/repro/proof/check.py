"""Independent static checker for ``repro-proof/1`` certificates.

This module is the *second opinion* the certification pillar demands: it
re-validates every VERIFIED verdict using nothing but matrix arithmetic
against :mod:`repro.tolerances` — no simplex, no branch-and-bound, no
alpha optimiser.  It deliberately imports **no
solver module** (a property the test suite enforces by inspecting
``sys.modules``), so a soundness bug anywhere in the ~5k-line proving
stack cannot also hide here.

What gets replayed, per certificate kind:

``static``
    The back-substitution chain is replayed in one stacked backward
    sweep.  Every recorded relaxation is first re-validated as a sound
    ReLU relaxation (lower slopes in ``[0, 1]``; upper lines dominate
    ``relu`` at both endpoints of the claimed interval, which suffices
    by convexity), all entries' relaxations of one layer at once.  Then
    the rows of every layer entry and of the objective are pushed to
    the input box together with plain matmuls, each entry's rows
    joining at its own layer, and concretised at every stop.  The
    claimed bounds must be no tighter than the replayed ones, and the
    replayed objective upper bound must clear ``threshold - margin``.
    The entries need not be replayed in order: every bound a replay
    relies on (a relaxation's interval, a concretisation box) is a
    claimed bound that is itself in the certificate and is checked
    against its own replay, so a certificate passes only if all of them
    hold at once, whichever is checked first.

``milp``
    The checker rebuilds the big-M encoding *clean-room* from the
    network and the chain's validated bounds (same stable/ambiguous
    classification, same row shapes, same names), then checks the leaf
    cover: every leaf's binary literals must pairwise conflict and
    count to exactly ``2**|D|`` sub-cubes (exhaustiveness over the
    binary hypercube), and every leaf's Farkas vector must have
    non-negative multipliers and aggregate the rows into an inequality
    violated over the leaf's variable box (weak-duality infeasibility).

``split``
    The partition tree is walked from the parent box; child boxes are
    re-derived from the recorded split dimension (midpoint bisection),
    so the tree provably tiles the parent, and each leaf is checked as
    a ``static``/``milp`` sub-certificate over its derived box.  All
    leaves share the network, so their chains are parsed together,
    field by field, and replayed in the same single sweep, each row
    concretised with its own leaf's claimed boxes and input box; the
    objective is replayed for the ``pruned``/``static`` leaves only.
    The threshold and leaf-cover checks then run leaf by leaf, depth
    first.  A ``static``/``milp`` certificate is the one-leaf case.
    When the tree does not tile the parent (A306) or any leaf's chain
    has a finding, the leaves are checked one at a time instead, so the
    findings come in the order of a depth-first walk.

Failures are structured findings with the ``A3xx`` codes documented in
:mod:`repro.analysis.audit`:

* ``A301`` — malformed certificate (schema, shapes, fingerprint);
* ``A302`` — Farkas/dual check fails (sign or weak-duality);
* ``A303`` — branch-and-bound leaf cover not exhaustive;
* ``A304`` — relaxation slope is not a sound ReLU relaxation;
* ``A305`` — a claimed bound is tighter than its replay supports, or
  the objective bound does not clear the threshold;
* ``A306`` — split tree does not tile the parent box;
* ``A307`` — certificate references rows/variables the rebuilt
  encoding does not have;
* ``A309`` — warning: a check passes with less than one decade of
  slack over its tolerance.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.audit import AuditReport, Severity
from repro.proof.certificate import (
    KIND_MILP,
    KIND_SPLIT,
    KIND_STATIC,
    KINDS,
    PROOF_SCHEMA,
    load_certificate,
)
from repro.tolerances import (
    PROOF_DUAL_TOL,
    PROOF_FARKAS_TOL,
    PROOF_REPLAY_TOL,
)

__all__ = ["check_certificate", "check_certificate_file"]

#: ``(weights, bias, activation)`` triples — the checker's whole view of
#: a network; no :class:`~repro.nn.network.FeedForwardNetwork` needed.
_Layers = List[Tuple[np.ndarray, np.ndarray, str]]
_Box = Tuple[np.ndarray, np.ndarray]
_Row = Tuple[Dict[str, float], float]

#: Warning threshold: findings that pass by less than one decade over
#: their tolerance are reported as A309 warnings.
_SLACK_DECADE = 10.0


class _Malformed(Exception):
    """Structural certificate defect; reported as A301."""


# -- parsing -----------------------------------------------------------------

def _finite(arr: np.ndarray) -> bool:
    # Counting beats a boolean reduction on arrays this small.
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _stacked(
    values: List[Any], shape: Tuple[int, ...], what: str
) -> np.ndarray:
    """One ``(len(values),) + shape`` array from one value per chain.

    A single chain's value is parsed on its own, so its A301 message
    names the shape of one chain's array.
    """
    one = len(values) == 1
    expected = shape if one else (len(values),) + shape
    try:
        arr = np.asarray(values[0] if one else values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"{what} is not numeric: {exc}") from exc
    if arr.shape != expected:
        raise _Malformed(
            f"{what} has shape {arr.shape}, expected {expected}"
        )
    if not _finite(arr):
        raise _Malformed(f"{what} contains non-finite values")
    return arr[np.newaxis] if one else arr


def _as_array(value: Any, shape: Tuple[int, ...], what: str) -> np.ndarray:
    return _stacked([value], shape, what)[0]


def _parse_layers(payload: Any) -> _Layers:
    if not isinstance(payload, dict) or "layers" not in payload:
        raise _Malformed("certificate has no network.layers")
    raw = payload["layers"]
    if not isinstance(raw, list) or not raw:
        raise _Malformed("network.layers must be a non-empty list")
    layers: _Layers = []
    fan_in: Optional[int] = None
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise _Malformed(f"network layer {index} is not an object")
        try:
            weights = np.asarray(entry["weights"], dtype=float)
            bias = np.asarray(entry["bias"], dtype=float)
            activation = str(entry["activation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _Malformed(
                f"network layer {index} is malformed: {exc}"
            ) from exc
        if weights.ndim != 2 or bias.ndim != 1:
            raise _Malformed(
                f"network layer {index} has wrong weight/bias rank"
            )
        if weights.shape[1] != bias.shape[0]:
            raise _Malformed(
                f"network layer {index}: weights {weights.shape} do not "
                f"match bias {bias.shape}"
            )
        if fan_in is not None and weights.shape[0] != fan_in:
            raise _Malformed(
                f"network layer {index}: fan-in {weights.shape[0]} does "
                f"not chain from previous fan-out {fan_in}"
            )
        if activation not in ("relu", "identity"):
            raise _Malformed(
                f"network layer {index}: unsupported activation "
                f"{activation!r}"
            )
        if not (_finite(weights) and _finite(bias)):
            raise _Malformed(
                f"network layer {index} contains non-finite parameters"
            )
        fan_in = int(weights.shape[1])
        layers.append((weights, bias, activation))
    return layers


def _fingerprint(layers: _Layers) -> str:
    """Content hash, byte-compatible with ``FeedForwardNetwork.fingerprint``."""
    digest = hashlib.sha256()
    for weights, bias, activation in layers:
        digest.update(activation.encode())
        digest.update(str(weights.shape).encode())
        digest.update(np.ascontiguousarray(weights).tobytes())
        digest.update(np.ascontiguousarray(bias).tobytes())
    return digest.hexdigest()


def _parse_region(
    payload: Any, input_dim: int
) -> Tuple[np.ndarray, List[Tuple[Dict[int, float], float]]]:
    if not isinstance(payload, dict) or "bounds" not in payload:
        raise _Malformed("certificate has no region.bounds")
    bounds = _as_array(payload["bounds"], (input_dim, 2), "region.bounds")
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise _Malformed("region.bounds crossed (lower > upper)")
    constraints: List[Tuple[Dict[int, float], float]] = []
    for index, entry in enumerate(payload.get("constraints", [])):
        try:
            coeffs = {
                int(i): float(c)
                for i, c in entry["coefficients"].items()
            }
            rhs = float(entry["rhs"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _Malformed(
                f"region constraint {index} is malformed: {exc}"
            ) from exc
        if any(not 0 <= i < input_dim for i in coeffs):
            raise _Malformed(
                f"region constraint {index} references an input outside "
                f"dim {input_dim}"
            )
        constraints.append((coeffs, rhs))
    return bounds, constraints


def _parse_objective(payload: Any, output_dim: int) -> np.ndarray:
    if not isinstance(payload, dict) or "coefficients" not in payload:
        raise _Malformed("certificate has no objective.coefficients")
    row = np.zeros(output_dim)
    try:
        items = list(payload["coefficients"].items())
    except AttributeError as exc:
        raise _Malformed("objective.coefficients is not a mapping") from exc
    for key, coef in items:
        idx = int(key)
        if not 0 <= idx < output_dim:
            raise _Malformed(
                f"objective references output {idx}, network has "
                f"{output_dim}"
            )
        row[idx] = float(coef)
    return row


# -- interval/affine arithmetic ----------------------------------------------

def _interval_affine(
    lo: np.ndarray, hi: np.ndarray, weights: np.ndarray, bias: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    w_pos = np.maximum(weights, 0.0)
    w_neg = np.minimum(weights, 0.0)
    return lo @ w_pos + hi @ w_neg + bias, hi @ w_pos + lo @ w_neg + bias


# -- chain replay ------------------------------------------------------------

class _Target(NamedTuple):
    """One replayed part of a set of chains: a layer entry or the objective.

    Its rows ``coef @ v + bias`` range over the post-activations ``v``
    of layer ``join`` (the input box when ``join`` is -1) and enter the
    sweep there, once for every chain in ``leaves`` (indices into the
    chains replayed together).  ``relax[k]`` stacks those chains'
    recorded ``(up_slope, up_icept, lo_lower, up_lower)`` for every ReLU
    layer ``k <= join``: one row per chain for the chord, one per chain
    and row (chain by chain) for the lower slopes.
    """

    name: str
    join: int
    coef: np.ndarray
    bias: np.ndarray
    leaves: np.ndarray
    relax: Dict[int, Tuple[np.ndarray, ...]]


class _Chains(NamedTuple):
    """Parsed chains of leaves that share one network.

    ``claimed[i]`` and ``post_boxes[i]`` hold layer ``i``'s claimed
    pre-activation box and its post-activation image, one row per
    chain; ``objectives`` are the objective entries of the chains whose
    objective is replayed, in the order of the objective target's
    ``leaves``.
    """

    claimed: List[_Box]
    post_boxes: List[_Box]
    targets: List[_Target]
    objectives: List[Dict[str, Any]]


_RELAX_KEYS = ("up_slope", "up_icept", "lo_lower", "up_lower")


def _target(
    layers: _Layers,
    what: str,
    entries: Sequence[Dict[str, Any]],
    join: int,
    coef: np.ndarray,
    bias: np.ndarray,
    leaves: np.ndarray,
) -> _Target:
    """Parse one target's recorded relaxations (A301 on any defect)."""
    m = coef.shape[0]
    relax: Dict[int, Tuple[np.ndarray, ...]] = {}
    for k in range(join + 1):
        if layers[k][2] != "relu":
            continue
        n_k = layers[k][1].shape[0]
        records = []
        for entry in entries:
            raw = entry.get("relax")
            if not isinstance(raw, dict) or str(k) not in raw:
                raise _Malformed(
                    f"{what} has no relaxation for ReLU layer {k}"
                )
            record = raw[str(k)]
            if not isinstance(record, dict):
                raise _Malformed(
                    f"{what} relaxation for layer {k} is not an object"
                )
            records.append(record)
        shapes = ((n_k,), (n_k,), (m, n_k), (m, n_k))
        try:
            up_slope, up_icept, lo_lower, up_lower = (
                _stacked(
                    [record[key] for record in records], shape,
                    f"{what}.relax[{k}].{key}",
                )
                for key, shape in zip(_RELAX_KEYS, shapes)
            )
        except KeyError as exc:
            raise _Malformed(
                f"{what} relaxation for layer {k} is missing {exc}"
            ) from exc
        relax[k] = (
            up_slope, up_icept,
            lo_lower.reshape(-1, n_k), up_lower.reshape(-1, n_k),
        )
    return _Target(what, join, coef, bias, leaves, relax)


def _parse_chains(
    layers: _Layers,
    chains: Sequence[Any],
    objective_row: Optional[np.ndarray],
    objective_leaves: Sequence[int],
) -> _Chains:
    """Parse the chains of leaves that share one network, field by field.

    Every (entry, key) becomes one array with a leading row per chain.
    The objective target covers only the chains in
    ``objective_leaves``.  On a single chain the A301 findings are
    those of parsing that chain alone.
    """
    columns = []
    for chain in chains:
        if not isinstance(chain, dict) or "layers" not in chain:
            raise _Malformed("chain has no layers")
        entries = chain["layers"]
        if not isinstance(entries, list) or len(entries) != len(layers):
            raise _Malformed(
                "chain has "
                f"{len(entries) if isinstance(entries, list) else '?'}"
                f" layer entries, network has {len(layers)}"
            )
        columns.append(entries)
    by_layer = list(zip(*columns))
    claimed: List[_Box] = []
    post_boxes: List[_Box] = []
    for i, entries in enumerate(by_layer):
        n_i = layers[i][1].shape[0]
        what = f"chain.layer{i}"
        if not all(isinstance(entry, dict) for entry in entries):
            raise _Malformed(f"{what} is not an object")
        lo_c = _stacked(
            [entry.get("lower") for entry in entries], (n_i,),
            f"{what}.lower",
        )
        hi_c = _stacked(
            [entry.get("upper") for entry in entries], (n_i,),
            f"{what}.upper",
        )
        claimed.append((lo_c, hi_c))
        if layers[i][2] == "relu":
            post_boxes.append(
                (np.maximum(lo_c, 0.0), np.maximum(hi_c, 0.0))
            )
        else:
            post_boxes.append((lo_c, hi_c))

    every = np.arange(len(chains))
    targets = [
        _target(
            layers, f"chain.layer{i}", by_layer[i], i - 1,
            layers[i][0].T, layers[i][1], every,
        )
        for i in range(1, len(layers))
    ]
    objectives = [chains[leaf].get("objective") for leaf in objective_leaves]
    if objectives:
        if not all(isinstance(entry, dict) for entry in objectives):
            raise _Malformed("chain has no objective entry")
        out_w, out_b, _ = layers[-1]
        targets.append(_target(
            layers, "chain.objective", objectives, len(layers) - 2,
            objective_row[np.newaxis, :] @ out_w.T,
            objective_row[np.newaxis, :] @ out_b,
            np.asarray(objective_leaves),
        ))
    return _Chains(claimed, post_boxes, targets, objectives)


def _claimed_objective(entry: Dict[str, Any]) -> Tuple[float, float]:
    """An objective entry's claimed ``(lower, upper)``.

    A side left out claims nothing (an infinite bound); a side that is
    not a number is a malformed certificate.
    """
    claims = []
    for key, default in (("lower", -np.inf), ("upper", np.inf)):
        value = entry.get(key, default)
        try:
            claims.append(float(value))
        except (TypeError, ValueError) as exc:
            raise _Malformed(
                f"chain.objective.{key} is not a number: {value!r}"
            ) from exc
    return claims[0], claims[1]


def _unsound(target: _Target, claimed: List[_Box]) -> List[str]:
    """A304 messages for every unsound relaxation of one target.

    Lower lines ``relu(z) >= alpha z`` are sound for *every* ``z`` iff
    ``0 <= alpha <= 1``.  Upper lines ``relu(z) <= s z + t`` are affine
    and ``relu`` is convex, so dominating at both endpoints of the
    claimed interval implies dominating on all of it.
    """
    messages = []
    for k, (up_slope, up_icept, lo_lower, up_lower) in target.relax.items():
        for key, slopes in (("lo_lower", lo_lower), ("up_lower", up_lower)):
            if np.any(slopes < 0.0) or np.any(slopes > 1.0):
                messages.append(
                    f"{key} slope outside [0, 1] "
                    f"(range [{slopes.min():.6g}, {slopes.max():.6g}])"
                )
        for z in claimed[k]:
            z = z[target.leaves]
            gap = np.maximum(z, 0.0) - (up_slope * z + up_icept)
            if np.any(gap > PROOF_REPLAY_TOL):
                messages.append(
                    "upper relaxation line falls below relu at an "
                    f"interval endpoint (worst violation {gap.max():.6g})"
                )
                break
    return messages


def _report_unsound(
    report: AuditReport,
    subject: str,
    target: _Target,
    claimed: List[_Box],
) -> None:
    for message in _unsound(target, claimed):
        report.add(
            "A304", Severity.ERROR, f"{subject}.{target.name}", message
        )


def _sweep(
    layers: _Layers,
    claimed: List[_Box],
    post_boxes: List[_Box],
    input_box: _Box,
    targets: List[_Target],
) -> Tuple[int, List[_Box]]:
    """Validate and replay every target of a set of chains in one sweep.

    The chains share the network; the boxes (``claimed``,
    ``post_boxes``, ``input_box``) hold one row per chain.  ``targets``
    come in chain order, so their ``join`` layers never decrease.
    Returns ``(first, replayed)``: ``first`` is the index of the first
    target with an unsound relaxation in any chain (``len(targets)``
    when all are sound), and ``replayed`` holds the replayed ``(lower,
    upper)`` of ``targets[:first]``, one row per chain of the target.

    The sweep takes the targets in reverse, so the rows active at layer
    ``k`` (those of every target joining at ``k`` or above) are a
    prefix of the final row order and each target's slopes stack once
    per layer.  Every target travels as ``[C; -C]``, ``C`` repeated for
    each of its chains: a lower bound is the negated upper bound of the
    negated row, whose negative part takes the lower line ``lo_lower``
    where an upper row takes ``up_lower``.  Rows are separable, so each
    row's replay is the backward substitution of that row alone,
    concretised at every stop with its own chain's claimed boxes.
    """
    if not targets:
        return 0, []
    order = targets[::-1]
    top = order[0].join
    # group_leaf[g]: the chain of (target, chain) group g, numbered in
    # ``order``.  A target's rows are its groups' upper rows, then their
    # negated lower rows; owner[r] is the group of row r.
    group_leaf = np.concatenate([t.leaves for t in order])
    block_group: List[int] = []
    block_size: List[int] = []
    for target in order:
        groups = list(range(len(block_group) // 2,
                            len(block_group) // 2 + len(target.leaves)))
        block_group += groups + groups
        block_size += [target.coef.shape[0]] * (2 * len(groups))
    owner = np.repeat(block_group, block_size)
    # pick[r]: row r's own chain in the raveled (rows, chains) matrix of
    # its concretisations over every chain's box.
    pick = (
        np.arange(owner.shape[0]) * input_box[0].shape[0]
        + group_leaf.take(owner)
    )

    sound = True
    stacks: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for k in range(top + 1):
        if layers[k][2] != "relu":
            continue
        active = [t.relax[k] for t in order if t.join >= k]
        up_slope = np.concatenate([r[0] for r in active])
        up_icept = np.concatenate([r[1] for r in active])
        neg_slope = np.concatenate([a for r in active for a in (r[3], r[2])])
        stacks[k] = (up_slope, up_icept, neg_slope)
        # Both claimed endpoints of each group's chain.
        z = np.array(claimed[k]).take(group_leaf[: up_slope.shape[0]], axis=1)
        gap = np.maximum(z, 0.0) - (up_slope * z + up_icept)
        if (
            gap.max() > PROOF_REPLAY_TOL
            or neg_slope.min() < 0.0 or neg_slope.max() > 1.0
        ):
            sound = False
            break
    if not sound:
        # Rare: find the culprit target by target, then replay the
        # sound targets before it.
        first = next(
            i for i, target in enumerate(targets)
            if _unsound(target, claimed)
        )
        return first, _sweep(
            layers, claimed, post_boxes, input_box, targets[:first]
        )[1]

    # At layer j the coefficients range over its post-activations.
    coef = np.zeros((0, order[0].coef.shape[1]))
    bias = np.zeros(0)
    best = np.zeros(0)
    joined = 0
    for j in range(top, -2, -1):
        seeds = []
        while joined < len(order) and order[joined].join == j:
            seeds.append(order[joined])
            joined += 1
        if seeds:
            coef = np.concatenate([coef] + [
                c for t in seeds
                for c in [t.coef] * len(t.leaves) + [-t.coef] * len(t.leaves)
            ])
            bias = np.concatenate([bias] + [
                b for t in seeds
                for b in [t.bias] * len(t.leaves) + [-t.bias] * len(t.leaves)
            ])
        rows = coef.shape[0]
        pos = np.maximum(coef, 0.0)
        neg = np.minimum(coef, 0.0)
        # Concretise every row over every chain's box; keep its own.
        box_lo, box_hi = post_boxes[j] if j >= 0 else input_box
        hi = bias + (pos @ box_hi.T + neg @ box_lo.T).take(pick[:rows])
        old = best.shape[0]
        best = np.concatenate([np.minimum(best, hi[:old]), hi[old:]])
        if j < 0:
            break
        weights, layer_bias, activation = layers[j]
        if activation == "relu":
            up_slope, up_icept, neg_slope = stacks[j]
            row_owner = owner[:rows]
            bias = bias + (pos * up_icept.take(row_owner, axis=0)).sum(axis=1)
            coef = pos * up_slope.take(row_owner, axis=0) + neg * neg_slope
        bias = bias + coef @ layer_bias
        coef = coef @ weights.T

    replayed: List[_Box] = []
    offset = 0
    for target in order:
        m = target.coef.shape[0]
        size = 2 * len(target.leaves) * m
        block = best[offset: offset + size].reshape(2, len(target.leaves), m)
        replayed.append((-block[1], block[0]))
        offset += size
    return len(targets), replayed[::-1]


def _replay(
    layers: _Layers, input_box: _Box, chains: _Chains
) -> Tuple[int, List[_Box]]:
    """:func:`_sweep` over parsed chains, with layer 0's exact interval
    image of the input box put in front of the replayed entries."""
    first, replayed = _sweep(
        layers, chains.claimed, chains.post_boxes, input_box, chains.targets
    )
    replayed.insert(0, _interval_affine(*input_box, *layers[0][:2]))
    return first, replayed


def _check_chain(
    report: AuditReport,
    subject: str,
    layers: _Layers,
    input_box: _Box,
    chain: Any,
    objective_row: Optional[np.ndarray],
) -> Tuple[Optional[List[_Box]], Optional[Tuple[float, float]]]:
    """Validate one back-substitution chain.

    Returns ``(validated_bounds, objective_bounds)``; either is ``None``
    when its part of the chain failed.  ``validated_bounds`` holds the
    *claimed* pre-activation intervals, each proven no tighter than its
    replay, in layer order — exactly what the MILP rebuild needs.
    ``objective_bounds`` is the **replayed** objective interval, which
    is what threshold checks must use.

    Findings come in the order an entry-by-entry replay meets them:
    the A305 gaps of the entries before the first target with an
    unsound relaxation, then that target's A304 findings.
    """
    parsed = _parse_chains(
        layers, [chain], objective_row,
        [] if objective_row is None else [0],
    )
    first, replayed = _replay(
        layers, (input_box[0][np.newaxis], input_box[1][np.newaxis]), parsed
    )
    ok = True
    for i, ((lo_c, hi_c), (replay_lo, replay_hi)) in enumerate(
        zip(parsed.claimed, replayed)
    ):
        low_gap = float((lo_c - replay_lo).max())
        high_gap = float((replay_hi - hi_c).max())
        if low_gap > PROOF_REPLAY_TOL or high_gap > PROOF_REPLAY_TOL:
            report.add(
                "A305", Severity.ERROR, f"{subject}.chain.layer{i}",
                "claimed bounds are tighter than the replayed chain "
                f"supports (lower gap {low_gap:.6g}, upper gap "
                f"{high_gap:.6g})",
            )
            ok = False
    if first < len(layers) - 1:
        _report_unsound(report, subject, parsed.targets[first], parsed.claimed)
        return None, None
    if not ok:
        return None, None
    validated = [(lo[0], hi[0]) for lo, hi in parsed.claimed]
    if objective_row is None:
        return validated, None
    if first < len(parsed.targets):
        _report_unsound(report, subject, parsed.targets[first], parsed.claimed)
        return validated, None

    (replay_lo,), (replay_hi,) = replayed[-1]
    claimed_lo, claimed_hi = _claimed_objective(parsed.objectives[0])
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
    return validated, (float(replay_lo[0]), float(replay_hi[0]))


def _check_threshold(
    report: AuditReport,
    subject: str,
    replayed_hi: float,
    threshold: float,
    margin: float,
) -> bool:
    """The static proof condition: replayed upper clears the cutoff."""
    cutoff = threshold - margin
    slack = cutoff - replayed_hi
    if slack < -PROOF_REPLAY_TOL:
        report.add(
            "A305", Severity.ERROR, subject,
            f"replayed objective upper bound {replayed_hi:.6g} does not "
            f"clear threshold - margin = {cutoff:.6g}",
        )
        return False
    if slack < _SLACK_DECADE * PROOF_REPLAY_TOL:
        report.add(
            "A309", Severity.WARNING, subject,
            f"objective bound clears the threshold by only {slack:.3g} "
            "(< one decade over the replay tolerance)",
        )
    return True


# -- MILP encoding rebuild ---------------------------------------------------

def _affine_expr(
    prev: Sequence[_Row], weights: np.ndarray, bias: float
) -> _Row:
    coeffs: Dict[str, float] = {}
    constant = float(bias)
    for j, w in enumerate(weights):
        if w == 0.0:
            continue
        expr_coeffs, expr_const = prev[j]
        constant += w * expr_const
        for name, coef in expr_coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) + w * coef
    return coeffs, constant


def _rebuild_encoding(
    layers: _Layers,
    box: np.ndarray,
    constraints: List[Tuple[Dict[int, float], float]],
    validated: List[_Box],
    margin: float,
    objective_row: np.ndarray,
    threshold: float,
) -> Tuple[Dict[str, _Row], Dict[str, Tuple[float, float]], List[str]]:
    """Clean-room big-M encoding from first principles.

    Same construction the encoder performs — box input variables,
    region rows, per-ambiguous-neuron ``(a, d)`` pair with the three
    big-M rows, the violation row ``objective >= threshold`` — but
    derived here independently, normalised to ``<=`` form with
    constants folded into the right-hand side.  Stability is classified
    from the certificate's own validated bounds with the certificate's
    own margin, so the row/variable names agree with the emitter's
    exactly when the certificate is honest, and disagree *visibly*
    (A307) when it is not.
    """
    if layers[-1][2] != "identity":
        raise _Malformed("MILP certificates need a linear output layer")
    for weights, _, activation in layers[:-1]:
        if activation != "relu":
            raise _Malformed(
                "MILP certificates support ReLU hidden layers only"
            )
    rows: Dict[str, _Row] = {}
    var_bounds: Dict[str, Tuple[float, float]] = {}
    binaries: List[str] = []

    prev: List[_Row] = []
    for i in range(layers[0][0].shape[0]):
        name = f"in{i}"
        var_bounds[name] = (float(box[i, 0]), float(box[i, 1]))
        prev.append(({name: 1.0}, 0.0))
    for k, (coeffs, rhs) in enumerate(constraints):
        rows[f"region{k}"] = (
            {f"in{i}": float(c) for i, c in coeffs.items()}, float(rhs)
        )

    for li, (weights, bias, _) in enumerate(layers[:-1]):
        lo_arr, hi_arr = validated[li]
        post: List[_Row] = []
        for j in range(bias.shape[0]):
            pre_coeffs, pre_const = _affine_expr(
                prev, weights[:, j], float(bias[j])
            )
            lo = float(lo_arr[j]) - margin
            hi = float(hi_arr[j]) + margin
            if hi <= 0.0:
                post.append(({}, 0.0))
                continue
            if lo >= 0.0:
                post.append((pre_coeffs, pre_const))
                continue
            a_name = f"a_{li}_{j}"
            d_name = f"d_{li}_{j}"
            var_bounds[a_name] = (0.0, max(hi, 0.0))
            var_bounds[d_name] = (0.0, 1.0)
            binaries.append(d_name)
            # a - pre >= 0, normalised: pre - a <= -pre_const
            ge_coeffs = dict(pre_coeffs)
            ge_coeffs[a_name] = ge_coeffs.get(a_name, 0.0) - 1.0
            rows[f"relu_ge_{li}_{j}"] = (ge_coeffs, -pre_const)
            # a - pre - lo*d <= -lo, normalised rhs: -lo + pre_const
            up_coeffs = {name: -c for name, c in pre_coeffs.items()}
            up_coeffs[a_name] = up_coeffs.get(a_name, 0.0) + 1.0
            up_coeffs[d_name] = up_coeffs.get(d_name, 0.0) - lo
            rows[f"relu_up_{li}_{j}"] = (up_coeffs, -lo + pre_const)
            rows[f"relu_cap_{li}_{j}"] = ({a_name: 1.0, d_name: -hi}, 0.0)
            post.append(({a_name: 1.0}, 0.0))
        prev = post

    out_w, out_b, _ = layers[-1]
    obj_coeffs: Dict[str, float] = {}
    obj_const = 0.0
    for j in range(out_b.shape[0]):
        if objective_row[j] == 0.0:
            continue
        expr_coeffs, expr_const = _affine_expr(
            prev, out_w[:, j], float(out_b[j])
        )
        obj_const += objective_row[j] * expr_const
        for name, coef in expr_coeffs.items():
            obj_coeffs[name] = (
                obj_coeffs.get(name, 0.0) + objective_row[j] * coef
            )
    # objective >= threshold, normalised: -objective <= const - threshold
    rows["violation"] = (
        {name: -c for name, c in obj_coeffs.items()},
        obj_const - threshold,
    )
    return rows, var_bounds, binaries


# -- leaf cover + Farkas -----------------------------------------------------

def _check_cover(
    report: AuditReport,
    subject: str,
    literal_sets: List[Dict[str, int]],
    binaries: List[str],
) -> bool:
    """Exhaustiveness of the leaf cover over the binary hypercube.

    Pairwise conflicts prove disjointness; the exact sub-cube count
    ``sum 2**(|D| - |literals|) == 2**|D|`` (integer arithmetic) then
    proves the disjoint union covers everything.
    """
    known = set(binaries)
    ok = True
    for index, literals in enumerate(literal_sets):
        for name, value in literals.items():
            if name not in known:
                report.add(
                    "A307", Severity.ERROR, f"{subject}.leaf{index}",
                    f"literal on unknown binary variable {name!r}",
                )
                ok = False
            if value not in (0, 1):
                report.add(
                    "A301", Severity.ERROR, f"{subject}.leaf{index}",
                    f"literal {name!r} has non-binary value {value!r}",
                )
                ok = False
    if not ok:
        return False
    dims = sorted({name for lit in literal_sets for name in lit})
    for i in range(len(literal_sets)):
        for j in range(i + 1, len(literal_sets)):
            a, b = literal_sets[i], literal_sets[j]
            if not any(
                name in b and b[name] != value
                for name, value in a.items()
            ):
                report.add(
                    "A303", Severity.ERROR, subject,
                    f"leaves {i} and {j} overlap (no conflicting "
                    "literal); the cover is not a partition",
                )
                return False
    total = sum(
        2 ** (len(dims) - len(lit)) for lit in literal_sets
    )
    if total != 2 ** len(dims):
        report.add(
            "A303", Severity.ERROR, subject,
            f"leaf cover counts {total} sub-cubes of the "
            f"{2 ** len(dims)}-point binary hypercube over "
            f"{len(dims)} branched variables; the cover is not "
            "exhaustive",
        )
        return False
    return True


def _check_farkas(
    report: AuditReport,
    subject: str,
    rows: Dict[str, _Row],
    var_bounds: Dict[str, Tuple[float, float]],
    literals: Dict[str, int],
    dual: Dict[str, float],
) -> bool:
    """Weak-duality infeasibility of one leaf's LP relaxation.

    With multipliers ``y >= 0`` on ``<=`` rows, any feasible point
    satisfies ``(y^T A) x <= y^T b``; if the *minimum* of the left side
    over the leaf's variable box exceeds the right side, no feasible
    point exists.  The leaf box is the variable box with the leaf's
    literals substituted — every un-fixed binary stays relaxed to
    ``[0, 1]``, which only enlarges the box, so infeasibility of the
    relaxation covers every integral completion.
    """
    aggregated: Dict[str, float] = {}
    rhs_total = 0.0
    for name, raw in dual.items():
        if name not in rows:
            report.add(
                "A307", Severity.ERROR, subject,
                f"dual multiplier on unknown row {name!r}",
            )
            return False
        value = float(raw)
        if value < -PROOF_DUAL_TOL:
            report.add(
                "A302", Severity.ERROR, subject,
                f"negative dual multiplier {value:.6g} on row {name!r}",
            )
            return False
        value = max(value, 0.0)
        if value == 0.0:
            continue
        coeffs, rhs = rows[name]
        for var, coef in coeffs.items():
            aggregated[var] = aggregated.get(var, 0.0) + value * coef
        rhs_total += value * rhs
    lhs_min = 0.0
    for var, coef in aggregated.items():
        if var not in var_bounds:
            report.add(
                "A307", Severity.ERROR, subject,
                f"aggregated row references unknown variable {var!r}",
            )
            return False
        lo, hi = var_bounds[var]
        if var in literals:
            lo = hi = float(literals[var])
        lhs_min += min(coef * lo, coef * hi)
    slack = lhs_min - rhs_total
    if slack <= PROOF_FARKAS_TOL:
        report.add(
            "A302", Severity.ERROR, subject,
            "Farkas vector does not certify infeasibility "
            f"(aggregated slack {slack:.6g} <= tolerance)",
        )
        return False
    if slack <= _SLACK_DECADE * PROOF_FARKAS_TOL:
        report.add(
            "A309", Severity.WARNING, subject,
            f"Farkas certificate passes with thin slack {slack:.3g}",
        )
    return True


def _check_milp_leaves(
    report: AuditReport,
    subject: str,
    layers: _Layers,
    box: np.ndarray,
    constraints: List[Tuple[Dict[int, float], float]],
    validated: List[_Box],
    margin: float,
    objective_row: np.ndarray,
    threshold: float,
    leaves: Any,
) -> bool:
    """Leaf cover + per-leaf Farkas over the rebuilt encoding."""
    if not isinstance(leaves, list) or not leaves:
        raise _Malformed("MILP certificate has no leaves")
    rows, var_bounds, binaries = _rebuild_encoding(
        layers, box, constraints, validated, margin, objective_row,
        threshold,
    )
    literal_sets: List[Dict[str, int]] = []
    duals: List[Dict[str, float]] = []
    for index, leaf in enumerate(leaves):
        if not isinstance(leaf, dict) or leaf.get("kind") != "farkas":
            raise _Malformed(f"leaf {index} is not a farkas leaf")
        try:
            literal_sets.append({
                str(name): int(value)
                for name, value in leaf["literals"].items()
            })
            duals.append({
                str(name): float(value)
                for name, value in leaf["dual"].items()
            })
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _Malformed(f"leaf {index} is malformed: {exc}") from exc
    ok = _check_cover(report, subject, literal_sets, binaries)
    for index, (literals, dual) in enumerate(zip(literal_sets, duals)):
        if not _check_farkas(
            report, f"{subject}.leaf{index}", rows, var_bounds,
            literals, dual,
        ):
            ok = False
    return ok


# -- certificate leaves and split trees --------------------------------------

def _check_leaf(
    report: AuditReport,
    subject: str,
    layers: _Layers,
    box: np.ndarray,
    constraints: List[Tuple[Dict[int, float], float]],
    objective_row: np.ndarray,
    threshold: float,
    margin: float,
    node: Dict[str, Any],
    replay: Optional[
        Tuple[Optional[List[_Box]], Optional[Tuple[float, float]]]
    ] = None,
) -> None:
    """Check one ``static``/``pruned`` or ``milp`` proof over ``box``.

    ``node`` is a whole certificate or a split tree's leaf.  ``replay``
    is what :func:`_check_chain` would return for its chain, when a
    sweep over every leaf of a tree already replayed it cleanly;
    without it the chain is checked here.
    """
    milp = node.get("kind") == KIND_MILP
    try:
        if replay is None:
            replay = _check_chain(
                report, subject, layers, (box[:, 0].copy(), box[:, 1].copy()),
                node.get("chain"), None if milp else objective_row,
            )
        validated, obj_bounds = replay
        if milp and validated is not None:
            _check_milp_leaves(
                report, subject, layers, box, constraints, validated,
                margin, objective_row, threshold, node.get("leaves"),
            )
        elif not milp and obj_bounds is not None:
            _check_threshold(
                report, subject, obj_bounds[1], threshold, margin
            )
    except _Malformed as exc:
        report.add("A301", Severity.ERROR, subject, str(exc))


class _TreeLeaf(NamedTuple):
    """A split tree's leaf with its re-derived box, or, when ``defect``
    is set, the A306 finding that stands in for a malformed subtree."""

    subject: str
    box: np.ndarray
    node: Any
    defect: Optional[str] = None


def _tree_leaves(
    subject: str, box: np.ndarray, node: Any, out: List[_TreeLeaf]
) -> None:
    """Collect a split tree's leaves depth first; child boxes are
    re-derived here.

    The certificate records only the split dimension per internal node;
    the checker bisects at the midpoint itself (the same closed-halves
    rule the driver uses), so a tree that verifies necessarily tiles
    the parent box — there is no recorded geometry to tamper with.
    """
    if not isinstance(node, dict):
        out.append(_TreeLeaf(subject, box, node, "tree node is not an object"))
        return
    if "split_dim" in node:
        try:
            dim = int(node["split_dim"])
        except (TypeError, ValueError):
            out.append(_TreeLeaf(
                subject, box, node,
                f"split_dim {node.get('split_dim')!r} is not an integer",
            ))
            return
        if not 0 <= dim < box.shape[0]:
            out.append(_TreeLeaf(
                subject, box, node,
                f"split dimension {dim} out of range for input dim "
                f"{box.shape[0]}",
            ))
            return
        lo, hi = float(box[dim, 0]), float(box[dim, 1])
        if lo >= hi:
            out.append(_TreeLeaf(
                subject, box, node, f"split on zero-width dimension {dim}"
            ))
            return
        missing = [key for key in ("low", "high") if key not in node]
        if missing:
            out.append(_TreeLeaf(
                subject, box, node,
                f"internal node is missing child(ren) {missing}; the "
                "tree does not tile the parent box",
            ))
            return
        mid = 0.5 * (lo + hi)
        for key, child_interval in (("low", (lo, mid)), ("high", (mid, hi))):
            child_box = box.copy()
            child_box[dim] = child_interval
            _tree_leaves(f"{subject}.{key}", child_box, node[key], out)
        return
    kind = node.get("kind")
    if kind not in ("pruned", KIND_STATIC, KIND_MILP):
        out.append(_TreeLeaf(
            subject, box, node, f"leaf node has unknown kind {kind!r}"
        ))
        return
    out.append(_TreeLeaf(subject, box, node))


def _replay_leaves(
    layers: _Layers,
    leaves: List[_TreeLeaf],
    objective_row: np.ndarray,
) -> Optional[List[Tuple[List[_Box], Optional[Tuple[float, float]]]]]:
    """Every leaf's chain parsed together and replayed in one sweep.

    Returns, per leaf, what :func:`_check_chain` returns for its chain
    (the objective is replayed for ``pruned``/``static`` leaves only),
    or ``None`` when any leaf's chain would yield a finding: the caller
    then checks leaf by leaf, so every finding keeps its place.
    """
    input_box = (
        np.array([leaf.box[:, 0] for leaf in leaves]),
        np.array([leaf.box[:, 1] for leaf in leaves]),
    )
    objective_leaves = [
        index for index, leaf in enumerate(leaves)
        if leaf.node.get("kind") != KIND_MILP
    ]
    try:
        parsed = _parse_chains(
            layers, [leaf.node.get("chain") for leaf in leaves],
            objective_row, objective_leaves,
        )
        claims = np.array(
            [_claimed_objective(entry) for entry in parsed.objectives]
        ).reshape(-1, 2)
    except _Malformed:
        return None
    first, replayed = _replay(layers, input_box, parsed)
    if first < len(parsed.targets):
        return None
    for (lo_c, hi_c), (replay_lo, replay_hi) in zip(parsed.claimed, replayed):
        if max((lo_c - replay_lo).max(), (replay_hi - hi_c).max()) > (
            PROOF_REPLAY_TOL
        ):
            return None
    objective: List[Optional[Tuple[float, float]]] = [None] * len(leaves)
    if objective_leaves:
        replay_lo, replay_hi = (side[:, 0] for side in replayed[-1])
        if np.any(claims[:, 0] - replay_lo > PROOF_REPLAY_TOL) or np.any(
            replay_hi - claims[:, 1] > PROOF_REPLAY_TOL
        ):
            return None
        for index, lo, hi in zip(objective_leaves, replay_lo, replay_hi):
            objective[index] = (float(lo), float(hi))
    return [
        ([(lo[index], hi[index]) for lo, hi in parsed.claimed], bounds)
        for index, bounds in enumerate(objective)
    ]


def _check_tree(
    report: AuditReport,
    subject: str,
    layers: _Layers,
    box: np.ndarray,
    constraints: List[Tuple[Dict[int, float], float]],
    objective_row: np.ndarray,
    threshold: float,
    margin: float,
    node: Any,
) -> None:
    """Check a split tree: its tiling, then every leaf as a sub-proof.

    A well-formed tree's leaf chains are replayed together in one
    sweep, and then each leaf's threshold or leaf-cover check runs in
    depth-first order.  When the tree has an A306 defect, or any leaf's
    chain would yield a finding, the leaves are checked one by one
    instead, so every finding comes in the order of a depth-first walk.
    """
    leaves: List[_TreeLeaf] = []
    _tree_leaves(subject, box, node, leaves)
    replays = None
    if all(leaf.defect is None for leaf in leaves):
        replays = _replay_leaves(layers, leaves, objective_row)
    for index, leaf in enumerate(leaves):
        if leaf.defect is not None:
            report.add("A306", Severity.ERROR, leaf.subject, leaf.defect)
            continue
        _check_leaf(
            report, leaf.subject, layers, leaf.box, constraints,
            objective_row, threshold, margin, leaf.node,
            None if replays is None else replays[index],
        )


# -- entry points ------------------------------------------------------------

def check_certificate(
    cert: Dict[str, Any], subject: str = "certificate"
) -> AuditReport:
    """Statically validate one ``repro-proof/1`` certificate.

    Returns an :class:`~repro.analysis.audit.AuditReport`; the
    certificate is accepted iff the report has no errors.  Every check
    is plain numpy arithmetic against :mod:`repro.tolerances` — this
    function must never import a solver module.
    """
    report = AuditReport()
    try:
        if not isinstance(cert, dict):
            raise _Malformed("certificate is not a JSON object")
        if cert.get("schema") != PROOF_SCHEMA:
            raise _Malformed(
                f"unknown schema {cert.get('schema')!r} (expected "
                f"{PROOF_SCHEMA!r})"
            )
        kind = cert.get("kind")
        if kind not in KINDS:
            raise _Malformed(f"unknown certificate kind {kind!r}")
        layers = _parse_layers(cert.get("network"))
        claimed_fp = cert.get("network", {}).get("fingerprint")
        if claimed_fp is not None and claimed_fp != _fingerprint(layers):
            raise _Malformed(
                "network fingerprint does not match the embedded "
                "parameters"
            )
        input_dim = layers[0][0].shape[0]
        output_dim = layers[-1][1].shape[0]
        box, constraints = _parse_region(cert.get("region"), input_dim)
        objective_row = _parse_objective(cert.get("objective"), output_dim)
        threshold = float(cert["threshold"])
        margin = float(cert["margin"])
        if margin < 0.0:
            raise _Malformed(f"negative margin {margin}")
    except (_Malformed, KeyError, TypeError, ValueError) as exc:
        report.add("A301", Severity.ERROR, subject, str(exc))
        return report

    if kind == KIND_SPLIT:
        _check_tree(
            report, subject, layers, box, constraints, objective_row,
            threshold, margin, cert.get("tree"),
        )
    else:  # kind was validated against KINDS
        _check_leaf(
            report, subject, layers, box, constraints, objective_row,
            threshold, margin, cert,
        )
    return report


def check_certificate_file(path: str) -> AuditReport:
    """Load a certificate JSON file and check it."""
    try:
        cert = load_certificate(path)
    except (OSError, ValueError) as exc:
        report = AuditReport()
        report.add("A301", Severity.ERROR, path, str(exc))
        return report
    return check_certificate(cert, subject=path)
