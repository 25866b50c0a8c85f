"""Pre-activation bound analysis for ReLU networks.

The big-M MILP encoding needs finite bounds ``[l, u]`` on every neuron's
pre-activation over the input region.  Two engines are provided:

* **interval** propagation — cheap, sound, often loose;
* **LP tightening** — per-neuron LPs over the *relaxed* (triangle) network
  encoding, much tighter; neurons whose relaxed bound already has a fixed
  sign need no binary variable at all.  Only hidden neurons are probed,
  since the encoding reads no other bounds.  One HiGHS model on the
  primal simplex, grown by one layer's columns and rows at a time,
  serves every probe of a network, and each layer's probes run in an
  order that keeps consecutive objectives close.

Bound quality is the decisive scalability lever for Table II: every neuron
proven stably active/inactive removes one binary from the search, and
tighter ``M`` values sharpen every LP relaxation.  The ablation benchmark
measures exactly this effect.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.core.properties import InputRegion
from repro.errors import EncodingError
from repro.milp.scipy_backend import HighsSession
from repro.milp.status import SolveStatus
from repro.nn.layers import DenseLayer
from repro.nn.network import FeedForwardNetwork
from repro.tolerances import BOUND_CROSS_TOL, FEASIBILITY_TOL


@dataclasses.dataclass
class LayerBounds:
    """Pre-activation bounds of one layer: arrays of shape (fan_out,)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.lower > self.upper + BOUND_CROSS_TOL):
            raise EncodingError("layer bounds crossed (lower > upper)")

    @property
    def stable_active(self) -> np.ndarray:
        """Neurons provably in the linear (active) phase."""
        return self.lower >= 0.0

    @property
    def stable_inactive(self) -> np.ndarray:
        """Neurons provably off."""
        return self.upper <= 0.0

    @property
    def ambiguous(self) -> np.ndarray:
        """Neurons needing a binary phase variable."""
        return ~(self.stable_active | self.stable_inactive)

    def num_ambiguous(self) -> int:
        """Number of neurons needing a binary phase variable."""
        return int(np.sum(self.ambiguous))


def _interval_affine(
    lo: np.ndarray, hi: np.ndarray, weights: np.ndarray, bias: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Interval image of ``x @ W + b`` for x in [lo, hi]."""
    w_pos = np.maximum(weights, 0.0)
    w_neg = np.minimum(weights, 0.0)
    out_lo = lo @ w_pos + hi @ w_neg + bias
    out_hi = hi @ w_pos + lo @ w_neg + bias
    return out_lo, out_hi


def interval_bounds(
    network: FeedForwardNetwork, region: InputRegion
) -> List[LayerBounds]:
    """Interval propagation through every layer (including the output)."""
    if region.dim != network.input_dim:
        raise EncodingError(
            f"region dim {region.dim} != network input {network.input_dim}"
        )
    lo = region.bounds[:, 0].copy()
    hi = region.bounds[:, 1].copy()
    result: List[LayerBounds] = []
    for layer in network.layers:
        pre_lo, pre_hi = _interval_affine(lo, hi, layer.weights, layer.bias)
        result.append(LayerBounds(pre_lo, pre_hi))
        if layer.activation == "relu":
            lo = np.maximum(pre_lo, 0.0)
            hi = np.maximum(pre_hi, 0.0)
        elif layer.activation == "identity":
            lo, hi = pre_lo, pre_hi
        elif layer.activation == "tanh":
            lo, hi = np.tanh(pre_lo), np.tanh(pre_hi)
        else:
            raise EncodingError(
                f"bound propagation does not support {layer.activation!r}"
            )
    return result


def _repair_crossed_bounds(
    new_lo: np.ndarray,
    new_hi: np.ndarray,
    seed_lo: np.ndarray,
    seed_hi: np.ndarray,
    tol: float = FEASIBILITY_TOL,
) -> None:
    """Resolve numerically crossed tightened bounds, in place, per side.

    Each tightened bound is valid on its own (it came from its own LP),
    so a crossing must not throw *both* tightenings away: only a side
    that escaped the seed interval ``[seed_lo, seed_hi]`` misbehaved and
    reverts to its seed value, keeping the other side's tightening.  A
    tiny mutual crossing (LP duality noise, both sides still inside the
    seed interval) collapses to the midpoint; a large mutual crossing
    means both LPs are suspect and reverts both sides.
    """
    crossed = new_lo > new_hi
    if not np.any(crossed):
        return
    lo_bad = crossed & (new_lo > seed_hi)
    hi_bad = crossed & (new_hi < seed_lo)
    new_lo[lo_bad] = seed_lo[lo_bad]
    new_hi[hi_bad] = seed_hi[hi_bad]
    in_range = crossed & ~lo_bad & ~hi_bad
    tiny = in_range & (new_lo - new_hi <= tol)
    mid = 0.5 * (new_lo[tiny] + new_hi[tiny])
    new_lo[tiny] = mid
    new_hi[tiny] = mid
    rest = in_range & ~tiny
    new_lo[rest] = seed_lo[rest]
    new_hi[rest] = seed_hi[rest]


def _triangle_rows(
    layer: DenseLayer, lower: np.ndarray, upper: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``<=`` rows relaxing one ReLU layer ``a = relu(x @ W + b)``.

    The layer's input ``x`` occupies the ``fan_in`` columns just before
    its ``fan_out`` post-activation columns ``a``, which are the last
    ``fan_out`` of ``width``; the bias moves to the right-hand side.
    Two rows per neuron, in neuron order, for pre-activation bounds
    ``[l, u]``:

    * stable active (``l >= 0``): ``a - x W <= b`` and ``x W - a <= -b``;
    * stable inactive (``u <= 0``): ``a <= 0`` and ``-a <= 0``;
    * ambiguous, the triangle: ``x W - a <= -b`` (``a >= z``) and
      ``a - s x W <= s (b - l)`` with ``s = u / (u - l)``.
    """
    fan_in, fan_out = layer.weights.shape
    z = np.zeros((fan_out, width))
    z[:, width - fan_out - fan_in:width - fan_out] = layer.weights.T
    a = np.zeros((fan_out, width))
    a[:, width - fan_out:] = np.eye(fan_out)
    bias = layer.bias
    active = lower >= 0.0
    inactive = (upper <= 0.0) & ~active
    ambiguous = ~(active | inactive)
    slope = upper[ambiguous] / (upper[ambiguous] - lower[ambiguous])
    rows = np.empty((2 * fan_out, width))
    rhs = np.empty(2 * fan_out)
    first, second = rows[0::2], rows[1::2]
    first_rhs, second_rhs = rhs[0::2], rhs[1::2]
    first[active] = a[active] - z[active]
    second[active] = z[active] - a[active]
    first_rhs[active] = bias[active]
    second_rhs[active] = -bias[active]
    first[inactive] = a[inactive]
    second[inactive] = -a[inactive]
    first_rhs[inactive] = 0.0
    second_rhs[inactive] = 0.0
    first[ambiguous] = z[ambiguous] - a[ambiguous]
    second[ambiguous] = a[ambiguous] - slope[:, None] * z[ambiguous]
    first_rhs[ambiguous] = -bias[ambiguous]
    second_rhs[ambiguous] = slope * (bias[ambiguous] - lower[ambiguous])
    return rows, rhs


def _probe_order(objectives: np.ndarray) -> np.ndarray:
    """A warm-start order for one layer's probes.

    ``objectives`` holds one row per probe.  The order starts with the
    first row; each next one is the remaining row with the largest
    cosine to the one before it (first on ties, zero rows score 0), so
    each probe starts from the optimal basis of a similar objective.
    """
    norms = np.linalg.norm(objectives, axis=1)
    unit = objectives / np.where(norms > 0.0, norms, 1.0)[:, None]
    cosine = unit @ unit.T
    order = np.empty(len(objectives), dtype=int)
    order[0] = 0
    taken = np.zeros(len(objectives), dtype=bool)
    taken[0] = True
    for k in range(1, len(objectives)):
        nxt = int(np.argmax(np.where(taken, -np.inf, cosine[order[k - 1]])))
        order[k] = nxt
        taken[nxt] = True
    return order


def lp_tightened_bounds(
    network: FeedForwardNetwork,
    region: InputRegion,
    seed_bounds: Optional[List[LayerBounds]] = None,
    span=None,
) -> List[LayerBounds]:
    """Tighten hidden-layer bounds with per-neuron LPs over the triangle
    relaxation.

    Each hidden neuron's pre-activation is minimised and maximised over
    an LP in the inputs and the relaxed post-ReLU variables of the
    layers before it, whose triangles use the bounds already tightened.
    One :class:`~repro.milp.scipy_backend.HighsSession` serves the whole
    network: it starts with the input columns and the region's rows,
    and after each ReLU layer but the last :meth:`~HighsSession.extend`
    adds that layer's post-activation columns and triangle rows, so
    every probe warm-starts from the basis the last one left.  A
    layer's ``2 * fan_out`` probes run in :func:`_probe_order`, each
    next objective the one closest in direction to the last.  On a
    region without linear constraints layer 0 runs no LP: the extremes
    of an affine map over a box are its interval image.

    The output layer is never probed: the encoding, its completion and
    branching scores and the static prescreen read hidden layers only.
    It keeps its seed, intersected with the interval image of the
    tightened last hidden layer (as every deeper layer is, so a neuron
    whose probe failed still tightens from the layer before it).

    With a ``span`` (a trace span) the session's ``probes``,
    ``lp_iterations`` and ``lp_seconds`` are set on it.  The caller's
    ``seed_bounds`` list and arrays are left unchanged.
    """
    if not all(
        layer.activation in ("relu", "identity")
        for layer in network.layers
    ):
        raise EncodingError("LP tightening supports relu/identity networks")
    if seed_bounds is None:
        bounds = interval_bounds(network, region)
    else:
        bounds = list(seed_bounds)

    rows_ub: List[np.ndarray] = []
    rhs_ub: List[float] = []
    for coeffs, rhs in (c.as_indexed() for c in region.constraints):
        row = np.zeros(region.dim)
        for idx, coef in coeffs.items():
            row[idx] = coef
        rows_ub.append(row)
        rhs_ub.append(rhs)
    session = HighsSession(
        np.zeros(region.dim),
        np.array(rows_ub) if rows_ub else None,
        np.array(rhs_ub) if rhs_ub else None,
        bounds=region.bounds,
        primal=True,
    )

    probes = iterations = 0
    hidden = network.layers[:-1]
    for li, layer in enumerate(hidden):
        seed = bounds[li]
        if li == 0 and not region.constraints:
            box_lo, box_hi = _interval_affine(
                region.bounds[:, 0], region.bounds[:, 1],
                layer.weights, layer.bias,
            )
            new_lo = np.maximum(seed.lower, box_lo)
            new_hi = np.minimum(seed.upper, box_hi)
        else:
            # The layer's input is the session's last fan_in columns;
            # probe 2j minimises neuron j, probe 2j + 1 maximises it.
            signed = np.empty((2 * layer.fan_out, layer.fan_in))
            signed[0::2] = layer.weights.T
            signed[1::2] = -layer.weights.T
            objectives = np.zeros((len(signed), session.num_vars))
            objectives[:, session.num_vars - layer.fan_in:] = signed
            new_lo = seed.lower.copy()
            new_hi = seed.upper.copy()
            for k in _probe_order(signed):
                result = session.solve(c=objectives[k])
                probes += 1
                iterations += result.iterations
                if result.status is not SolveStatus.OPTIMAL:
                    continue
                j = k // 2
                if k % 2:
                    new_hi[j] = min(
                        new_hi[j], layer.bias[j] - result.objective
                    )
                else:
                    new_lo[j] = max(
                        new_lo[j], result.objective + layer.bias[j]
                    )
        # Numerical safety: never let tightening cross the bounds.
        _repair_crossed_bounds(new_lo, new_hi, seed.lower, seed.upper)
        bounds[li] = LayerBounds(new_lo, new_hi)

        if layer.activation != "relu" or li == len(hidden) - 1:
            # Nothing later is probed over this layer's relaxation.
            break
        session.extend(
            np.stack(
                [np.maximum(new_lo, 0.0), np.maximum(new_hi, 0.0)], axis=1
            ),
            *_triangle_rows(
                layer, new_lo, new_hi, session.num_vars + layer.fan_out
            ),
        )

    # Refresh deeper layers, the output layer included, with interval
    # steps from the tightened ones.
    for li in range(1, len(network.layers)):
        lo, hi = bounds[li - 1].lower, bounds[li - 1].upper
        if network.layers[li - 1].activation == "relu":
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        layer = network.layers[li]
        pre_lo, pre_hi = _interval_affine(lo, hi, layer.weights, layer.bias)
        bounds[li] = LayerBounds(
            np.maximum(bounds[li].lower, pre_lo),
            np.minimum(bounds[li].upper, pre_hi),
        )
    if span is not None:
        span.set(
            probes=probes, lp_iterations=iterations,
            lp_seconds=session.lp_seconds,
        )
    return bounds


def bounds_cache_key(
    network: FeedForwardNetwork,
    region: InputRegion,
    bound_mode: str,
) -> Tuple[str, str, str]:
    """Content key identifying one bound computation.

    Combines the network's parameter fingerprint, the region's geometry
    fingerprint and the bound mode's name, so equal-but-distinct
    objects share an entry and recycled ``id()`` values can never alias
    two different computations.
    """
    return (network.fingerprint(), region.fingerprint(), bound_mode)


def freeze_bounds(
    bounds: Optional[List[LayerBounds]],
) -> Optional[List[LayerBounds]]:
    """Mark every bound array read-only (in place; returns the list).

    Cached bound lists are shared by every cell with the same content
    key, so an accidental in-place tightening downstream must fail
    loudly (``ValueError: assignment destination is read-only``) instead
    of silently corrupting the entry for all later lookups.
    """
    if bounds is not None:
        for layer in bounds:
            layer.lower.setflags(write=False)
            layer.upper.setflags(write=False)
    return bounds


class BoundsCache:
    """Content-keyed cache of pre-activation bound computations.

    Both outcomes are cached: a successful computation stores its bound
    list, a failed one stores the formatted traceback (so a campaign does
    not re-run a known-failing computation for every cell sharing the
    region).  ``hits``/``misses`` expose the reuse rate for reports and
    tests.

    Cached entries are *defended*: the stored arrays are read-only and
    every lookup hands out a fresh list, so neither replacing a caller's
    list slot nor tightening an array in place can corrupt what a later
    cell receives.

    With ``spill_path`` the cache is durable: entries load from the
    JSONL file on construction and every new entry is appended, so a
    long-lived pool (or the next process) pays each computation once.
    """

    def __init__(self, spill_path: Optional[str] = None) -> None:
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.spill_path = spill_path
        if spill_path is not None:
            from repro.core.spill import load_spill

            self._entries = load_spill(spill_path, _decode_spill_record)

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _share(entry):
        """A caller-safe view of a stored entry (fresh list, same arrays)."""
        bounds, error = entry
        if bounds is None:
            return None, error
        return list(bounds), error

    def peek(
        self, key: Tuple[str, str, str]
    ) -> Optional[Tuple[Optional[List[LayerBounds]], Optional[str]]]:
        """The stored entry for ``key`` without computing, else ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._share(entry)

    def lookup(
        self,
        network: FeedForwardNetwork,
        region: InputRegion,
        bound_mode: str,
        tracer=None,
    ) -> Tuple[Optional[List[LayerBounds]], Optional[str]]:
        """Cached ``(bounds, error)`` for the key, computing on miss.

        Exactly one of the pair is non-``None``: ``bounds`` on success,
        ``error`` (a formatted traceback string) if the computation
        raised.  A tracer is only consulted on a miss (a hit does no
        bound work worth a span).
        """
        key = bounds_cache_key(network, region, bound_mode)
        if key in self._entries:
            self.hits += 1
            return self._share(self._entries[key])
        self.misses += 1
        if tracer is None:
            # Positional 3-arg call keeps drop-in stand-ins (tests stub
            # this with simple counting wrappers) working untraced.
            entry = compute_bounds_entry(network, region, bound_mode)
        else:
            entry = compute_bounds_entry(
                network, region, bound_mode, tracer=tracer
            )
        self._store(key, entry)
        return self._share(entry)

    def get(
        self,
        network: FeedForwardNetwork,
        region: InputRegion,
        bound_mode: str,
    ) -> List[LayerBounds]:
        """Like :meth:`lookup` but re-raises a cached failure."""
        bounds, error = self.lookup(network, region, bound_mode)
        if bounds is None:
            raise EncodingError(
                f"bound computation failed for region "
                f"{region.name!r}:\n{error}"
            )
        return bounds

    def seed(
        self,
        key: Tuple[str, str, str],
        bounds: Optional[List[LayerBounds]],
        error: Optional[str],
    ) -> None:
        """Install a precomputed entry (used by parallel campaigns)."""
        self._store(key, (bounds, error))

    # -- storage / durability ----------------------------------------------
    def _store(self, key, entry) -> None:
        bounds, error = entry
        entry = (freeze_bounds(bounds), error)
        self._entries[key] = entry
        if self.spill_path is not None:
            self._append_spill(key, entry)

    def _append_spill(self, key, entry) -> None:
        from repro.core.spill import append_spill

        bounds, error = entry
        append_spill(self.spill_path, {
            "key": list(key),
            "error": error,
            "layers": None if bounds is None else [
                {
                    "lower": layer.lower.tolist(),
                    "upper": layer.upper.tolist(),
                }
                for layer in bounds
            ],
        })


def _decode_spill_record(record: dict):
    """``(key, entry)`` of one ``bounds.jsonl`` line."""
    layers = record["layers"]
    bounds = None if layers is None else [
        LayerBounds(
            np.asarray(layer["lower"], dtype=float),
            np.asarray(layer["upper"], dtype=float),
        )
        for layer in layers
    ]
    return tuple(record["key"]), (freeze_bounds(bounds), record.get("error"))


def compute_bounds_entry(
    network: FeedForwardNetwork,
    region: InputRegion,
    bound_mode: str,
    tracer=None,
) -> Tuple[Optional[List[LayerBounds]], Optional[str]]:
    """Run one bound computation, capturing any failure as a traceback.

    This is the fault-isolated form used by campaign workers: the result
    is always a ``(bounds, error)`` pair with exactly one side set.
    """
    import traceback

    from repro.core.encoder import EncoderOptions, compute_bounds

    try:
        options = EncoderOptions(bound_mode=bound_mode)
        return compute_bounds(network, region, options, tracer=tracer), None
    except Exception:
        return None, traceback.format_exc()


def total_ambiguous(bounds: List[LayerBounds], network: FeedForwardNetwork) -> int:
    """Binary variables the MILP encoding will need (ReLU layers only)."""
    count = 0
    for layer_bounds, layer in zip(bounds, network.layers):
        if layer.activation == "relu":
            count += layer_bounds.num_ambiguous()
    return count
