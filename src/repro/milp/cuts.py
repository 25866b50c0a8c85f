"""Cutting planes for the verification MILP.

Two separators tighten the node LP relaxations that branch-and-bound
solves (the gap the paper's scalability discussion turns on):

* **Gomory mixed-integer cuts** read simplex tableau rows of fractional
  basic integer columns off a :class:`~repro.milp.revised_simplex.TableauView`.
  Nonbasic columns are complemented against *global* (root) bounds, so a
  cut separated at any node is valid for every integer-feasible point of
  the model — node bounds only tighten, hence the shifted variables stay
  nonnegative everywhere.  Slack columns are eliminated through their
  defining rows so the cut lands back on the structural columns.
* **ReLU triangle / implied-bound cuts** come from the neuron metadata
  the encoder attaches to ``EncodedNetwork`` — each ambiguous neuron's
  post-activation column ``a``, phase binary ``d`` and pre-activation
  affine form ``z = w @ x + b``.  The single-neuron triangle is implied
  by the big-M rows *at the encoding bounds*; it only bites because the
  separator recomputes ``[l, u]`` from the **current** global column
  bounds (presolve routinely fixes phases and shrinks boxes), which is
  classic big-M coefficient strengthening.

Cuts live in a :class:`CutPool`: deduplicated by a hash of their support
and quantised coefficients, scored by normalised violation, aged while
slack at the separation point and evicted once stale.  The pool itself
is solver-agnostic; :mod:`repro.milp.branch_and_bound` owns when rows
are appended to the LP and when eviction (with an LP rebuild) is safe.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.milp.revised_simplex import (
    AT_UPPER,
    BASIC,
    FREE,
    TableauView,
)
from repro.tolerances import EPS

__all__ = [
    "Cut",
    "CutPool",
    "ReluNeuron",
    "separate_gomory",
    "separate_relu",
]

#: Minimum violation (normalised by the cut's coefficient norm) for a
#: candidate to be worth adding.
MIN_VIOLATION = 1e-5
#: Fractional window for Gomory source rows and f0: values closer than
#: this to an integer produce numerically useless cuts.
MIN_FRACTION = 5e-3
#: Reject cuts whose nonzero coefficients span more than this ratio.
MAX_DYNAMISM = 1e7
#: Rows branch-and-bound adds per root separation round.
MAX_CUTS_PER_ROUND = 8
#: Pool capacity (dedup index size).
CUT_POOL_SIZE = 500
#: Separation rounds an active cut may stay slack before eviction.
CUT_AGE_LIMIT = 8
#: Coefficients below ``max|coef| * _DROP_REL`` are folded into the rhs.
_DROP_REL = 1e-10
#: Integrality tolerance for shift bounds (bound values, not incumbent
#: integrality — hence the zero-screening EPS, not INTEGRALITY_TOL).
_INT_TOL = EPS


@dataclasses.dataclass
class ReluNeuron:
    """One ambiguous ReLU neuron, as the encoder laid it out.

    ``pre_coeffs``/``pre_const`` give the pre-activation
    ``z = sum(pre_coeffs[j] * x_j) + pre_const`` over model columns (the
    encoding has no explicit ``z`` variable); ``lower``/``upper`` are the
    *unpadded* pre-activation bounds the encoding certified.
    """

    layer: int
    index: int
    a_col: int
    d_col: int
    pre_coeffs: Dict[int, float]
    pre_const: float
    lower: float
    upper: float


@dataclasses.dataclass
class Cut:
    """One valid inequality ``coeffs @ x <= rhs`` over structural columns."""

    coeffs: np.ndarray
    rhs: float
    kind: str
    key: int
    #: Normalised violation at the point that selected the cut.
    score: float = 0.0
    #: Consecutive separation rounds the active cut has been slack.
    age: int = 0
    #: Whether the cut currently sits in the LP as a row.
    active: bool = False

    def violation(self, x: np.ndarray) -> float:
        """Normalised violation at ``x`` (positive = violated)."""
        norm = float(np.linalg.norm(self.coeffs))
        return float(self.coeffs @ x - self.rhs) / max(1.0, norm)


def _cut_key(coeffs: np.ndarray, rhs: float) -> int:
    """Dedup key: hashed support plus scale-quantised coefficients."""
    nz = np.flatnonzero(np.abs(coeffs) > 1e-12)
    if nz.size == 0:
        return 0
    scale = float(np.abs(coeffs[nz]).max())
    quant = tuple(np.round(coeffs[nz] / scale, 9).tolist())
    return hash((tuple(nz.tolist()), quant, round(rhs / scale, 9)))


class CutPool:
    """Managed cut store: dedup, efficacy scoring, aging and eviction."""

    def __init__(
        self, max_size: int = CUT_POOL_SIZE, age_limit: int = CUT_AGE_LIMIT
    ) -> None:
        self.max_size = max_size
        self.age_limit = age_limit
        self._by_key: Dict[int, Cut] = {}
        #: Cuts currently appended to the LP, in row-append order.
        self.active: List[Cut] = []
        self.added_total = 0
        self.evicted_total = 0

    def __len__(self) -> int:
        return len(self._by_key)

    def offer(self, cut: Cut) -> bool:
        """Admit a candidate unless it duplicates a known cut."""
        if cut.key in self._by_key:
            return False
        if len(self._by_key) >= self.max_size and not self._drop_one():
            return False
        self._by_key[cut.key] = cut
        return True

    def _drop_one(self) -> bool:
        """Forget the worst-scored inactive cut to make room."""
        worst: Optional[Cut] = None
        for cut in self._by_key.values():
            if cut.active:
                continue
            if worst is None or cut.score < worst.score:
                worst = cut
        if worst is None:
            return False
        del self._by_key[worst.key]
        return True

    def select(self, x: np.ndarray, limit: int) -> List[Cut]:
        """The at most ``limit`` most-violated inactive cuts at ``x``."""
        candidates = []
        for cut in self._by_key.values():
            if cut.active:
                continue
            viol = cut.violation(x)
            if viol >= MIN_VIOLATION:
                cut.score = viol
                candidates.append(cut)
        candidates.sort(key=lambda c: -c.score)
        return candidates[:limit]

    def activate(self, cuts: Sequence[Cut]) -> None:
        """Mark ``cuts`` as appended to the LP (in this order)."""
        for cut in cuts:
            cut.active = True
            cut.age = 0
            self.active.append(cut)
        self.added_total += len(cuts)

    def age_active(self, x: np.ndarray, slack_tol: float = 1e-7) -> None:
        """Advance the age of active cuts that are slack at ``x``."""
        for cut in self.active:
            slack = cut.rhs - float(cut.coeffs @ x)
            norm = max(1.0, float(np.linalg.norm(cut.coeffs)))
            if slack / norm > slack_tol:
                cut.age += 1
            else:
                cut.age = 0

    def evict_stale(self) -> List[Cut]:
        """Drop active cuts whose age reached the limit.

        Evicted cuts stay in the dedup index so re-separating the same
        inequality later is recognised; only the *active* list (the LP
        rows) shrinks.  The caller must rebuild its LP afterwards.
        """
        stale = [c for c in self.active if c.age >= self.age_limit]
        if not stale:
            return []
        self.active = [c for c in self.active if c.age < self.age_limit]
        for cut in stale:
            cut.active = False
        self.evicted_total += len(stale)
        return stale


# -- Gomory mixed-integer cuts -------------------------------------------------
def separate_gomory(
    view: TableauView,
    int_cols: np.ndarray,
    global_lower: np.ndarray,
    global_upper: np.ndarray,
    max_cuts: int = 16,
    min_violation: float = MIN_VIOLATION,
) -> List[Cut]:
    """Gomory mixed-integer cuts from the tableau rows of ``view``.

    ``global_lower``/``global_upper`` are *structural* bounds valid for
    every integer-feasible point (the post-presolve root box); nonbasic
    columns are complemented against them, never against node bounds, so
    the returned cuts are globally valid.
    """
    lp = view.lp
    ns = lp.num_structural
    n = lp.num_cols
    is_int = np.zeros(n, dtype=bool)
    is_int[np.asarray(int_cols, dtype=int)] = True
    glo = np.concatenate([global_lower, lp.lower[ns:]])
    gup = np.concatenate([global_upper, lp.upper[ns:]])
    art = np.zeros(n, dtype=bool)
    art[lp.art_cols] = True
    nonbasic = view.status != BASIC
    # Map each slack column to its defining row for elimination.
    slack_row = np.full(n, -1, dtype=np.int64)
    for row, col in enumerate(lp.row_slack):
        if col >= 0:
            slack_row[col] = row
    is_slack = slack_row >= 0

    sources = []
    for i, j in enumerate(view.basic):
        j = int(j)
        if j >= ns or not is_int[j]:
            continue
        frac = view.x[j] - math.floor(view.x[j])
        dist = min(frac, 1.0 - frac)
        if dist > MIN_FRACTION:
            sources.append((dist, i))
    sources.sort(reverse=True)
    sources = sources[: 3 * max_cuts]

    cuts: List[Cut] = []
    x_struct = view.x[:ns]
    if not sources:
        return cuts
    # One GEMM recovers every candidate tableau row at once — replacing
    # the per-source ``Binv[i] @ A`` GEMV loop.
    src_rows = np.array([i for _, i in sources], dtype=int)
    Abar = view.Binv[src_rows] @ lp.A
    for r, (_, i) in enumerate(sources):
        if len(cuts) >= max_cuts:
            break
        abar = Abar[r]
        abar[view.basic] = 0.0
        consider = nonbasic & ~art & (np.abs(abar) > 1e-11)
        if not consider.any():
            continue
        if (consider & (view.status == FREE)).any():
            continue
        up = consider & (view.status == AT_UPPER)
        lo = consider & ~up
        # Every shifted variable needs a finite reference bound.
        if (~np.isfinite(glo[lo])).any() or (~np.isfinite(gup[up])).any():
            continue

        # Shift to s_j >= 0: x_j = glo_j + s_j  /  x_j = gup_j - s_j.
        atil = np.where(up, -abar, abar)
        beta = (
            view.b_bar[i]
            - float(abar[lo] @ glo[lo])
            - float(abar[up] @ gup[up])
        )
        f0 = beta - math.floor(beta)
        if f0 < MIN_FRACTION or f0 > 1.0 - MIN_FRACTION:
            continue

        # A shifted column is integer only when the variable is integer
        # *and* its reference bound is integral; otherwise treating it
        # as continuous stays valid (just weaker).
        ref = np.where(up, gup, glo)
        ref_integral = np.abs(ref - np.round(ref)) <= _INT_TOL
        int_sh = consider & is_int & ref_integral
        cont = consider & ~int_sh

        gamma = np.zeros(n)
        fj = atil - np.floor(atil)
        small = int_sh & (fj <= f0)
        large = int_sh & (fj > f0)
        gamma[small] = fj[small]
        gamma[large] = f0 * (1.0 - fj[large]) / (1.0 - f0)
        pos = cont & (atil >= 0.0)
        neg = cont & (atil < 0.0)
        gamma[pos] = atil[pos]
        gamma[neg] = -atil[neg] * f0 / (1.0 - f0)

        # Back to original variables: sum(gamma_j s_j) >= f0.
        alpha = np.where(up, -gamma, gamma)
        alpha[~consider] = 0.0
        rhs_ge = (
            f0
            + float(gamma[lo] @ glo[lo])
            - float(gamma[up] @ gup[up])
        )
        # Eliminate slack columns through their rows:
        # x_slack = b_row - A[row, :ns] @ x_struct (artificials are 0).
        coeffs = alpha[:ns].copy()
        elim = np.flatnonzero((np.abs(alpha) > 0.0) & is_slack)
        if elim.size:
            rows = slack_row[elim]
            coeffs -= alpha[elim] @ lp.A[np.ix_(rows, range(ns))]
            rhs_ge -= float(alpha[elim] @ lp.b[rows])

        # <= orientation, cleanup, safety margin.
        cut = _finish_cut(
            -coeffs, -rhs_ge, "gomory",
            global_lower, global_upper, x_struct, min_violation,
        )
        if cut is not None:
            cuts.append(cut)
    return cuts


def _finish_cut(
    coeffs: np.ndarray,
    rhs: float,
    kind: str,
    lower: np.ndarray,
    upper: np.ndarray,
    x: np.ndarray,
    min_violation: float,
) -> Optional[Cut]:
    """Clean, guard and package a candidate ``coeffs @ x <= rhs``."""
    coeffs = np.asarray(coeffs, dtype=float).copy()
    if not np.all(np.isfinite(coeffs)) or not math.isfinite(rhs):
        return None
    magnitudes = np.abs(coeffs)
    top = float(magnitudes.max()) if coeffs.size else 0.0
    if top <= 1e-9:
        return None
    # Fold numerically tiny coefficients into the rhs (validly: a <= cut
    # stays valid when c_j x_j is replaced by its lower bound).
    drop = (magnitudes > 0.0) & (magnitudes < top * _DROP_REL)
    for j in np.flatnonzero(drop):
        lo_term = coeffs[j] * (lower[j] if coeffs[j] > 0 else upper[j])
        if not math.isfinite(lo_term):
            continue  # unbounded on the relevant side: keep the term
        rhs -= lo_term
        coeffs[j] = 0.0
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return None
    if top / float(np.abs(coeffs[nz]).min()) > MAX_DYNAMISM:
        return None
    # Tiny relaxation so floating error can never slice off a feasible
    # integer point during incumbent checks.
    rhs += 1e-9 * (1.0 + abs(rhs))
    cut = Cut(coeffs, float(rhs), kind, _cut_key(coeffs, rhs))
    viol = cut.violation(x)
    if viol < min_violation:
        return None
    cut.score = viol
    return cut


# -- ReLU triangle / implied-bound cuts ----------------------------------------
def separate_relu(
    neurons: Sequence[ReluNeuron],
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_cuts: int = 16,
    min_violation: float = MIN_VIOLATION,
) -> List[Cut]:
    """Violated ReLU cuts at ``x`` under the current global bounds.

    For each ambiguous neuron the pre-activation box ``[l, u]`` is
    recomputed by interval arithmetic over the *current* column bounds
    (and the neuron's own ``a``/``d`` boxes); when that beats the bounds
    the big-M rows were written with, the triangle

        a <= u (z - l) / (u - l)

    and the implied-bound rows ``z <= u d`` and ``z >= l (1 - d)`` cut
    off LP points the original relaxation admits.  Neurons whose
    recomputed box fixes the phase yield the stronger ``a <= 0`` /
    ``a <= z`` facets directly.

    The interval pass runs as two matmuls over a dense pre-activation
    coefficient matrix, and candidates are pre-filtered on their *raw*
    violation before any coefficient vector is materialised (the
    normalised violation :func:`_finish_cut` checks never exceeds the
    raw one, so the filter is conservative).
    """
    n = x.shape[0]
    m = len(neurons)
    cuts: List[Cut] = []
    if m == 0:
        return cuts
    W = np.zeros((m, n))
    const = np.empty(m)
    a_cols = np.empty(m, dtype=np.int64)
    d_cols = np.empty(m, dtype=np.int64)
    for i, neuron in enumerate(neurons):
        for j, w in neuron.pre_coeffs.items():
            W[i, j] = w
        const[i] = neuron.pre_const
        a_cols[i] = neuron.a_col
        d_cols[i] = neuron.d_col

    if np.isfinite(lower).all() and np.isfinite(upper).all():
        # Interval pass over the current boxes, all neurons at once.
        w_pos = np.maximum(W, 0.0)
        w_neg = W - w_pos
        lo = const + w_pos @ lower + w_neg @ upper
        hi = const + w_pos @ upper + w_neg @ lower
        lo = np.maximum(lo, [nr.lower for nr in neurons])
        hi = np.minimum(hi, [nr.upper for nr in neurons])
        # a >= z always, so ub(a) caps z; a > 0 forces the active phase.
        hi = np.minimum(hi, upper[a_cols])
        a_lb = lower[a_cols]
        lo = np.where(a_lb > 1e-9, np.maximum(lo, a_lb), lo)
        # A fixed phase binary decides the sign outright.
        hi = np.where(upper[d_cols] < 0.5, np.minimum(hi, 0.0), hi)
        lo = np.where(lower[d_cols] > 0.5, np.maximum(lo, 0.0), lo)
    else:
        # Infinite column bounds need the per-term finiteness fallbacks
        # (0 * inf would poison the matmuls): scalar path.
        lo = np.empty(m)
        hi = np.empty(m)
        for i, neuron in enumerate(neurons):
            lo[i], hi[i] = _neuron_box(neuron, lower, upper)

    z_val = W @ x + const
    a_val = x[a_cols]
    d_val = x[d_cols]
    nonempty = lo <= hi + 1e-9  # numerically empty: leave to the search
    inactive = nonempty & (hi <= 1e-9)
    active = nonempty & ~inactive & (lo >= -1e-9)
    ambiguous = nonempty & ~inactive & ~active
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(ambiguous, hi / np.where(ambiguous, hi - lo, 1.0), 0.0)
    # Raw violations of every candidate; anything below half the
    # normalised threshold cannot survive ``_finish_cut``.
    viol_inactive = a_val
    viol_active = a_val - z_val
    viol_triangle = a_val - slope * (z_val - lo)
    viol_implied_u = z_val - hi * d_val
    viol_implied_l = lo * (1.0 - d_val) - z_val
    thresh = 0.5 * min_violation

    for i, neuron in enumerate(neurons):
        if len(cuts) >= max_cuts:
            break
        if not nonempty[i]:
            continue
        if inactive[i]:
            if viol_inactive[i] < thresh:
                continue
            # Stably inactive under current bounds: a <= 0.
            coeffs = np.zeros(n)
            coeffs[neuron.a_col] = 1.0
            _append(cuts, coeffs, 0.0, "relu_bound",
                    lower, upper, x, min_violation)
            continue
        if active[i]:
            if viol_active[i] < thresh:
                continue
            # Stably active: a <= z.
            coeffs = -W[i]
            coeffs[neuron.a_col] += 1.0
            _append(cuts, coeffs, neuron.pre_const, "relu_bound",
                    lower, upper, x, min_violation)
            continue
        # Ambiguous: triangle upper facet a <= u (z - l) / (u - l).
        if viol_triangle[i] >= thresh:
            coeffs = -slope[i] * W[i]
            coeffs[neuron.a_col] += 1.0
            _append(cuts, coeffs, slope[i] * (neuron.pre_const - lo[i]),
                    "relu_triangle", lower, upper, x, min_violation)
        # Implied bounds on the phase binary: z <= u d ...
        if viol_implied_u[i] >= thresh:
            coeffs = W[i].copy()
            coeffs[neuron.d_col] -= hi[i]
            _append(cuts, coeffs, -neuron.pre_const, "relu_implied",
                    lower, upper, x, min_violation)
        # ... and z >= l (1 - d).
        if viol_implied_l[i] >= thresh:
            coeffs = -W[i]
            coeffs[neuron.d_col] -= lo[i]
            _append(cuts, coeffs, neuron.pre_const - lo[i], "relu_implied",
                    lower, upper, x, min_violation)
    return cuts


def _neuron_box(
    neuron: ReluNeuron, lower: np.ndarray, upper: np.ndarray
):
    """Pre-activation bounds from current column boxes, intersected with
    the encoding-time bounds and the neuron's own variable boxes."""
    lo = hi = neuron.pre_const
    for j, w in neuron.pre_coeffs.items():
        if w >= 0.0:
            lo += w * lower[j]
            hi += w * upper[j]
        else:
            lo += w * upper[j]
            hi += w * lower[j]
    if not math.isfinite(lo):
        lo = neuron.lower
    if not math.isfinite(hi):
        hi = neuron.upper
    lo = max(lo, neuron.lower)
    hi = min(hi, neuron.upper)
    # a >= z always, so ub(a) caps z; a > 0 forces the active phase.
    hi = min(hi, upper[neuron.a_col])
    if lower[neuron.a_col] > 1e-9:
        lo = max(lo, lower[neuron.a_col])
    # A fixed phase binary decides the sign outright.
    if upper[neuron.d_col] < 0.5:
        hi = min(hi, 0.0)
    if lower[neuron.d_col] > 0.5:
        lo = max(lo, 0.0)
    return lo, hi


def _append(
    cuts: List[Cut],
    coeffs: np.ndarray,
    rhs: float,
    kind: str,
    lower: np.ndarray,
    upper: np.ndarray,
    x: np.ndarray,
    min_violation: float,
) -> None:
    cut = _finish_cut(coeffs, rhs, kind, lower, upper, x, min_violation)
    if cut is not None:
        cuts.append(cut)
