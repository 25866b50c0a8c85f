"""Solution containers returned by the LP and MILP solvers."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.milp.status import SolveStatus


@dataclasses.dataclass
class LPResult:
    """Result of a single linear-programming solve.

    Attributes:
        status: Outcome of the solve.
        x: Primal solution in original column order (``None`` unless
            the status is OPTIMAL).
        objective: Objective value in the *original* sense of the model.
        iterations: Simplex pivots (or backend iterations) performed.
        basis: Optimal basis (``repro.milp.revised_simplex.Basis``) when
            the backend supports warm starting, else ``None``.
        reduced_costs: Reduced costs of the structural columns at the
            optimum, when the backend computes them.
        warm_started: True when this solve reoptimised from a supplied
            basis instead of starting cold.
        farkas: Infeasibility ray over the standardized rows (one entry
            per constraint row, inequality rows first) when the status
            is INFEASIBLE and the backend produced one.  Both backends
            use one sign convention: ``y >= 0`` on the ``<=`` rows (any
            sign on equality rows) and ``min (y @ A) x > y @ b`` over
            the column box, the form :mod:`repro.proof.check` accepts
            as is.  The raw evidence behind proof-certificate Farkas
            leaves (:mod:`repro.proof.emit`), which re-checks every ray
            before it enters a certificate.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    iterations: int = 0
    basis: Optional[object] = None
    reduced_costs: Optional[np.ndarray] = None
    warm_started: bool = False
    farkas: Optional[np.ndarray] = None


@dataclasses.dataclass
class MILPResult:
    """Result of a branch-and-bound solve.

    Attributes:
        status: Outcome; TIMEOUT / NODE_LIMIT may still carry an incumbent.
        x: Best feasible point found, in original column order.
        objective: Objective value of ``x`` in the model's own sense.
        best_bound: Proven bound on the optimum (dual bound).  For a
            maximisation problem this is an upper bound on the achievable
            objective; the optimality gap is ``best_bound - objective``.
        nodes: Branch-and-bound nodes processed.
        lp_iterations: Total simplex iterations over all node LPs.
        wall_time: Seconds spent inside the solver.
        metrics: Flat solver-telemetry snapshot from the search's
            :class:`repro.obs.metrics.MetricsRegistry` — warm-start
            accounting (``warm_start_attempts``, ``warm_start_hits``,
            ``basis_rejections``, ``lp_iterations_saved``) and any
            future instruments.  The historical attribute names remain
            available as read-only properties over this mapping.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    best_bound: float = float("nan")
    nodes: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Leaf-cover proof record, set by every branch-and-bound search: a
    #: dict with ``"leaves"`` — one entry per pruned leaf carrying the
    #: fixed integer columns and the LP infeasibility ray — and
    #: ``"complete"`` — True only for an INFEASIBLE answer whose every
    #: pruned leaf was recorded (False after an unrecordable leaf or an
    #: integral leaf).  Consumed by
    #: :func:`repro.proof.emit.assemble_milp_certificate`.
    proof: Optional[Dict] = None

    @property
    def has_incumbent(self) -> bool:
        return self.x is not None

    @property
    def warm_start_attempts(self) -> int:
        """Node LPs that tried a parent-basis warm start."""
        return int(self.metrics.get("warm_start_attempts", 0))

    @property
    def warm_start_hits(self) -> int:
        """Warm starts that produced a usable answer."""
        return int(self.metrics.get("warm_start_hits", 0))

    @property
    def basis_rejections(self) -> int:
        """Warm starts rejected (fell back to a cold node solve)."""
        return int(self.metrics.get("basis_rejections", 0))

    @property
    def lp_iterations_saved(self) -> int:
        """Estimated iterations avoided by warm starting (vs the root
        LP's cold iteration count as the per-node proxy)."""
        return int(self.metrics.get("lp_iterations_saved", 0))

    @property
    def warm_start_hit_rate(self) -> float:
        """Fraction of warm-start attempts that stuck (0.0 when none)."""
        if self.warm_start_attempts == 0:
            return 0.0
        return self.warm_start_hits / self.warm_start_attempts

    @property
    def gap(self) -> float:
        """Absolute optimality gap (0 for proven-optimal solves)."""
        if self.status is SolveStatus.OPTIMAL:
            return 0.0
        if np.isnan(self.best_bound) or np.isnan(self.objective):
            return float("inf")
        return abs(self.best_bound - self.objective)

    def values_by_name(self, model) -> Dict[str, float]:
        """Map variable names to solution values for a solved model."""
        if self.x is None:
            return {}
        return {var.name: float(self.x[var.index]) for var in model.variables}
