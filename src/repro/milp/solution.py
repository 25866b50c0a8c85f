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
        iterations: Simplex iterations performed.
        farkas: Infeasibility ray over the standardized rows (one entry
            per constraint row, inequality rows first) when the status
            is INFEASIBLE and the solver produced one.  Sign convention:
            ``y >= 0`` on the ``<=`` rows (any sign on equality rows)
            and ``min (y @ A) x > y @ b`` over the column box, the form
            :mod:`repro.proof.check` accepts as is.  The raw evidence
            behind proof-certificate Farkas leaves
            (:mod:`repro.proof.emit`); the checker checks every ray
            once, with its certificate, before the certificate is
            attached to a result.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    iterations: int = 0
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
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    best_bound: float = float("nan")
    nodes: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
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
