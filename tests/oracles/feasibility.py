"""Constraint-by-constraint feasibility check: the oracle for
:meth:`repro.milp.model.Model.is_feasible`.

This is how ``Model.is_feasible`` checked a point before it became one
dense pass over the model's cached matrices: it walks the columns for
bounds and integrality, then asks each :class:`~repro.milp.expr.Constraint`
whether it is satisfied, summing its sparse coefficients in Python.  It
shares no arithmetic with the dense check, so the tests run both on the
same points and expect the same answers.
"""

from __future__ import annotations

from typing import Sequence

from repro.milp.expr import VarType
from repro.milp.model import Model
from repro.tolerances import FEASIBILITY_TOL


def is_feasible(
    model: Model, x: Sequence[float], tol: float = FEASIBILITY_TOL
) -> bool:
    """Check bounds, constraints and integrality of a candidate point."""
    assignment = {i: float(x[i]) for i in range(model.num_vars)}
    for i in range(model.num_vars):
        if not (model.lb[i] - tol <= assignment[i] <= model.ub[i] + tol):
            return False
        if model.vtypes[i] is not VarType.CONTINUOUS:
            if abs(assignment[i] - round(assignment[i])) > tol:
                return False
    return all(c.satisfied(assignment, tol) for c in model.constraints)
