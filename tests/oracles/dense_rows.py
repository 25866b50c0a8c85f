"""Row-by-row densification: the oracle for the dense view of
:meth:`repro.milp.model.Model.dense_arrays`.

This is how the model built its constraint matrices before one scatter
over every row's ``(row, column, coefficient)`` triplets replaced it: a
fresh ``np.zeros(n)`` per constraint, filled from the row's sparse
coefficients, a ``>=`` row negated as a whole (so its zeros become
``-0.0``), and the rows stacked.  The tests expect the same arrays, bit
for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.milp.expr import ConstraintOp
from repro.milp.model import Model


def dense_rows(
    model: Model,
) -> Tuple[
    Optional[np.ndarray], Optional[np.ndarray],
    Optional[np.ndarray], Optional[np.ndarray],
]:
    """``(A_ub, b_ub, A_eq, b_eq)`` of ``model``, one row at a time."""
    n = model.num_vars
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for constr in model.constraints:
        row = np.zeros(n)
        for idx, coef in constr.expr.coeffs.items():
            row[idx] = coef
        rhs = constr.rhs()
        if constr.op is ConstraintOp.LE:
            ub_rows.append(row)
            ub_rhs.append(rhs)
        elif constr.op is ConstraintOp.GE:
            ub_rows.append(-row)
            ub_rhs.append(-rhs)
        else:
            eq_rows.append(row)
            eq_rhs.append(rhs)
    return (
        np.array(ub_rows) if ub_rows else None,
        np.array(ub_rhs) if ub_rhs else None,
        np.array(eq_rows) if eq_rows else None,
        np.array(eq_rhs) if eq_rhs else None,
    )
