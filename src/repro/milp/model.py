"""Mixed-integer linear programming model container.

A :class:`Model` owns variables, constraints and the objective, and exposes
dense matrix views for the LP relaxation consumed by the simplex and
branch-and-bound engines.  Models are deliberately simple and explicit —
no lazy columns, no hidden rewriting of the rows or bounds.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.tolerances import FEASIBILITY_TOL
from repro.milp.expr import (
    Constraint,
    ConstraintOp,
    ExprLike,
    LinExpr,
    Sense,
    Variable,
    VarType,
    _as_expr,
)

INF = math.inf

#: Row kind codes for :meth:`Model._dense`'s scatter.
_ROW_KIND = {ConstraintOp.LE: 0, ConstraintOp.GE: 1, ConstraintOp.EQ: 2}


class Model:
    """A mixed-integer linear program.

    The model keeps its own sense (min/max); the numeric backends always
    minimise internally and results are reported back in the model's sense.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.vtypes: List[VarType] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: Sense = Sense.MINIMIZE
        self._names: Dict[str, int] = {}
        self._dense_cache: Optional[tuple] = None

    # -- construction -------------------------------------------------------
    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = INF,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Add a decision variable and return its handle.

        Binary variables get their bounds clipped into ``[0, 1]``; an empty
        name is auto-generated from the column index.
        """
        index = len(self.variables)
        if not name:
            name = f"x{index}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        if vtype is VarType.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ModelError(
                f"variable {name!r} has empty domain [{lb}, {ub}]"
            )
        var = Variable(index, name, self)
        self._dense_cache = None
        self.variables.append(var)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.vtypes.append(vtype)
        self._names[name] = index
        return var

    def add_vars(
        self,
        count: int,
        prefix: str,
        lb: float = 0.0,
        ub: float = INF,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> List[Variable]:
        """Add ``count`` homogeneous variables named ``{prefix}{i}``."""
        return [
            self.add_var(f"{prefix}{i}", lb=lb, ub=ub, vtype=vtype)
            for i in range(count)
        ]

    def var_by_name(self, name: str) -> Variable:
        """Look up a variable handle; raises on unknown names."""
        try:
            return self.variables[self._names[name]]
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constr expects a Constraint (use <=, >= or == on "
                "expressions)"
            )
        self._check_columns(constraint.expr)
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self._dense_cache = None
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr: ExprLike, sense: Sense = Sense.MINIMIZE) -> None:
        """Set the objective expression and optimisation direction."""
        expr = _as_expr(expr)
        self._check_columns(expr)
        self._dense_cache = None
        self.objective = expr
        self.sense = sense

    def set_bounds(self, var: Variable, lb: float, ub: float) -> None:
        """Tighten/replace the bounds of an existing variable."""
        if lb > ub:
            raise ModelError(
                f"variable {var.name!r} given empty domain [{lb}, {ub}]"
            )
        self._dense_cache = None
        self.lb[var.index] = float(lb)
        self.ub[var.index] = float(ub)

    def _check_columns(self, expr: LinExpr) -> None:
        n = len(self.variables)
        for idx in expr.coeffs:
            if not 0 <= idx < n:
                raise ModelError(
                    f"expression references unknown column {idx}"
                )

    # -- views ---------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def integer_indices(self) -> List[int]:
        """Columns that must take integral values."""
        return [
            i
            for i, vt in enumerate(self.vtypes)
            if vt in (VarType.BINARY, VarType.INTEGER)
        ]

    def dense_arrays(
        self,
    ) -> Tuple[
        np.ndarray,
        Optional[np.ndarray],
        Optional[np.ndarray],
        Optional[np.ndarray],
        Optional[np.ndarray],
        List[Tuple[float, float]],
    ]:
        """Return ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` for minimisation.

        ``>=`` rows are negated into ``<=`` rows; the objective is negated
        when the model maximises, so backends can always minimise ``c @ x``.

        The dense view is **cached** on the model (campaign cells and
        repeated root solves re-densify the same encoding otherwise) and
        invalidated by every mutation that goes through the model API
        (``add_var``/``add_constr``/``set_objective``/``set_bounds``).
        The cached arrays are returned read-only; the ``bounds`` list is a
        fresh copy per call.
        """
        c, A_ub, b_ub, A_eq, b_eq, bounds = self._dense()[:6]
        return c, A_ub, b_ub, A_eq, b_eq, list(bounds)

    def _dense(self) -> tuple:
        """The cached dense view: :meth:`dense_arrays`' six entries
        (``bounds`` as a tuple), then the column bounds as two arrays and
        the integer columns' indices."""
        if self._dense_cache is not None:
            return self._dense_cache
        n = self.num_vars
        c = np.zeros(n)
        for idx, coef in self.objective.coeffs.items():
            c[idx] = coef
        if self.sense is Sense.MAXIMIZE:
            c = -c

        # One scatter of every row's (row, column, coefficient) triplets.
        # A ``>=`` row is negated into a ``<=`` row, zeros included
        # (``-0.0``), as negating a dense row does.
        constraints = self.constraints
        m = len(constraints)
        coeffs = [constr.expr.coeffs for constr in constraints]
        counts = np.fromiter(map(len, coeffs), dtype=np.intp, count=m)
        cols = np.fromiter(
            itertools.chain.from_iterable(coeffs),
            dtype=np.intp, count=int(counts.sum()),
        )
        coefs = np.fromiter(
            itertools.chain.from_iterable(map(dict.values, coeffs)),
            dtype=float, count=len(cols),
        )
        kind = np.array(
            [_ROW_KIND[constr.op] for constr in constraints], dtype=np.int8
        )
        rhs = np.array([constr.rhs() for constr in constraints], dtype=float)
        is_eq = kind == _ROW_KIND[ConstraintOp.EQ]
        is_ge = kind == _ROW_KIND[ConstraintOp.GE]
        n_ub = m - int(is_eq.sum())
        # Inequality rows first, then equality rows, each in model order.
        rows = np.where(
            is_eq, n_ub + np.cumsum(is_eq) - 1, np.cumsum(~is_eq) - 1
        )
        sign = np.where(is_ge, -1.0, 1.0)
        A = np.zeros((m, n))
        A[rows[is_ge]] = -0.0
        A[np.repeat(rows, counts), cols] = np.repeat(sign, counts) * coefs
        b = np.empty(m)
        b[rows] = sign * rhs
        A_ub, b_ub = (A[:n_ub], b[:n_ub]) if n_ub else (None, None)
        A_eq, b_eq = (A[n_ub:], b[n_ub:]) if n_ub < m else (None, None)
        lb = np.array(self.lb, dtype=float)
        ub = np.array(self.ub, dtype=float)
        integer = np.array(self.integer_indices, dtype=np.intp)
        for arr in (c, A_ub, b_ub, A_eq, b_eq, lb, ub, integer):
            if arr is not None:
                arr.setflags(write=False)
        self._dense_cache = (
            c, A_ub, b_ub, A_eq, b_eq, tuple(zip(self.lb, self.ub)),
            lb, ub, integer,
        )
        return self._dense_cache

    def row_names(self) -> Tuple[List[str], List[str]]:
        """Constraint names in :meth:`dense_arrays` row order.

        Returns ``(inequality_names, equality_names)``: the first list
        follows the ``A_ub`` rows (``<=`` and negated ``>=`` rows in
        constraint encounter order), the second the ``A_eq`` rows.
        Proof-certificate emission uses this to key standardized dual
        rays by constraint name.
        """
        ub_names: List[str] = []
        eq_names: List[str] = []
        for constr in self.constraints:
            if constr.op is ConstraintOp.EQ:
                eq_names.append(constr.name)
            else:
                ub_names.append(constr.name)
        return ub_names, eq_names

    def objective_value(self, x: Sequence[float]) -> float:
        """Objective of a point in the model's own sense."""
        return self.objective.value({i: x[i] for i in range(self.num_vars)})

    def is_feasible(
        self, x: Sequence[float], tol: float = FEASIBILITY_TOL
    ) -> bool:
        """Check bounds, constraints and integrality of a candidate point.

        One dense pass over the cached :meth:`dense_arrays` view, each
        test within ``tol``: column bounds, distance of integer columns
        to the nearest integer, ``A_ub @ x - b_ub`` (``>=`` rows negated)
        and ``|A_eq @ x - b_eq|``.  A NaN anywhere fails.
        """
        _, A_ub, b_ub, A_eq, b_eq, _, lb, ub, integer = self._dense()
        x = np.asarray(x, dtype=float)
        xi = x[integer]
        feasible = (
            ((x >= lb - tol) & (x <= ub + tol)).all()
            and (np.abs(xi - np.rint(xi)) <= tol).all()
        )
        if feasible and A_ub is not None:
            feasible = (A_ub @ x - b_ub <= tol).all()
        if feasible and A_eq is not None:
            feasible = (np.abs(A_eq @ x - b_eq) <= tol).all()
        return bool(feasible)

    def copy(self) -> "Model":
        """Deep copy of the model (fresh variable handles, same structure)."""
        clone = Model(self.name)
        for var, lb, ub, vt in zip(
            self.variables, self.lb, self.ub, self.vtypes
        ):
            clone.add_var(var.name, lb=lb, ub=ub, vtype=vt)
        for constr in self.constraints:
            clone.constraints.append(
                Constraint(constr.expr.copy(), constr.op, constr.name)
            )
        clone.objective = self.objective.copy()
        clone.sense = self.sense
        return clone

    def __repr__(self) -> str:
        kinds = sum(
            1 for vt in self.vtypes if vt is not VarType.CONTINUOUS
        )
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"({kinds} integer), constrs={self.num_constraints})"
        )
