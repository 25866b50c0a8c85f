"""The LP engine: SciPy's compiled HiGHS bindings.

Branch-and-bound and LP bound tightening issue many LPs that share one
constraint matrix and differ only in their objective or column box.
:class:`HighsSession` passes that matrix to a persistent HiGHS model
*once*; each :meth:`HighsSession.solve` edits the costs and bounds in
place and re-runs, so HiGHS warm-starts from the basis it kept from the
previous solve instead of rebuilding and presolving a fresh model.
LP bound tightening also grows the model layer by layer:
:meth:`HighsSession.extend` appends columns and rows (HiGHS
``addCols``/``addRows``) and the basis carries over, so one model
serves every layer of a network.  Both hand HiGHS compressed triplets
built straight from the dense rows with ``np.nonzero``.

The bindings (``scipy.optimize._highspy._core``, the same ones SciPy's
own ``method="highs"`` LP solver drives) ship with SciPy 1.15 and later;
an older SciPy fails at import with one clear error.  They are the only
part of SciPy this package uses, so :func:`_load_highs` loads the
extension file directly instead of importing it through
``scipy.optimize``: that package's ``__init__`` pulls in ``linprog``,
``scipy.linalg``, ``scipy.sparse``, ``scipy.special`` and ``scipy.fft``,
about half of a proving process's cold start, and code nobody
runs (or has to trust) while proving.  The module is registered in
``sys.modules`` under its full name, so a later ``import scipy.optimize``
reuses the same module object, and an earlier one is reused here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from types import ModuleType
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.milp.solution import LPResult
from repro.milp.status import SolveStatus

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs() -> ModuleType:
    """The compiled HiGHS bindings, loaded without ``scipy.optimize``.

    Reuses the module if ``sys.modules`` already holds it; otherwise
    finds the extension file under SciPy's install directory (without
    importing SciPy) and loads it under its full name.
    """
    missing = ImportError(
        "repro needs SciPy >= 1.15 for its compiled HiGHS bindings "
        f"({_HIGHS_MODULE})"
    )
    if _HIGHS_MODULE in sys.modules:
        if sys.modules[_HIGHS_MODULE] is None:
            raise missing
        return sys.modules[_HIGHS_MODULE]
    scipy_spec = importlib.util.find_spec("scipy")
    locations = scipy_spec.submodule_search_locations if scipy_spec else None
    paths = [
        os.path.join(location, "optimize", "_highspy", "_core" + suffix)
        for location in locations or ()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise missing
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, path)
    spec = importlib.util.spec_from_loader(_HIGHS_MODULE, loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    loader.exec_module(module)
    return module


_highs = _load_highs()

_MODEL_STATUS = _highs.HighsModelStatus
#: HiGHS model status -> solver status.  Anything unlisted (iteration or
#: time limit, "unbounded or infeasible", model or solver errors) is
#: ERROR.
_STATUS_MAP = {
    _MODEL_STATUS.kOptimal: SolveStatus.OPTIMAL,
    _MODEL_STATUS.kInfeasible: SolveStatus.INFEASIBLE,
    _MODEL_STATUS.kUnbounded: SolveStatus.UNBOUNDED,
}


def _compressed(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-compressed ``(start, index, value)`` of a dense matrix.

    ``start`` has one entry per row plus the end; pass ``A.T`` for the
    column-compressed form.
    """
    rows, cols = np.nonzero(A)
    start = np.searchsorted(rows, np.arange(A.shape[0] + 1))
    return start.astype(np.int32), cols.astype(np.int32), A[rows, cols]


class HighsSession:
    """One LP held in a persistent HiGHS model, re-solved after edits.

    :meth:`extend` may append columns and ``<=`` rows; :meth:`solve`
    may replace the objective and/or the column box before each run.
    Every edit overwrites the whole vector, so a solve's answer depends
    only on the LP and the arguments in effect, never on which earlier
    solves the session ran (only the starting basis, hence the speed,
    does).  :attr:`lp_seconds` adds up the wall seconds spent inside
    HiGHS's ``run``, so a caller can tell simplex time from its own.

    HiGHS runs its dual simplex, which suits re-solves after bound
    edits (branch and bound).  ``primal=True`` selects its primal
    simplex instead, which suits re-solves that change only the
    objective (LP bound probes): the last basis stays primal feasible.
    """

    def __init__(
        self,
        c: np.ndarray,
        A_ub: Optional[np.ndarray] = None,
        b_ub: Optional[np.ndarray] = None,
        A_eq: Optional[np.ndarray] = None,
        b_eq: Optional[np.ndarray] = None,
        bounds: Optional[Sequence[Tuple[float, float]]] = None,
        primal: bool = False,
    ) -> None:
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        blocks, lhs, rhs = [], [], []
        if A_ub is not None and len(A_ub):
            b = np.asarray(b_ub, dtype=float)
            blocks.append(np.asarray(A_ub, dtype=float).reshape(len(b), n))
            lhs.append(np.full(len(b), -math.inf))
            rhs.append(b)
        if A_eq is not None and len(A_eq):
            b = np.asarray(b_eq, dtype=float)
            blocks.append(np.asarray(A_eq, dtype=float).reshape(len(b), n))
            lhs.append(b)
            rhs.append(b)
        A = np.vstack(blocks) if blocks else np.zeros((0, n))
        if bounds is None:
            lb, ub = np.zeros(n), np.full(n, math.inf)
        else:
            box = np.asarray(bounds, dtype=float).reshape(n, 2)
            lb, ub = box[:, 0].copy(), box[:, 1].copy()
        row_lhs = np.concatenate(lhs) if lhs else np.zeros(0)
        row_rhs = np.concatenate(rhs) if rhs else np.zeros(0)
        if not (np.isfinite(c).all() and np.isfinite(A).all()) or any(
            np.isnan(v).any() for v in (row_rhs, lb, ub)
        ):
            raise ValueError("LP data contains NaN or infinite coefficients")
        self.num_vars = n
        self.lp_seconds = 0.0
        self._cols = np.arange(n, dtype=np.int32)
        self._lb, self._ub = lb, ub
        self._crossed = bool(np.any(lb > ub))
        start, index, value = _compressed(A.T)
        lp = _highs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = A.shape[0]
        lp.col_cost_ = c
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = row_lhs
        lp.row_upper_ = row_rhs
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        self._h = _highs._Highs()
        self._h.setOptionValue("output_flag", False)
        if primal:
            self._h.setOptionValue("simplex_strategy", 4)
        if self._h.passModel(lp) == _highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the LP data")

    def extend(
        self,
        col_bounds: Sequence[Tuple[float, float]],
        rows: np.ndarray,
        rhs: np.ndarray,
    ) -> None:
        """Append columns, then ``rows @ x <= rhs`` rows over the grown LP.

        The new columns take ``col_bounds``, zero cost and zero
        coefficients in every existing row; ``rows`` has one column per
        variable after they are added.  HiGHS keeps its basis (new
        columns enter nonbasic, new rows with a basic slack), so the
        next :meth:`solve` warm-starts from it.  An infeasible answer's
        ray lists the rows in the order the session gained them: the
        constructor's ``<=`` rows, its equality rows, then each call's.
        """
        box = np.asarray(col_bounds, dtype=float).reshape(-1, 2)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        k, m = box.shape[0], rhs.shape[0]
        rows = np.asarray(rows, dtype=float).reshape(m, self.num_vars + k)
        if (
            np.isnan(box).any()
            or np.isnan(rhs).any()
            or not np.isfinite(rows).all()
        ):
            raise ValueError("LP data contains NaN or infinite coefficients")
        error = _highs.HighsStatus.kError
        if k:
            empty = np.zeros(k, dtype=np.int32)
            if self._h.addCols(
                k, np.zeros(k), box[:, 0], box[:, 1], 0, empty, empty[:0],
                np.zeros(0),
            ) == error:
                raise ValueError("HiGHS rejected the added columns")
            self.num_vars += k
            self._cols = np.arange(self.num_vars, dtype=np.int32)
            self._lb = np.concatenate([self._lb, box[:, 0]])
            self._ub = np.concatenate([self._ub, box[:, 1]])
            self._crossed = bool(np.any(self._lb > self._ub))
        if m:
            start, index, value = _compressed(rows)
            if self._h.addRows(
                m, np.full(m, -math.inf), rhs, len(value), start[:-1],
                index, value,
            ) == error:
                raise ValueError("HiGHS rejected the added rows")

    def solve(
        self,
        c: Optional[np.ndarray] = None,
        lb: Optional[np.ndarray] = None,
        ub: Optional[np.ndarray] = None,
    ) -> LPResult:
        """Minimise after replacing the objective and/or column bounds.

        ``None`` keeps the current vector.  While the box is crossed
        (some ``lb > ub``) every solve is infeasible without calling the
        solver; HiGHS sees the box again once an edit uncrosses it.
        A NaN entry, or an edit HiGHS rejects, raises ``ValueError``
        and leaves the box as it was.
        """
        h = self._h
        n = self.num_vars
        error = _highs.HighsStatus.kError
        if c is not None:
            c = np.asarray(c, dtype=float)
            if not np.isfinite(c).all():
                raise ValueError("LP objective contains NaN or infinite entries")
            if h.changeColsCost(n, self._cols, c) == error:
                raise ValueError("HiGHS rejected the objective")
        if lb is not None or ub is not None:
            new_lb = self._lb if lb is None else np.array(lb, dtype=float)
            new_ub = self._ub if ub is None else np.array(ub, dtype=float)
            if np.isnan(new_lb).any() or np.isnan(new_ub).any():
                raise ValueError("LP data contains NaN or infinite coefficients")
            crossed = bool((new_lb > new_ub).any())
            if not crossed and h.changeColsBounds(
                n, self._cols, new_lb, new_ub
            ) == error:
                raise ValueError("HiGHS rejected the column bounds")
            self._lb, self._ub, self._crossed = new_lb, new_ub, crossed
        if self._crossed:
            return LPResult(SolveStatus.INFEASIBLE)
        tick = time.perf_counter()
        h.run()
        iterations = h.getInfoValue("simplex_iteration_count")[1]
        if h.getModelStatus() not in _STATUS_MAP:
            # A warm start can stall undecided (kUnknown or "unbounded
            # or infeasible") where a presolved cold solve decides:
            # drop the basis and retry once before reporting ERROR.
            h.clearSolver()
            h.run()
            iterations += h.getInfoValue("simplex_iteration_count")[1]
        self.lp_seconds += time.perf_counter() - tick
        status = _STATUS_MAP.get(h.getModelStatus(), SolveStatus.ERROR)
        if status is SolveStatus.OPTIMAL:
            return LPResult(
                status,
                x=np.asarray(h.getSolution().col_value, dtype=float),
                objective=h.getObjectiveValue(),
                iterations=iterations,
            )
        if status is SolveStatus.INFEASIBLE:
            return LPResult(status, iterations=iterations, farkas=self._ray())
        return LPResult(status, iterations=iterations)

    def _ray(self) -> Optional[np.ndarray]:
        """The infeasibility ray of the last solve, in ``LPResult.farkas``
        form, or ``None``.

        HiGHS's dual ray is negative on the rows whose upper side it
        aggregates; negated, it is ``y >= 0`` on the ``<=`` rows, the
        form the proof checker's weak-duality test takes as is.  A
        missing, empty, all-zero or non-finite ray is no ray; whether
        what is left proves anything is for that test to say, not for
        HiGHS's own has-a-ray flags.
        """
        get_ray = getattr(self._h, "getDualRay", None)
        if get_ray is None:
            return None
        ray = np.asarray(get_ray()[-1], dtype=float)
        if ray.size == 0 or not np.isfinite(ray).all() or not ray.any():
            return None
        return -ray

