"""One-shot HiGHS LP solves for the LP-corpus tests.

:func:`solve_lp` wraps a fresh :class:`repro.milp.scipy_backend.HighsSession`
in the plain ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` signature that the
revised-simplex oracle (:func:`tests.oracles.revised_simplex.solve_lp`)
shares, so the tests can run one LP through both engines.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.milp.scipy_backend import HighsSession
from repro.milp.solution import LPResult


def solve_lp(
    c: np.ndarray,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    bounds: Optional[Sequence[Tuple[float, float]]] = None,
) -> LPResult:
    """Minimise ``c @ x`` with HiGHS in a one-shot session."""
    return HighsSession(c, A_ub, b_ub, A_eq, b_eq, bounds).solve()
