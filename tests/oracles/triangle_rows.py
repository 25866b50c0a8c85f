"""Triangle rows by broadcast selection: the oracle for
:func:`repro.core.bounds._triangle_rows`.

This is how the bound engine built one ReLU layer's relaxation rows
before masked row assignment replaced it: every case's rows and
right-hand sides computed for every neuron, then picked per neuron with
``np.select``.  The tests expect the same arrays, bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers import DenseLayer


def triangle_rows(
    layer: DenseLayer, lower: np.ndarray, upper: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, rhs)`` of the ``<=`` rows relaxing ``relu(x @ W + b)``
    over pre-activation bounds ``[lower, upper]``; ``x`` and the
    post-activation columns are the last ``fan_in + fan_out`` of
    ``width``."""
    fan_in, fan_out = layer.weights.shape
    z = np.zeros((fan_out, width))
    z[:, width - fan_out - fan_in:width - fan_out] = layer.weights.T
    a = np.zeros((fan_out, width))
    a[:, width - fan_out:] = np.eye(fan_out)
    bias = layer.bias
    active = lower >= 0.0
    inactive = (upper <= 0.0) & ~active
    ambiguous = ~(active | inactive)
    slope = np.zeros(fan_out)
    slope[ambiguous] = upper[ambiguous] / (
        upper[ambiguous] - lower[ambiguous]
    )
    cases = [active, inactive]
    row_cases = [active[:, None], inactive[:, None]]
    rows = np.empty((2 * fan_out, width))
    rhs = np.empty(2 * fan_out)
    rows[0::2] = np.select(row_cases, [a - z, a], z - a)
    rows[1::2] = np.select(row_cases, [z - a, -a], a - slope[:, None] * z)
    rhs[0::2] = np.select(cases, [bias, 0.0], -bias)
    rhs[1::2] = np.select(cases, [-bias, 0.0], slope * (bias - lower))
    return rows, rhs
