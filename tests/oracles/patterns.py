"""Activation-pattern enumeration: a network's exact maximum over a box.

The oracle shares no search or encoding code with the prover.  It walks
the ReLU activation patterns of a small network layer by layer; each
fixed prefix is a polytope of inputs on which the network is affine, so
one LP per prefix either shows the prefix empty, pruning every
extension, or — for a full pattern — gives the exact maximum of the
output on that piece.  The largest piece maximum is the network's
maximum over the box.  The LPs run on the from-scratch revised simplex
unless the caller hands in another engine with the same signature
(:func:`tests.oracles.highs.solve_lp`).
"""

from __future__ import annotations

import itertools
from typing import Callable, Tuple

import numpy as np

from repro.core.properties import InputRegion
from repro.milp.status import SolveStatus
from repro.nn import FeedForwardNetwork

from .revised_simplex import solve_lp as revised_solve_lp


def enumerated_max(
    net: FeedForwardNetwork,
    region: InputRegion,
    output: int,
    solve_lp: Callable = revised_solve_lp,
) -> Tuple[float, int]:
    """Maximum of ``output`` over ``region`` by activation-pattern
    enumeration; returns ``(maximum, pattern LPs solved)``."""
    bounds = [tuple(map(float, row)) for row in region.bounds]
    dim = len(bounds)
    best = -np.inf
    solved = 0

    def descend(depth, affine, offset, rows, rhs):
        # ``affine @ x + offset`` is the current layer's input on the
        # polytope ``rows @ x <= rhs`` of inputs sharing the prefix.
        nonlocal best, solved
        layer = net.layers[depth]
        pre_w = affine @ layer.weights  # (dim, fan_out)
        pre_b = offset @ layer.weights + layer.bias
        if depth == len(net.layers) - 1:
            result = solve_lp(-pre_w[:, output], rows, rhs, bounds=bounds)
            solved += 1
            assert result.status is SolveStatus.OPTIMAL
            best = max(best, -result.objective + pre_b[output])
            return
        for pattern in itertools.product((0, 1), repeat=layer.fan_out):
            active = np.array(pattern, dtype=bool)
            # Active: pre >= 0, i.e. -pre <= 0.  Inactive: pre <= 0.
            sign = np.where(active, -1.0, 1.0)
            new_rows = np.vstack([rows, (pre_w * sign).T])
            new_rhs = np.concatenate([rhs, -pre_b * sign])
            probe = solve_lp(np.zeros(dim), new_rows, new_rhs, bounds=bounds)
            solved += 1
            if probe.status is SolveStatus.INFEASIBLE:
                continue  # empty prefix: no extension can be reached
            assert probe.status is SolveStatus.OPTIMAL
            descend(
                depth + 1, pre_w * active, pre_b * active, new_rows, new_rhs
            )

    descend(0, np.eye(dim), np.zeros(dim), np.zeros((0, dim)), np.zeros(0))
    return float(best), solved
