"""Seeded decision queries for the proof-certificate benchmark.

Every query asks "does output 0 of this ReLU network stay at or below
``t`` on an input box?".  A workload is a fixed suite of networks (their
weights depend on the query index only, so every seed verifies the same
family, as a certification campaign would); the run seed draws each
query's box — the unit box ``[-1, 1]^n`` moved by a random offset — and
the samples that place its threshold.  The offset is kept small: how
long a proof takes jumps when a box or threshold moves by a few percent,
and a larger jitter would make the suite's total work, not the program,
decide the figures.  The threshold ``t`` comes from the benchmark's own
numpy arithmetic, never from the verifier under test:

* a lower bound ``low`` on the true maximum — the best of a dense
  uniform sample plus every box corner;
* an upper bound ``high`` — plain interval propagation through the
  layers.

A workload places ``t`` either above ``high`` (the property holds and a
symbolic bound alone proves it) or the fraction ``GAP_FRACTION`` of
the way from ``low`` to ``high`` (inside the relaxation gap, so the
prover has to branch or bisect).  Because nothing here calls the
prover, the queries for a seed are the same for every version of the
program.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Tuple

import numpy as np

from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.nn import FeedForwardNetwork

#: Uniform samples drawn for the lower bound on the maximum.
SAMPLES = 8192

#: Seed of the network suite, shared by every run seed.
SUITE_SEED = 20180701

#: Largest box-centre offset along each input.
MAX_OFFSET = 0.01

#: The threshold's position inside the gap, for gap workloads.
GAP_FRACTION = 0.1

#: Least distance from the sampled maximum to the threshold.  It keeps
#: every threshold clear of the solvers' tolerances, so that a network
#: whose output is (nearly) constant on the box — where the sampled
#: maximum already is the true one — has one right answer, VERIFIED.
MIN_MARGIN = 1e-3

#: Query index of the untimed warm-up query (outside every suite).
WARMUP_INDEX = 10**9


@dataclasses.dataclass(frozen=True)
class Shape:
    """How one workload draws its queries."""

    inputs: int
    hidden: Tuple[int, ...]
    #: Queries in the suite.
    size: int
    #: ``False`` puts the threshold above the interval bound, ``True``
    #: inside the gap between the sampled maximum and that bound.
    in_gap: bool
    #: Run the prover with input-region bisection on.
    split: bool = False


@dataclasses.dataclass
class Query:
    index: int
    network: FeedForwardNetwork
    prop: SafetyProperty
    #: Best sampled input and its output (a witness the maximum reaches).
    sample_max: float
    #: Interval-arithmetic upper bound on output 0 over the box.
    interval_upper: float


def forward(network: FeedForwardNetwork, x: np.ndarray) -> np.ndarray:
    """Batch forward pass written against the raw layer parameters."""
    for layer in network.layers:
        x = x @ layer.weights + layer.bias
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        elif layer.activation != "identity":
            raise ValueError(f"unsupported activation {layer.activation!r}")
    return x


def interval_upper(network: FeedForwardNetwork, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Upper interval bound of every output over the box ``[lo, hi]``."""
    for layer in network.layers:
        mid = (lo + hi) / 2.0 @ layer.weights + layer.bias
        rad = (hi - lo) / 2.0 @ np.abs(layer.weights)
        lo, hi = mid - rad, mid + rad
        if layer.activation == "relu":
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return hi


def make_query(seed: int, index: int, shape: Shape) -> Query:
    """Query ``index`` of the suite ``shape``, with the box and threshold
    the run ``seed`` draws for it."""
    network = FeedForwardNetwork.mlp(
        shape.inputs, list(shape.hidden), 1,
        rng=np.random.default_rng([SUITE_SEED, index]),
    )
    rng = np.random.default_rng([seed, index])
    n = shape.inputs
    centre = rng.uniform(-MAX_OFFSET, MAX_OFFSET, n)
    lo, hi = centre - 1.0, centre + 1.0
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    points = np.vstack([rng.uniform(0.0, 1.0, (SAMPLES, n)), corners])
    sample_max = float(forward(network, lo + points * (hi - lo))[:, 0].max())
    upper = float(interval_upper(network, lo, hi)[0])
    gap = max(upper - sample_max, MIN_MARGIN)
    if shape.in_gap:
        threshold = sample_max + max(GAP_FRACTION * gap, MIN_MARGIN)
    else:
        threshold = upper + 0.05 * gap + 1e-3
    prop = SafetyProperty(
        name=f"q{index}_leq",
        region=InputRegion(np.stack([lo, hi], axis=1), name=f"box{index}"),
        objective=OutputObjective.single(0),
        threshold=threshold,
    )
    return Query(index, network, prop, sample_max, upper)
