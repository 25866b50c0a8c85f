"""Counters, gauges and histograms behind the worker-pool telemetry.

The campaign worker pool (:mod:`repro.core.pool`) records its job,
respawn and verdict-cache counters and its job-latency histogram into a
:class:`MetricsRegistry`; :meth:`MetricsRegistry.snapshot` flattens it
to a plain ``{name: number}`` dict (picklable, JSON-ready).
:func:`merge_metrics` folds such flat dicts together — the same shape
``VerificationResult.metrics`` carries for the alpha-optimiser and
split-driver counters.

Instruments are plain Python objects with ``__slots__`` so incrementing
one in a hot loop costs an attribute add, nothing more.  Histograms
additionally keep a bounded reservoir sample so snapshots can report
p50/p95/p99 latency quantiles without storing every observation.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QUANTILES",
    "merge_metrics",
    "render_quantiles",
]

#: The quantiles every histogram snapshot reports, as ``(label, q)``.
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)

#: Snapshot suffixes whose values are quantile estimates (merged by
#: count-weighted averaging, never summed).
_QUANTILE_SUFFIXES = tuple(f".{label}" for label, _ in QUANTILES)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` to the count."""
        self.value += amount


class Gauge:
    """Last-write-wins sampled value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the latest sampled value."""
        self.value = float(value)


class Histogram:
    """Streaming count/sum/min/max summary plus quantile estimates.

    Exact aggregates (count, sum, min, max) are folded streaming as
    before; quantiles come from a bounded **reservoir sample**
    (Vitter's algorithm R, ``reservoir_size`` values): every
    observation has an equal chance of being retained, so the sorted
    reservoir is an unbiased order-statistic estimate at O(1) memory.
    The reservoir RNG is seeded from the histogram name, keeping
    snapshots reproducible run-to-run for identical observation
    streams.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "_reservoir", "_rng",
        "_capacity",
    )

    #: Default reservoir size: ±~2% quantile error at p95, 4 KiB/instrument.
    RESERVOIR_SIZE = 512

    def __init__(
        self, name: str, reservoir_size: int = RESERVOIR_SIZE
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._capacity = max(1, reservoir_size)
        self._reservoir: List[float] = []
        self._rng = random.Random(zlib.crc32(name.encode()))

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate from the reservoir sample.

        Exact while the histogram has seen fewer observations than the
        reservoir holds; an unbiased estimate afterwards.  Returns 0.0
        on an empty histogram (matching the other zero defaults).
        """
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[max(0, rank)]

    def quantiles(self) -> Dict[str, float]:
        """The standard snapshot quantiles: ``{"p50": ..., ...}``."""
        if not self._reservoir:
            return {}
        ordered = sorted(self._reservoir)
        n = len(ordered)
        return {
            label: ordered[max(0, min(n - 1, int(q * n)))]
            for label, q in QUANTILES
        }


class MetricsRegistry:
    """Named instruments; get-or-create accessors, flat snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram(name)
            return instrument

    def snapshot(self) -> Dict[str, float]:
        """All instruments flattened to ``{name: number}``.

        Histograms expand to ``name.count`` / ``name.sum`` / ``name.min``
        / ``name.max`` plus the ``name.p50`` / ``name.p95`` / ``name.p99``
        reservoir quantiles, so the snapshot stays a flat scalar mapping.
        """
        out: Dict[str, float] = {}
        for counter in self._counters.values():
            out[counter.name] = counter.value
        for gauge in self._gauges.values():
            out[gauge.name] = gauge.value
        for hist in self._histograms.values():
            if hist.count:
                out[f"{hist.name}.count"] = hist.count
                out[f"{hist.name}.sum"] = hist.total
                out[f"{hist.name}.min"] = hist.min
                out[f"{hist.name}.max"] = hist.max
                for label, value in hist.quantiles().items():
                    out[f"{hist.name}.{label}"] = value
        return out


def render_quantiles(
    values: Sequence[float], unit: str = "s"
) -> str:
    """``p50/p95/p99`` one-liner over raw values (campaign summaries)."""
    hist = Histogram("render")
    for value in values:
        hist.observe(value)
    qs = hist.quantiles()
    if not qs:
        return "p50/p95/p99 -"
    return "p50/p95/p99 " + "/".join(
        f"{qs[label]:.2f}{unit}" for label, _ in QUANTILES
    )


def merge_metrics(
    into: Dict[str, float], *others: Mapping[str, float]
) -> Dict[str, float]:
    """Accumulate metric snapshots in place (and return ``into``).

    Counter-like keys sum; ``*.min`` / ``*.max`` keys take the min/max so
    merged histogram summaries stay truthful.  Quantile keys
    (``*.p50``/``*.p95``/``*.p99``) are **estimates**, not sums: they
    merge by count-weighted average when both sides carry the matching
    ``*.count`` key (the standard cross-shard approximation), falling
    back to the pessimistic max otherwise.
    """
    for other in others:
        # Counts as they stood *before* this merge — quantile weighting
        # must not see a count that was already summed this round.
        into_counts = {
            key: value for key, value in into.items()
            if key.endswith(".count")
        }
        for key, value in other.items():
            if key not in into:
                into[key] = value
            elif key.endswith(".min"):
                into[key] = min(into[key], value)
            elif key.endswith(".max"):
                into[key] = max(into[key], value)
            elif key.endswith(_QUANTILE_SUFFIXES):
                base = key.rsplit(".", 1)[0]
                mine = into_counts.get(f"{base}.count", 0.0)
                theirs = other.get(f"{base}.count", 0.0)
                if mine > 0 and theirs > 0:
                    into[key] = (
                        into[key] * mine + value * theirs
                    ) / (mine + theirs)
                else:
                    into[key] = max(into[key], value)
            else:
                into[key] = into[key] + value
    return into
