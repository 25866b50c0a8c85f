"""Metrics-registry unit tests + result telemetry properties."""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metrics,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = Histogram("lp_iters")
        for v in (4.0, 1.0, 7.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 1.0
        assert h.max == 7.0
        assert h.mean == 4.0

    def test_empty_histogram_mean(self):
        assert Histogram("x").mean == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_is_flat(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("depth").set(2.0)
        reg.histogram("it").observe(5.0)
        reg.histogram("empty")  # untouched: not in the snapshot
        snap = reg.snapshot()
        assert snap == {
            "hits": 3,
            "depth": 2.0,
            "it.count": 1,
            "it.sum": 5.0,
            "it.min": 5.0,
            "it.max": 5.0,
            "it.p50": 5.0,
            "it.p95": 5.0,
            "it.p99": 5.0,
        }


class TestMergeMetrics:
    def test_sums_counters_minmaxes_histograms(self):
        a = {"hits": 2, "it.min": 3.0, "it.max": 9.0}
        b = {"hits": 1, "it.min": 1.0, "it.max": 5.0, "new": 7}
        out = merge_metrics(a, b)
        assert out is a
        assert a == {"hits": 3, "it.min": 1.0, "it.max": 9.0, "new": 7}

    def test_multiple_others(self):
        out = merge_metrics({}, {"n": 1}, {"n": 2}, {"n": 3})
        assert out == {"n": 6}


class TestResultProperties:
    """``VerificationResult``'s telemetry properties read its metrics."""

    def test_properties_read_from_metrics(self):
        from repro.core.verifier import VerificationResult, Verdict

        result = VerificationResult(
            verdict=Verdict.VERIFIED,
            metrics={
                "alpha_iters": 12.0,
                "alpha_improvement": 0.25,
                "split_cells": 3.0,
                "split_proofs": 5.0,
            },
        )
        assert result.alpha_iters == 12
        assert result.alpha_improvement == 0.25
        assert result.split_cells == 3
        assert result.split_proofs == 5

    def test_defaults_without_metrics(self):
        from repro.core.verifier import VerificationResult, Verdict

        result = VerificationResult(verdict=Verdict.MAX_FOUND)
        assert result.alpha_iters == 0
        assert result.split_cells == 0
