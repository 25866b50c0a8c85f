"""Bench: perspective (iii) — training under known safety properties.

Trains the same architecture on the same data with and without the
safety-rule hint, then *formally verifies* both: the hinted network's
proven maximum lateral velocity (left occupied) must not exceed the plain
network's.  A weight sweep exposes the safety/accuracy trade-off.
"""

import numpy as np
import pytest

from repro import casestudy
from repro.core.hints import SafetyHint
from repro.nn.mdn import MDNLoss
from repro.report import render_generic

from conftest import TIME_LIMIT


@pytest.fixture(scope="module")
def hint_networks(study):
    """Plain vs hinted nets, identical data and seed."""
    width = 5
    return {
        weight: casestudy.train_hinted_predictor(
            study, width=width, hint_weight=weight,
            hint_threshold=0.8, seed=0,
        )
        for weight in (0.0, 5.0, 25.0)
    }


@pytest.fixture(scope="module")
def verified_maxima(study, hint_networks):
    region = casestudy.operational_region(study)
    results = {}
    for weight, network in hint_networks.items():
        results[weight] = casestudy.verify_network(
            study, network, time_limit=TIME_LIMIT, region=region
        )
    return results


def _value(row):
    """A Table II row's verified maximum as a table entry."""
    if row.timed_out:
        return "time-out"
    if row.max_velocity is None:
        return "n.a."
    return f"{row.max_velocity:.4f}"


class TestHintExperiment:
    def test_hinted_nets_prove_tighter_bounds(
        self, verified_maxima, study
    ):
        rows = []
        for weight, row in sorted(verified_maxima.items()):
            rows.append(
                [f"{weight:g}", _value(row), f"{row.wall_time:.1f}s"]
            )
        print()
        print(
            render_generic(
                ["hint weight", "verified max lat velocity", "time"],
                rows,
                title="training with hints (perspective iii)",
            )
        )
        done = {
            w: r.max_velocity
            for w, r in verified_maxima.items()
            if r.error is None and not r.timed_out
        }
        if 0.0 not in done or len(done) < 2:
            pytest.skip("verification timed out on this machine")
        strongest = max(w for w in done if w > 0)
        assert done[strongest] <= done[0.0] + 1e-6

    def test_hint_does_not_destroy_fit(self, study, hint_networks):
        """The hinted net must remain a usable predictor.

        Virtual-example hints trade some in-distribution likelihood for
        the verified bound (the classic constrained-learning trade-off);
        the NLL may drift but must stay finite and within a few nats of
        the plain model."""
        loss = MDNLoss(study.config.num_components)
        x, y = study.dataset.x, study.dataset.y
        nll = {
            weight: loss(net.forward(x), y)[0]
            for weight, net in hint_networks.items()
        }
        print(f"\nNLL by hint weight: { {k: round(v, 3) for k, v in nll.items()} }")
        assert all(np.isfinite(v) for v in nll.values())
        assert nll[25.0] < nll[0.0] + 4.0

    def test_empirical_violations_shrink(self, study, hint_networks):
        hint = SafetyHint(
            num_components=study.config.num_components, threshold=0.8
        )
        rates = {
            weight: hint.violation_rate(net, study.dataset.x)
            for weight, net in hint_networks.items()
        }
        assert rates[25.0] <= rates[0.0] + 1e-9


class TestHintBench:
    def test_bench_regenerate_hint_table(
        self, benchmark, verified_maxima, emit
    ):
        """Regenerates the hint-weight vs verified-maximum table."""

        def build_rows():
            rows = []
            for weight, row in sorted(verified_maxima.items()):
                rows.append(
                    [f"{weight:g}", _value(row), f"{row.wall_time:.1f}s"]
                )
            return rows

        rows = benchmark(build_rows)
        emit(
            "\n"
            + render_generic(
                ["hint weight", "verified max lat velocity", "time"],
                rows,
                title="training with hints (perspective iii)",
            )
        )

    def test_bench_hinted_training(self, benchmark, study):
        def train():
            return casestudy.train_hinted_predictor(
                study, width=4, hint_weight=10.0, seed=1
            )

        network = benchmark.pedantic(train, rounds=1, iterations=1)
        assert network.architecture_id == "I4x4"
