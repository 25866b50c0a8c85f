"""Alpha-optimised bound benches: dominance, wall-time, depth probe.

Four claims back ``bound_mode="alpha"`` (EXPERIMENTS.md "Optimised
bound propagation"):

1. on the ε-box suite the alpha bounds never leave *more* ambiguous
   ReLUs than fixed-policy symbolic on any instance, and strictly fewer
   in aggregate at the widest Table II networks (the calibrated gate
   below — measured ~2.5 %; the count is already close to the LP floor
   on these two-hidden-layer networks, see EXPERIMENTS.md);
2. on a deterministic *depth probe* (deeper random networks, where the
   fixed policies leave real slack) the optimiser removes **at least
   15 %** of the total bound width the fixed policies leave behind;
3. switching a Table II campaign from ``symbolic`` to ``alpha`` changes
   nothing about its semantics — identical verdicts and optima — and
   costs at most **1.5×** the symbolic column's wall time;
4. the optimiser's telemetry (iterations, improvement) surfaces in the
   campaign report.

Everything is seeded, so the recorded numbers and the gates are
deterministic at the reduced scale CI runs.
"""

import time

import numpy as np
import pytest

from repro import casestudy
from repro.analysis import alpha_bounds, symbolic_bounds
from repro.core.bounds import total_ambiguous
from repro.core.properties import InputRegion
from repro.nn import FeedForwardNetwork
from repro.report import render_generic

from conftest import TABLE_II_WIDTHS, TIME_LIMIT
from test_bench_analysis import epsilon_boxes

#: Widths the strict-reduction gate applies to (the widest networks,
#: where symbolic leaves the most ambiguous neurons behind).
GATE_WIDTHS = (8, 10)

#: Calibrated gate: aggregate ambiguous-ReLU reduction of alpha over
#: symbolic on the ε-box suite at GATE_WIDTHS.  Honest calibration note:
#: on the two-hidden-layer Table II family the fixed policies already
#: sit near the LP floor, so the count reduction is small (~2.5 %
#: measured) — the head-room claim lives in the depth probe below.
MIN_AMBIGUITY_REDUCTION = 0.02

#: Depth probe: deterministic deeper random networks where the fixed
#: policies leave real slack.  Changing any of these invalidates the
#: measured ~18 % width improvement — keep in sync with EXPERIMENTS.md.
PROBE_SEEDS = (100, 101, 102, 103, 104, 105)
PROBE_HIDDEN = [10, 10, 10, 10]
PROBE_RADIUS = 0.3

#: The headline gate: mean bound-width improvement of the optimiser
#: over fixed-policy symbolic on the depth probe.
MIN_WIDTH_IMPROVEMENT = 0.15

#: Wall-time gate: the full alpha Table II column may cost at most this
#: multiple of the symbolic column.
MAX_WALL_RATIO = 1.5


class TestEpsilonBoxDominance:
    @pytest.fixture(scope="class")
    def counts(self, study, family):
        """Per-width ambiguous counts and timings over the ε-boxes."""
        regions = epsilon_boxes(study)
        out = {}
        for width in TABLE_II_WIDTHS:
            network = family[width]
            n_sym = n_alpha = 0
            t_sym = t_alpha = 0.0
            improvements = []
            per_instance = []
            for region in regions:
                start = time.perf_counter()
                sym = symbolic_bounds(network, region)
                t_sym += time.perf_counter() - start
                start = time.perf_counter()
                alpha = alpha_bounds(network, region)
                t_alpha += time.perf_counter() - start
                a_sym = total_ambiguous(sym, network)
                a_alpha = total_ambiguous(alpha, network)
                n_sym += a_sym
                n_alpha += a_alpha
                improvements.append(alpha.alpha_stats.improvement)
                per_instance.append((region.name, a_sym, a_alpha))
            out[width] = dict(
                symbolic=n_sym, alpha=n_alpha, t_sym=t_sym,
                t_alpha=t_alpha,
                width_improvement=float(np.mean(improvements)),
                per_instance=per_instance,
            )
        return out

    def test_per_instance_dominance(self, counts):
        """Alpha may never report more ambiguous ReLUs than symbolic on
        any single (network, region) instance — that would break the
        documented elementwise-dominance guarantee."""
        for width, row in counts.items():
            for name, a_sym, a_alpha in row["per_instance"]:
                assert a_alpha <= a_sym, (width, name)

    def test_aggregate_reduction_at_gate_widths(self, counts,
                                                bench_record, emit):
        rows = []
        for width in TABLE_II_WIDTHS:
            row = counts[width]
            reduction = (
                1.0 - row["alpha"] / row["symbolic"]
                if row["symbolic"] else 0.0
            )
            rows.append([
                f"I4x{width}", str(row["symbolic"]), str(row["alpha"]),
                f"{reduction:.1%}", f"{row['width_improvement']:.1%}",
            ])
            bench_record(
                "alpha", f"I4x{width}_epsboxes",
                width=width,
                symbolic_ambiguous=row["symbolic"],
                alpha_ambiguous=row["alpha"],
                reduction=reduction,
                width_improvement=row["width_improvement"],
                t_symbolic=row["t_sym"], t_alpha=row["t_alpha"],
            )
        emit("\n" + render_generic(
            ["network", "symbolic", "alpha", "reduction", "width impr"],
            rows, title="ε-box ambiguous ReLUs: alpha vs symbolic",
        ))
        n_sym = sum(counts[w]["symbolic"] for w in GATE_WIDTHS)
        n_alpha = sum(counts[w]["alpha"] for w in GATE_WIDTHS)
        assert n_alpha < n_sym
        assert 1.0 - n_alpha / n_sym >= MIN_AMBIGUITY_REDUCTION


class TestDepthProbe:
    def test_width_improvement_gate(self, bench_record, emit):
        """≥15 % of the fixed-policy bound width optimised away on
        deterministic deeper networks."""
        improvements = []
        for seed in PROBE_SEEDS:
            rng = np.random.default_rng(seed)
            network = FeedForwardNetwork.mlp(
                4, PROBE_HIDDEN, 2, rng=rng
            )
            center = rng.uniform(-0.5, 0.5, size=4)
            region = InputRegion(np.stack(
                [center - PROBE_RADIUS, center + PROBE_RADIUS], axis=1
            ))
            fixed = symbolic_bounds(network, region)
            tight = alpha_bounds(network, region)
            for a, b in zip(fixed, tight):
                assert np.all(b.lower >= a.lower - 1e-9)
                assert np.all(b.upper <= a.upper + 1e-9)
            improvements.append(tight.alpha_stats.improvement)
        mean_improvement = float(np.mean(improvements))
        emit(
            f"\ndepth probe ({len(PROBE_SEEDS)} seeds, hidden "
            f"{PROBE_HIDDEN}): mean width improvement "
            f"{mean_improvement:.1%}"
        )
        bench_record(
            "alpha", "depth_probe",
            seeds=list(PROBE_SEEDS), hidden=list(PROBE_HIDDEN),
            radius=PROBE_RADIUS,
            improvements=[float(v) for v in improvements],
            mean_improvement=mean_improvement,
        )
        assert mean_improvement >= MIN_WIDTH_IMPROVEMENT


class TestTableIIColumn:
    @pytest.fixture(scope="class")
    def columns(self, study, family):
        """The full Table II column under both bound modes."""
        out = {}
        for mode in ("symbolic", "alpha"):
            campaign = casestudy.table_ii_campaign(
                study, family, time_limit=TIME_LIMIT, bound_mode=mode,
            )
            report = campaign.run()
            rows = casestudy.table_ii_rows(study, family, report)
            out[mode] = (report, rows)
        return out

    def test_identical_verdicts_and_optima(self, columns):
        _, sym_rows = columns["symbolic"]
        _, alpha_rows = columns["alpha"]
        for sym, alpha in zip(sym_rows, alpha_rows):
            assert alpha.architecture == sym.architecture
            assert alpha.timed_out == sym.timed_out
            if sym.max_velocity is not None:
                assert alpha.max_velocity == pytest.approx(
                    sym.max_velocity, abs=1e-6
                )

    def test_alpha_never_more_binaries(self, columns):
        _, sym_rows = columns["symbolic"]
        _, alpha_rows = columns["alpha"]
        for sym, alpha in zip(sym_rows, alpha_rows):
            assert alpha.num_binaries <= sym.num_binaries

    def test_wall_time_ratio(self, columns, bench_record, emit):
        _, sym_rows = columns["symbolic"]
        _, alpha_rows = columns["alpha"]
        wall_sym = sum(row.wall_time for row in sym_rows)
        wall_alpha = sum(row.wall_time for row in alpha_rows)
        ratio = wall_alpha / wall_sym if wall_sym else 1.0
        table = [
            [sym.architecture, f"{sym.wall_time:.3f}",
             f"{alpha.wall_time:.3f}"]
            for sym, alpha in zip(sym_rows, alpha_rows)
        ]
        emit("\n" + render_generic(
            ["network", "symbolic s", "alpha s"],
            table,
            title=f"Table II wall time (ratio {ratio:.2f}x)",
        ))
        for sym, alpha in zip(sym_rows, alpha_rows):
            bench_record(
                "alpha", f"table_ii_{sym.architecture}",
                wall_symbolic=sym.wall_time,
                wall_alpha=alpha.wall_time,
                binaries_symbolic=sym.num_binaries,
                binaries_alpha=alpha.num_binaries,
            )
        bench_record(
            "alpha", "table_ii_column",
            wall_symbolic=wall_sym, wall_alpha=wall_alpha, ratio=ratio,
        )
        assert ratio <= MAX_WALL_RATIO

    def test_alpha_telemetry_in_report(self, columns):
        report, _ = columns["alpha"]
        assert report.total_alpha_iters > 0
        assert report.bounds_alpha_improvement >= 0.0
        sym_report, _ = columns["symbolic"]
        assert sym_report.total_alpha_iters == 0


class TestBenchAlpha:
    def test_bench_alpha_bound_pass(self, benchmark, study, family):
        network = family[min(TABLE_II_WIDTHS)]
        region = casestudy.operational_region(study)
        bounds = benchmark(alpha_bounds, network, region)
        assert len(bounds) == len(network.layers)
