"""Region-bisection benches: the ``--split`` completeness axis.

Three claims back :mod:`repro.analysis.split` (EXPERIMENTS.md "Region
bisection"), all recorded into ``BENCH_split.json``:

1. **semantic equivalence** — the Table II campaign returns identical
   verdicts and optima with ``--split`` on and off (bisection is a
   solver strategy, never a semantics change);
2. **static pruning** — on ε-box decision queries around sampled
   operational scenes, at least 30 % of the explored sub-regions are
   discharged by the per-sub-region prescreen without any MILP;
3. **throughput** — the I4x10 cold max cell finishes under the
   120 s budget the unsplit row previously needed, or the split
   campaign at ``jobs=2`` beats the serial split run by ≥1.5× on a
   multi-core machine.

Everything is seeded, so the recorded numbers are deterministic at the
reduced scale CI runs.
"""

import math
import os
import time

import numpy as np
import pytest

from repro import casestudy
from repro.analysis.split import RegionBisectionDriver
from repro.analysis.symbolic import symbolic_screen
from repro.core.encoder import EncoderOptions
from repro.core.properties import InputRegion, OutputObjective
from repro.milp import MILPOptions
from repro.nn.mdn import mu_lat_indices
from repro.report import render_generic

from conftest import FULL_SCALE, TABLE_II_WIDTHS, TIME_LIMIT

#: ε-box generator settings for the pruning gate.  Larger boxes than
#: the analysis bench's (0.02/0.03): the weight-decayed family is fully
#: ReLU-stable on those, leaving the prescreen nothing to prune —
#: bisection earns its keep where the relaxation is actually loose.
EPS_SEED = 11
EPS_CENTERS = 4
EPS_FRACTIONS = (0.15, 0.25)

#: Decision-query threshold as a fraction of the gap between the
#: centre response and the root prescreen bound: unprovable on the
#: parent box, provable on most bisected sub-boxes.
THRESHOLD_FRACTION = 0.85

#: The pruning gate: at least this fraction of explored sub-regions
#: must be discharged statically across the ε-box prove queries.
MIN_PRUNED = 0.30

#: Bisection depth used by every bench in this file.
SPLIT_DEPTH = 4

#: The unsplit I4x10 row's historical per-cell budget (gate 3).
COLD_CELL_BUDGET = 120.0


def epsilon_boxes(study):
    """Deterministic ε-box regions around sampled operational scenes."""
    base = casestudy.operational_region(study)
    centers = base.sample(np.random.default_rng(EPS_SEED), EPS_CENTERS)
    span = base.bounds[:, 1] - base.bounds[:, 0]
    regions = []
    for ci, center in enumerate(centers):
        for eps in EPS_FRACTIONS:
            lo = np.maximum(center - eps * span, base.bounds[:, 0])
            hi = np.minimum(center + eps * span, base.bounds[:, 1])
            regions.append(
                InputRegion(
                    np.stack([lo, hi], axis=1),
                    name=f"eps{eps}_c{ci}",
                )
            )
    return regions


class TestSplitEquivalence:
    """Gate 1: identical Table II verdicts/optima, split on vs off."""

    @pytest.fixture(scope="class")
    def reports(self, study, family):
        out = {}
        for label, split in (("off", False), ("on", True)):
            campaign = casestudy.table_ii_campaign(
                study, family, time_limit=TIME_LIMIT,
                split=split, split_depth=SPLIT_DEPTH,
            )
            t0 = time.monotonic()
            out[label] = (
                campaign.run(), time.monotonic() - t0
            )
        return out

    def test_identical_verdicts_and_optima(
        self, reports, bench_record, emit
    ):
        off, off_wall = reports["off"]
        on, on_wall = reports["on"]
        assert len(off.cells) == len(on.cells)
        rows = []
        for a, b in zip(off.cells, on.cells):
            assert a.network_id == b.network_id
            assert a.property_name == b.property_name
            assert a.result.verdict is b.result.verdict, (
                f"{a.network_id}/{a.property_name}: split changed the "
                f"verdict {a.result.verdict} -> {b.result.verdict}"
            )
            if not math.isnan(a.result.value):
                assert b.result.value == pytest.approx(
                    a.result.value, abs=1e-6
                )
            rows.append([
                a.network_id, a.property_name,
                a.result.verdict.value,
                f"{a.result.wall_time:.2f}s",
                f"{b.result.wall_time:.2f}s",
                f"{b.result.split_proofs}/{b.result.split_cells}",
            ])
        emit("\n" + render_generic(
            ["network", "query", "verdict", "unsplit", "split",
             "pruned/shards"],
            rows, title="Table II: split vs unsplit (identical results)",
        ))
        bench_record(
            "split", "table_ii_equivalence",
            widths=list(TABLE_II_WIDTHS), cells=len(off.cells),
            split_depth=SPLIT_DEPTH,
            unsplit_wall=off_wall, split_wall=on_wall,
            split_cells=on.split_cells, split_proofs=on.split_proofs,
        )


class TestStaticPruning:
    """Gate 2: ≥30 % of ε-box sub-regions pruned without a MILP."""

    def test_epsilon_box_prune_rate(self, study, family, bench_record,
                                    emit):
        objective = OutputObjective.single(
            mu_lat_indices(study.config.num_components)[0],
            description="mu_lat[component 0]",
        )
        total_proofs = 0
        total_explored = 0
        rows = []
        for width in TABLE_II_WIDTHS:
            network = family[width]
            driver = RegionBisectionDriver(
                network,
                EncoderOptions(
                    bound_mode="symbolic", split=True,
                    split_depth=SPLIT_DEPTH,
                ),
                MILPOptions(time_limit=TIME_LIMIT),
            )
            proofs = explored = survivors = 0
            for region in epsilon_boxes(study):
                hi = symbolic_screen(
                    network, region, objective.coefficients
                ).objective_upper
                center = objective.value(
                    network.forward(region.center())[0]
                )
                threshold = center + THRESHOLD_FRACTION * (hi - center)
                plan = driver.plan(region, objective, threshold)
                proofs += plan.proofs
                explored += plan.explored
                survivors += len(plan.survivors)
            leaves = proofs + survivors
            fraction = proofs / leaves if leaves else 0.0
            total_proofs += proofs
            total_explored += leaves
            rows.append([
                f"I4x{width}", str(explored), str(proofs),
                str(survivors), f"{fraction:.1%}",
            ])
            bench_record(
                "split", f"epsilon_box_pruning_I4x{width}",
                width=width, seed=EPS_SEED,
                split_depth=SPLIT_DEPTH, explored=explored,
                proofs=proofs, survivors=survivors,
                pruned_fraction=fraction,
            )
        overall = total_proofs / total_explored if total_explored else 0.0
        emit("\n" + render_generic(
            ["network", "explored", "pruned", "to MILP", "pruned %"],
            rows,
            title=f"ε-box static pruning (overall {overall:.1%})",
        ))
        bench_record(
            "split", "epsilon_box_pruning_overall",
            pruned_fraction=overall, gate=MIN_PRUNED,
        )
        if not FULL_SCALE:
            assert overall >= MIN_PRUNED


class TestSplitThroughput:
    """Gate 3: I4x10 cold cell in budget, or ≥1.5× pooled speedup."""

    def test_i4x10_cold_cell_or_pool_speedup(self, study, family,
                                             bench_record, emit):
        width = max(TABLE_II_WIDTHS)
        networks = {width: family[width]}
        walls = {}
        reports = {}
        for label, jobs in (("serial", None), ("jobs2", 2)):
            campaign = casestudy.table_ii_campaign(
                study, networks, time_limit=COLD_CELL_BUDGET,
                split=True, split_depth=SPLIT_DEPTH, jobs=jobs,
            )
            t0 = time.monotonic()
            reports[label] = campaign.run()
            walls[label] = time.monotonic() - t0
        serial = reports["serial"]
        cold_wall = max(
            cell.result.wall_time for cell in serial.cells
        )
        cold_ok = cold_wall < COLD_CELL_BUDGET and not any(
            cell.result.verdict.value == "timeout"
            for cell in serial.cells
        )
        cores = os.cpu_count() or 1
        speedup = (
            walls["serial"] / walls["jobs2"] if walls["jobs2"] else 0.0
        )
        emit(
            f"\nI4x{width} split campaign: cold cell {cold_wall:.1f}s "
            f"(budget {COLD_CELL_BUDGET:.0f}s), serial "
            f"{walls['serial']:.1f}s vs jobs=2 {walls['jobs2']:.1f}s "
            f"({speedup:.2f}x, {cores} cores)"
        )
        bench_record(
            "split", f"throughput_I4x{width}",
            width=width, split_depth=SPLIT_DEPTH,
            cold_cell_wall=cold_wall, cold_cell_budget=COLD_CELL_BUDGET,
            serial_wall=walls["serial"], jobs2_wall=walls["jobs2"],
            speedup=speedup, cores=cores,
        )
        for a, b in zip(serial.cells, reports["jobs2"].cells):
            assert a.result.verdict is b.result.verdict
            if not math.isnan(a.result.value):
                assert b.result.value == pytest.approx(
                    a.result.value, abs=1e-6
                )
        if cores >= 2:
            assert cold_ok or speedup >= 1.5
        else:
            assert cold_ok
