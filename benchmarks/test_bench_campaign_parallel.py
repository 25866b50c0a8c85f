"""Bench: serial vs parallel verification-campaign wall time.

The paper's Table II is a campaign — one safety query swept across a
family of ReLU networks.  Its cells are independent, so the campaign
engine fans them out over a process pool (Kuper et al. name parallel
query decomposition as the decisive scalability lever for exactly this
workload).  This bench runs the same ≥ 4-networks x 2-queries matrix
serially and with ``jobs > 1`` and reports the wall-clock ratio.

Two claims are asserted:

1. **equivalence** — the parallel run produces exactly the serial cells
   (same coordinates, same verdicts, same values);
2. **speedup** — on a multi-core machine the parallel wall time beats
   the serial wall time (on a single-core container the ratio is only
   reported: process parallelism cannot beat the clock there).
"""

import os
import time

import numpy as np
import pytest

from repro.core.campaign import VerificationCampaign
from repro.core.encoder import EncoderOptions
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork
from repro.report.tables import render_generic

NUM_NETWORKS = 4
#: Always >= 2 so the pool path is exercised even on one core; the
#: speedup assertion below is still gated on real cores being available.
PARALLEL_JOBS = max(2, min(4, os.cpu_count() or 1))


def unit_region(dim=6):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


def build_campaign() -> VerificationCampaign:
    """4 networks x 2 queries, sized so each cell solves a real MILP."""
    campaign = VerificationCampaign(
        EncoderOptions(bound_mode="interval"),
        MILPOptions(time_limit=120.0),
    )
    for seed in range(NUM_NETWORKS):
        campaign.add_network(
            FeedForwardNetwork.mlp(
                6, [10, 10], 2, rng=np.random.default_rng(seed)
            ),
            f"net{seed}",
        )
    campaign.add_max_query(
        "max_out0", unit_region(), OutputObjective.single(0)
    )
    campaign.add_property(
        SafetyProperty(
            name="out1_leq_m1000",
            region=unit_region(),
            objective=OutputObjective.single(1),
            threshold=-1000.0,
        )
    )
    return campaign


@pytest.fixture(scope="module")
def runs():
    serial_start = time.monotonic()
    serial = build_campaign().run()
    serial_wall = time.monotonic() - serial_start
    parallel_start = time.monotonic()
    parallel = build_campaign().run(jobs=PARALLEL_JOBS)
    parallel_wall = time.monotonic() - parallel_start
    return serial, serial_wall, parallel, parallel_wall


class TestCampaignParallelBench:
    def test_equivalent_cells(self, runs):
        serial, _, parallel, _ = runs
        assert len(serial.cells) == NUM_NETWORKS * 2
        assert [
            (c.network_id, c.property_name, c.result.verdict)
            for c in serial.cells
        ] == [
            (c.network_id, c.property_name, c.result.verdict)
            for c in parallel.cells
        ]
        for s, p in zip(serial.cells, parallel.cells):
            if not np.isnan(s.result.value):
                assert p.result.value == pytest.approx(
                    s.result.value, abs=1e-6
                )

    def test_wall_time_report(self, runs, emit, bench_record):
        serial, serial_wall, parallel, parallel_wall = runs
        ratio = serial_wall / max(parallel_wall, 1e-9)
        bench_record(
            "campaign", "matrix_serial",
            jobs=1, wall_time=serial_wall,
            cell_time=serial.total_cell_time,
            lp_iterations=serial.total_lp_iterations,
        )
        bench_record(
            "campaign", "matrix_parallel",
            jobs=PARALLEL_JOBS, wall_time=parallel_wall,
            cell_time=parallel.total_cell_time,
            lp_iterations=parallel.total_lp_iterations,
            speedup=ratio,
        )
        emit("")
        emit(
            render_generic(
                ["engine", "jobs", "wall time", "cell time"],
                [
                    [
                        "serial", "1",
                        f"{serial_wall:.2f}s",
                        f"{serial.total_cell_time:.2f}s",
                    ],
                    [
                        "parallel", str(PARALLEL_JOBS),
                        f"{parallel_wall:.2f}s",
                        f"{parallel.total_cell_time:.2f}s",
                    ],
                ],
                title="campaign: serial vs parallel",
            )
        )
        emit(f"wall-clock speedup: {ratio:.2f}x")
        emit(parallel.summary())
        if PARALLEL_JOBS > 1 and (os.cpu_count() or 1) > 1:
            # Real cores available: parallel must beat serial.
            assert parallel_wall < serial_wall
        else:
            emit(
                "single-core container: speedup assertion skipped "
                "(equivalence still enforced)"
            )

    def test_fault_isolation_costs_one_cell(self, emit):
        """A poisoned network degrades its own cells, never the matrix."""
        campaign = build_campaign()
        campaign.add_network(
            FeedForwardNetwork.mlp(
                5, [4], 2, rng=np.random.default_rng(99)
            ),
            "poison",  # wrong input dim: bound stage rejects it
        )
        report = campaign.run(jobs=PARALLEL_JOBS)
        errored = {
            (c.network_id, c.property_name)
            for c in report.errors()
        }
        assert errored == {
            ("poison", "max_out0"), ("poison", "out1_leq_m1000")
        }
        healthy = [
            c for c in report.cells if c.network_id != "poison"
        ]
        assert len(healthy) == NUM_NETWORKS * 2
        assert all(
            c.result.verdict is not Verdict.ERROR for c in healthy
        )
        emit("")
        emit(report.render())
