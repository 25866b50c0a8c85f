"""Shared benchmark fixtures.

Benchmarks reproduce the paper's tables and figures at laptop scale by
default; set ``REPRO_FULL=1`` to run the paper-scale sweeps (hours).

The expensive artifacts — the expert dataset and the trained network
family — are built once per session and shared by every bench.

Benchmarks additionally publish machine-readable results: any test can
take the ``bench_record`` fixture and append records grouped by kind;
at session end each kind is written to ``BENCH_<kind>.json`` in the
repository root (``BENCH_campaign.json``, ``BENCH_split.json``, ...).  The
schema is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import casestudy
from repro.highway import DatasetSpec
from repro.nn.training import TrainingConfig

FULL_SCALE = os.environ.get("REPRO_FULL", "0") == "1"

#: Hidden widths of the verified family.  The paper uses
#: {10, 20, 25, 40, 50, 60}; the reduced default keeps the pure-Python
#: MILP solver in benchmark territory while preserving the scaling shape.
TABLE_II_WIDTHS = (
    [10, 20, 25, 40, 50, 60] if FULL_SCALE else [4, 6, 8, 10]
)

#: Per-query wall-clock budget (the paper's I4x60 row timed out too).
TIME_LIMIT = 3600.0 if FULL_SCALE else 60.0


@pytest.fixture(scope="session")
def study() -> casestudy.CaseStudy:
    config = casestudy.CaseStudyConfig(
        num_components=2,
        dataset=DatasetSpec(
            episodes=12 if FULL_SCALE else 8,
            steps_per_episode=400 if FULL_SCALE else 300,
            seed=42,
        ),
        training=TrainingConfig(
            epochs=80 if FULL_SCALE else 60,
            learning_rate=1e-3,
            # Strong decoupled weight decay keeps the networks' provable
            # output ranges physical (see TrainingConfig docs); without
            # it corner extrapolation dominates Table II.
            weight_decay=1.0,
        ),
    )
    return casestudy.prepare_case_study(config)


@pytest.fixture(scope="session")
def family(study):
    """The I4xN family trained on identical data, different seeds."""
    return casestudy.train_family(study, TABLE_II_WIDTHS)


#: Version tag of the emitted benchmark-result files.
BENCH_SCHEMA = "repro-bench/1"

_bench_records: dict = {}


@pytest.fixture()
def bench_record():
    """Append one machine-readable benchmark record.

    ``bench_record(kind, name, **fields)`` — records of one ``kind`` end
    up together in ``BENCH_<kind>.json`` at session end.  ``fields`` are
    free-form JSON scalars (wall times, iteration counts, hit rates).
    """

    def _record(kind: str, name: str, **fields) -> None:
        _bench_records.setdefault(kind, []).append(
            {"name": name, **fields}
        )

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Write every recorded kind to ``BENCH_<kind>.json``."""
    root = str(getattr(session.config, "rootpath", os.getcwd()))
    for kind, records in _bench_records.items():
        payload = {
            "schema": BENCH_SCHEMA,
            "kind": kind,
            "written": time.time(),
            "full_scale": FULL_SCALE,
            "records": records,
        }
        path = os.path.join(root, f"BENCH_{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


@pytest.fixture()
def emit(capsys):
    """Print through pytest's capture so regenerated tables always reach
    the terminal (and the tee'd bench log), also under --benchmark-only."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _emit
