"""Reproduce Table II: verify a family of predictors of growing width.

Trains ``I4xN`` networks on identical data (different seeds) and runs the
paper's max-lateral-velocity query on each, printing a Table II-shaped
report: the verified maximum, the wall time — and, like the paper, the
spread across identically-trained networks ("not all of them can
guarantee the safety property").

The sweep runs as a parallel verification campaign: every
(network, mixture-component) cell fans out over ``REPRO_JOBS`` worker
processes (default: one per CPU) with per-cell fault isolation.

Reduced widths by default so the sweep finishes in a few minutes on a
laptop; pass widths on the command line for larger runs, e.g.

    python examples/table2_verification_sweep.py 4 6 8 10 12
"""

import os
import sys

from repro import casestudy
from repro.core.properties import lateral_velocity_property
from repro.core.verifier import Verifier
from repro.core.encoder import EncoderOptions
from repro.highway import DatasetSpec
from repro.milp import MILPOptions
from repro.nn.training import TrainingConfig
from repro.report import render_table_ii


def main() -> None:
    widths = [int(arg) for arg in sys.argv[1:]] or [4, 6, 8]
    safety_threshold = 3.0

    config = casestudy.CaseStudyConfig(
        num_components=2,
        dataset=DatasetSpec(episodes=6, steps_per_episode=250, seed=7),
        training=TrainingConfig(
            epochs=50, learning_rate=1e-3, weight_decay=1.0
        ),
    )
    print("preparing data ...")
    study = casestudy.prepare_case_study(config)
    print("training the family:",
          ", ".join(f"I4x{w}" for w in widths))
    family = casestudy.train_family(study, widths)

    jobs = int(os.environ.get("REPRO_JOBS", "0"))
    print(f"verifying the family (campaign, jobs={jobs or 'auto'}) ...")
    rows = casestudy.run_table_ii(
        study,
        family,
        time_limit=180.0,
        jobs=jobs,
        progress=lambda done, total, cell: print(
            f"  [{done}/{total}] {cell.network_id} · "
            f"{cell.property_name}: {cell.result.verdict.value} "
            f"({cell.result.wall_time:.1f}s)"
        ),
    )

    # The paper's last row: a decision query on the largest network.
    largest = family[widths[-1]]
    props = lateral_velocity_property(
        study.encoder, config.num_components, threshold=safety_threshold
    )
    verifier = Verifier(
        largest,
        EncoderOptions(bound_mode="lp"),
        MILPOptions(time_limit=180.0),
    )
    import time

    start = time.monotonic()
    verdicts = [verifier.prove(prop).verdict.value for prop in props]
    elapsed = time.monotonic() - start
    proven = all(v == "verified" for v in verdicts)
    decision = (
        f"{largest.architecture_id:>8}  "
        f"{'PROVEN' if proven else 'NOT PROVEN':>20}: lateral velocity "
        f"never larger than {safety_threshold} m/s  {elapsed:10.1f}s"
    )

    print()
    print(render_table_ii(rows, decision_rows=[decision]))
    print()
    values = [
        r.max_velocity
        for r in rows
        if r.max_velocity is not None
    ]
    if len(values) > 1:
        print(
            "note the spread across identically-trained networks "
            f"(min {min(values):.3f}, max {max(values):.3f}) — the "
            "paper's observation that not every trained network can "
            "guarantee the property."
        )


if __name__ == "__main__":
    main()
