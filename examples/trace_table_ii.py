"""Trace a Table II sweep and inspect where the time went.

Runs a small two-network verification campaign with structured tracing
turned on: every cell, query, bounds, encode and solve phase becomes a
span in ``trace_table_ii.jsonl``, and the branch-and-bound solver emits
one event per search node.  The script then does in-process what the
CLI's ``repro trace summarize`` / ``repro trace tree`` do:

* print the per-phase wall-time breakdown and the slowest cells;
* export the search tree of the whole sweep as Graphviz DOT
  (``trace_table_ii.dot`` — render with ``dot -Tpng``).

Equivalent from the command line:

    python -m repro.cli campaign --data data.npz --net a.json \
        --net b.json --trace trace.jsonl --log-level debug
    python -m repro.cli trace summarize trace.jsonl
    python -m repro.cli trace tree trace.jsonl --format dot --out t.dot
"""

import os

from repro import casestudy
from repro.highway import DatasetSpec
from repro.nn.training import TrainingConfig
from repro.obs import JsonlSink, Tracer
from repro.obs.summarize import (
    build_search_tree,
    load_trace,
    render_summary,
    summarize_trace,
    tree_to_dot,
)

TRACE_PATH = "trace_table_ii.jsonl"
DOT_PATH = "trace_table_ii.dot"


def main() -> None:
    config = casestudy.CaseStudyConfig(
        num_components=2,
        dataset=DatasetSpec(episodes=6, steps_per_episode=250, seed=7),
        training=TrainingConfig(
            epochs=50, learning_rate=1e-3, weight_decay=1.0
        ),
    )
    print("preparing data ...")
    study = casestudy.prepare_case_study(config)
    widths = [3, 4]
    print("training the family:",
          ", ".join(f"I4x{w}" for w in widths))
    family = casestudy.train_family(study, widths)

    jobs = int(os.environ.get("REPRO_JOBS", "0"))
    tracer = Tracer([JsonlSink(TRACE_PATH)])
    print(f"verifying with tracing on (jobs={jobs or 'auto'}) ...")
    try:
        rows = casestudy.run_table_ii(
            study,
            family,
            time_limit=120.0,
            jobs=jobs,
            tracer=tracer,
            progress=lambda done, total, cell: print(
                f"  [{done}/{total}] {cell.network_id} · "
                f"{cell.property_name}: {cell.result.verdict.value}"
            ),
        )
    finally:
        tracer.close()
    for row in rows:
        print(f"  {row.architecture}: "
              f"mu_lat <= {row.max_velocity}")

    records = load_trace(TRACE_PATH)
    print(f"\ntrace written to {TRACE_PATH} "
          f"({len(records)} records, run {tracer.run_id})\n")

    # What `repro trace summarize` renders: phase breakdown + hot cells.
    print(render_summary(summarize_trace(records)))

    # What `repro trace tree --format dot` exports: the B&B search
    # forest, one tree per solve span, warm-started nodes highlighted.
    tree = build_search_tree(records)
    with open(DOT_PATH, "w", encoding="utf-8") as handle:
        handle.write(tree_to_dot(tree))
    print(f"\nsearch tree: {len(tree['nodes'])} nodes, "
          f"{len(tree['edges'])} edges -> {DOT_PATH}")


if __name__ == "__main__":
    main()
