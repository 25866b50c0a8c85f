"""Cross-process trace relay: parallel campaigns merge worker traces.

The campaign engine runs each cell in a worker process; workers trace
into a ring buffer and their raw records ride back on the result object,
re-emitted by the parent.  These tests pin the relay's contract:

* a ``jobs=2`` campaign yields the same *set* of cell spans (network,
  query, verdict) as the serial run — including ERROR and TIMEOUT cells;
* within one cell the relayed records keep their original (monotone)
  order after the merge;
* every relayed record carries the parent tracer's run id;
* serial and parallel runs share one execution path, so they produce
  the same span ids, bounds-prefetch (``b<i>.``) spans included.
"""

import numpy as np
import pytest

from repro.core.campaign import VerificationCampaign
from repro.core.encoder import EncoderOptions
from repro.core.properties import (
    InputRegion,
    LinearInputConstraint,
    OutputObjective,
    SafetyProperty,
)
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork
from repro.obs import RingBufferSink, Tracer


def unit_region(dim=4, name="box"):
    return InputRegion(np.array([[-1.0, 1.0]] * dim), name)


def infeasible_region(dim=4):
    """Non-empty box made empty by a linear constraint (-x0 <= -5)."""
    region = unit_region(dim, name="empty")
    region.add_constraint(LinearInputConstraint({0: -1.0}, -5.0))
    return region


def make_net(seed, dim=4):
    return FeedForwardNetwork.mlp(
        dim, [8, 8], 2, rng=np.random.default_rng(seed)
    )


def build_campaign(cell_time_limit=None):
    campaign = VerificationCampaign(
        EncoderOptions(bound_mode="interval"),
        MILPOptions(time_limit=60.0),
        cell_time_limit=cell_time_limit,
    )
    campaign.add_network(make_net(0), "netA")
    campaign.add_network(make_net(1), "netB")
    campaign.add_max_query(
        "max_out0", unit_region(), OutputObjective.single(0)
    )
    campaign.add_property(
        SafetyProperty(
            name="out1_small",
            region=unit_region(),
            objective=OutputObjective.single(1),
            threshold=1000.0,
        )
    )
    return campaign


def run_traced(campaign, jobs):
    sink = RingBufferSink()
    tracer = Tracer([sink])
    report = campaign.run(jobs=jobs, tracer=tracer)
    return report, sink.records, tracer.run_id


def cell_span_set(records):
    return {
        (r["attrs"]["network"], r["attrs"]["query"],
         r["attrs"]["verdict"])
        for r in records
        if r.get("type") == "span" and r["name"] == "cell"
    }


def record_time(record):
    return record["t_end"] if record["type"] == "span" else record["t"]


def cell_prefix(record):
    """The ``c<i>.`` worker prefix of a record's span id (or None)."""
    span_id = (
        record.get("id") if record["type"] == "span"
        else record.get("span")
    )
    if not span_id or not str(span_id).startswith("c"):
        return None
    head = str(span_id).split(".", 1)[0]
    return head if head[1:].isdigit() else None


class TestRelayEquivalence:
    def test_parallel_matches_serial_cell_spans(self):
        _, serial_recs, _ = run_traced(build_campaign(), jobs=1)
        _, parallel_recs, _ = run_traced(build_campaign(), jobs=2)
        serial_cells = cell_span_set(serial_recs)
        parallel_cells = cell_span_set(parallel_recs)
        assert len(serial_cells) == 4
        assert serial_cells == parallel_cells

    def test_verdicts_match_report(self):
        report, records, _ = run_traced(build_campaign(), jobs=2)
        from_spans = cell_span_set(records)
        from_report = {
            (c.network_id, c.property_name, c.result.verdict.value)
            for c in report.cells
        }
        assert from_spans == from_report

    def test_single_run_id_after_merge(self):
        _, records, run_id = run_traced(build_campaign(), jobs=2)
        runs = {r.get("run") for r in records}
        assert runs == {run_id}

    def test_error_cells_traced_in_both_modes(self):
        """An infeasible region gives deterministic ERROR cells whose
        spans survive the relay identically."""
        def campaign():
            c = build_campaign()
            c.add_max_query(
                "max_empty", infeasible_region(), OutputObjective.single(0)
            )
            return c

        _, serial_recs, _ = run_traced(campaign(), jobs=1)
        _, parallel_recs, _ = run_traced(campaign(), jobs=2)
        serial_cells = cell_span_set(serial_recs)
        assert serial_cells == cell_span_set(parallel_recs)
        errored = {c for c in serial_cells if c[2] == "error"}
        assert errored == {
            ("netA", "max_empty", "error"),
            ("netB", "max_empty", "error"),
        }

    def test_timeout_cells_traced_in_both_modes(self):
        """A vanishing cell budget times every cell out, in both modes,
        and the cell spans carry the degraded verdict."""
        _, serial_recs, _ = run_traced(
            build_campaign(cell_time_limit=1e-6), jobs=1
        )
        _, parallel_recs, _ = run_traced(
            build_campaign(cell_time_limit=1e-6), jobs=2
        )
        serial_cells = cell_span_set(serial_recs)
        assert serial_cells == cell_span_set(parallel_recs)
        assert len(serial_cells) == 4
        assert all(v == "timeout" for (_, _, v) in serial_cells)


def span_id_prefix(span_id):
    """The relay namespace of a span id: everything before its counter."""
    head, _, _ = str(span_id).rpartition(".")
    return head


class TestOneExecutionPath:
    def test_serial_and_parallel_span_ids_match(self):
        _, serial_recs, _ = run_traced(build_campaign(), jobs=1)
        _, parallel_recs, _ = run_traced(build_campaign(), jobs=2)

        def pairs(records):
            return {
                (r["name"], span_id_prefix(r["id"]))
                for r in records if r.get("type") == "span"
            }

        serial = pairs(serial_recs)
        assert serial == pairs(parallel_recs)
        assert {name for name, prefix in serial if prefix == "b0"} == {
            "bounds"
        }


class TestRelayOrdering:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_cell_order_is_monotone(self, jobs):
        """Grouped by worker prefix, relayed records keep their
        original emission order (non-decreasing timestamps)."""
        _, records, _ = run_traced(build_campaign(), jobs=jobs)
        by_cell = {}
        for record in records:
            prefix = cell_prefix(record)
            if prefix is not None:
                by_cell.setdefault(prefix, []).append(record)
        assert len(by_cell) == 4  # one group per cell
        for prefix, cell_records in by_cell.items():
            times = [record_time(r) for r in cell_records]
            assert times == sorted(times), prefix

    def test_cell_records_are_contiguous_per_cell(self):
        """The parent relays each cell's block atomically, so a cell's
        records are never interleaved with another cell's."""
        _, records, _ = run_traced(build_campaign(), jobs=2)
        seen_done = set()
        current = None
        for record in records:
            prefix = cell_prefix(record)
            if prefix is None:
                continue
            if prefix != current:
                assert prefix not in seen_done, (
                    f"cell {prefix} records interleaved"
                )
                if current is not None:
                    seen_done.add(current)
                current = prefix

    def test_worker_spans_nest_under_cell(self):
        """Phase spans relayed from a worker keep their parent links."""
        _, records, _ = run_traced(build_campaign(), jobs=2)
        spans = {
            r["id"]: r for r in records if r.get("type") == "span"
        }
        solve_spans = [
            s for s in spans.values() if s["name"] == "solve"
        ]
        assert solve_spans
        for solve in solve_spans:
            query = spans[solve["parent"]]
            assert query["name"] == "query"
            cell = spans[query["parent"]]
            assert cell["name"] == "cell"
            assert cell["parent"] is None
