"""Trace summarisation and search-tree export tests."""

import json

from repro.obs import RingBufferSink, Tracer
from repro.obs.summarize import (
    build_search_tree,
    load_trace,
    render_summary,
    summarize_trace,
    tree_to_dot,
    tree_to_json,
)


def span_rec(name, wall, parent=None, span_id="1", run="r", **attrs):
    return {
        "type": "span", "name": name, "run": run, "id": span_id,
        "parent": parent, "t_start": 0.0, "t_end": wall, "wall": wall,
        "cpu": wall / 2, "attrs": attrs,
    }


def node_event(span, node, parent, **attrs):
    base = {
        "node": node, "parent": parent, "depth": 0, "branch_var": -1,
        "branch_dir": 0, "lp_iterations": 3, "status": "optimal",
    }
    base.update(attrs)
    return {
        "type": "event", "name": "node", "run": "r", "span": span,
        "t": 0.0, "attrs": base,
    }


def search_done(span, **attrs):
    return {
        "type": "event", "name": "search_done", "run": "r", "span": span,
        "t": 0.0, "attrs": {"status": "optimal", "nodes": 1, **attrs},
    }


class TestSummarize:
    def test_phase_accounting(self):
        records = [
            span_rec("cell", 1.0, span_id="c0.1",
                     network="I4x4", query="q", verdict="max_found"),
            span_rec("bounds", 0.4, parent="c0.1", span_id="c0.2"),
            span_rec("encode", 0.1, parent="c0.1", span_id="c0.3"),
            span_rec("solve", 0.45, parent="c0.1", span_id="c0.4"),
        ]
        summary = summarize_trace(records)
        assert summary.total_wall == 1.0  # roots only
        assert summary.phase_wall["bounds"] == 0.4
        assert summary.phase_wall["solve"] == 0.45
        assert abs(summary.phase_coverage - 0.95) < 1e-9
        assert summary.slowest_cells == [
            ("(I4x4, q)", 1.0, "max_found")
        ]

    def test_top_k_slowest(self):
        records = [
            span_rec("cell", float(i), span_id=f"c{i}.1",
                     network=f"n{i}", query="q", verdict="verified")
            for i in range(8)
        ]
        summary = summarize_trace(records, top=3)
        assert [c[1] for c in summary.slowest_cells] == [7.0, 6.0, 5.0]

    def test_render_mentions_phases_and_coverage(self):
        records = [
            span_rec("query", 2.0, span_id="1", network="n",
                     objective="o", verdict="max_found"),
            span_rec("solve", 1.0, parent="1", span_id="2"),
        ]
        text = render_summary(summarize_trace(records))
        assert "per-phase time breakdown" in text
        assert "bounds" in text and "solve" in text
        assert "50%" in text
        assert "slowest cells" in text

    def test_lp_share_of_solve(self):
        records = [
            span_rec("query", 1.0, span_id="1", network="n",
                     objective="o", verdict="max_found"),
            span_rec("solve", 0.5, parent="1", span_id="2"),
            search_done("2", lp_seconds=0.2),
            search_done("2", lp_seconds=0.1),
        ]
        summary = summarize_trace(records)
        assert abs(summary.lp_seconds - 0.3) < 1e-12
        text = render_summary(summary)
        assert "solve: node LPs 0.300s of 0.500s (LP share 60%)" in text

    def test_no_lp_line_without_solve(self):
        records = [span_rec("query", 1.0, span_id="1")]
        assert "LP share" not in render_summary(summarize_trace(records))

    def test_live_search_reports_its_lp_seconds(self):
        from repro.milp import Model, Sense, VarType, solve_milp

        model = Model("m")
        xs = [
            model.add_var(f"x{i}", vtype=VarType.BINARY) for i in range(8)
        ]
        model.add_constr(sum((i % 3 + 1) * x for i, x in enumerate(xs)) <= 5)
        model.set_objective(
            sum((7 * i % 5 + 1) * x for i, x in enumerate(xs)),
            sense=Sense.MAXIMIZE,
        )
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("solve"):
            solve_milp(model, tracer=tracer)
        summary = summarize_trace(sink.records)
        assert 0.0 < summary.lp_seconds <= summary.phase_wall["solve"]
        assert "LP share" in render_summary(summary)

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.total_wall == 0.0
        assert summary.phase_coverage == 0.0
        render_summary(summary)  # must not divide by zero


class TestBoundProbes:
    def test_sums_lp_bound_spans_only(self):
        records = [
            span_rec("query", 1.0, span_id="1"),
            span_rec("bounds", 0.3, parent="1", span_id="2", mode="lp",
                     probes=12, lp_iterations=50, lp_seconds=0.02),
            span_rec("bounds", 0.2, parent="1", span_id="3", mode="lp",
                     probes=24, lp_iterations=90, lp_seconds=0.05),
            span_rec("bounds", 0.1, parent="1", span_id="4",
                     mode="interval"),
        ]
        summary = summarize_trace(records)
        assert summary.bound_probes == 36
        assert abs(summary.bound_lp_seconds - 0.07) < 1e-12
        assert "bounds: 36 probe LPs, 0.070 s in HiGHS" in (
            render_summary(summary)
        )

    def test_no_line_without_lp_bounds(self):
        records = [
            span_rec("query", 1.0, span_id="1"),
            span_rec("bounds", 0.1, parent="1", span_id="2",
                     mode="interval"),
        ]
        summary = summarize_trace(records)
        assert summary.bound_probes is None
        assert "probe LPs" not in render_summary(summary)

    def test_live_lp_bounds_trace(self):
        """A traced LP-bounded query puts the session's probe counts and
        the unstable ReLUs per hidden layer on its ``bounds`` span."""
        import numpy as np

        from repro.core.encoder import EncoderOptions
        from repro.core.properties import InputRegion, OutputObjective
        from repro.core.verifier import Verifier
        from repro.nn import FeedForwardNetwork

        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng([20180701, 0])
        )
        sink = RingBufferSink()
        Verifier(
            network, EncoderOptions(bound_mode="lp"),
            tracer=Tracer([sink]),
        ).maximize(
            InputRegion(np.array([[-1.0, 1.0]] * 2)),
            OutputObjective.single(0),
        )
        (attrs,) = [
            r["attrs"] for r in sink.records
            if r.get("type") == "span" and r["name"] == "bounds"
        ]
        assert attrs["probes"] == 12
        assert attrs["lp_iterations"] > 0 and attrs["lp_seconds"] > 0.0
        assert len(attrs["unstable"]) == 2
        assert sum(attrs["unstable"]) == attrs["binaries_needed"]
        assert "bounds: 12 probe LPs" in render_summary(
            summarize_trace(sink.records)
        )


class TestBranchingsPerLayer:
    def test_counts_each_branching_once_by_layer(self):
        records = [
            node_event("s", 0, -1),
            # Both children of node 0 name the same branching.
            node_event("s", 1, 0, branch_var=7, branch="d_0_3"),
            node_event("s", 2, 0, branch_var=7, branch="d_0_3"),
            node_event("s", 3, 1, branch_var=9, branch="d_1_0"),
            node_event("s", 4, 2, branch_var=11, branch="d_1_2"),
            # Another search's tree, and a column that is no neuron.
            node_event("t", 1, 0, branch_var=7, branch="d_0_3"),
            node_event("u", 1, 0, branch_var=2, branch="x2"),
        ]
        summary = summarize_trace(records)
        assert summary.branchings_per_layer == {0: 2, 1: 2}
        assert "branchings per layer: layer 0 2, layer 1 2" in (
            render_summary(summary)
        )

    def test_no_line_without_neuron_branchings(self):
        records = [node_event("s", 0, -1), node_event("s", 1, 0, branch="x2")]
        summary = summarize_trace(records)
        assert summary.branchings_per_layer == {}
        assert "branchings per layer" not in render_summary(summary)

    def test_live_verifier_trace(self):
        """A traced network search names each branched neuron, and the
        summary counts one branching per searched parent."""
        import numpy as np

        from repro.core.encoder import EncoderOptions
        from repro.core.properties import InputRegion, OutputObjective
        from repro.core.verifier import Verifier
        from repro.nn import FeedForwardNetwork

        network = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(2)
        )
        sink = RingBufferSink()
        verifier = Verifier(
            network, EncoderOptions(bound_mode="interval"),
            tracer=Tracer([sink]),
        )
        result = verifier.maximize(
            InputRegion(np.array([[-2.0, 2.0]] * 2)),
            OutputObjective.single(0),
        )
        assert result.nodes > 0
        nodes = [
            r["attrs"] for r in sink.records
            if r.get("type") == "event" and r["name"] == "node"
        ]
        children = [attrs for attrs in nodes if attrs["parent"] >= 0]
        assert children
        for attrs in children:
            layer, index = map(int, attrs["branch"][2:].split("_"))
            assert 0 <= layer < 2 and 0 <= index < 6
        summary = summarize_trace(sink.records)
        assert sum(summary.branchings_per_layer.values()) == len(
            {attrs["parent"] for attrs in children}
        )
        assert "branchings per layer: layer 0" in render_summary(summary)

    def test_dot_edges_name_the_neuron(self):
        records = [
            node_event("s", 0, -1),
            node_event("s", 1, 0, branch_var=7, branch="d_0_3",
                       branch_dir=-1),
        ]
        assert "d_0_3 dn" in tree_to_dot(build_search_tree(records))


class TestLoadTrace:
    def test_skips_blank_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "event", "name": "a"}\n\nnot json\n')
        records = load_trace(str(path))
        assert len(records) == 1


class TestSearchTree:
    def test_forest_namespaced_by_span(self):
        records = [
            node_event("c0.4", 0, -1),
            node_event("c0.4", 1, 0, branch_var=3, branch_dir=-1),
            node_event("c1.4", 0, -1),  # other cell: disjoint tree
        ]
        tree = build_search_tree(records)
        assert len(tree["nodes"]) == 3
        assert len(tree["edges"]) == 1
        (edge,) = tree["edges"]
        assert edge["from"] == "c0.4/0"
        assert edge["to"] == "c0.4/1"

    def test_cell_filter(self):
        records = [
            node_event("c0.4", 0, -1),
            node_event("c1.4", 0, -1),
        ]
        tree = build_search_tree(records, cell="c1.")
        assert [n["span"] for n in tree["nodes"]] == ["c1.4"]

    def test_json_round_trip(self):
        tree = build_search_tree([node_event("s", 0, -1)])
        assert json.loads(tree_to_json(tree)) == tree

    def test_dot_output(self):
        records = [
            node_event("s", 0, -1, bound=1.25),
            node_event("s", 1, 0, branch_var=2, branch_dir=1, bound=1.0),
            node_event("s", 2, 0, branch_var=2, branch_dir=-1,
                       status="infeasible"),
        ]
        dot = tree_to_dot(build_search_tree(records))
        assert dot.startswith("digraph search_tree {")
        assert dot.rstrip().endswith("}")
        assert '"s/0" -> "s/1"' in dot
        assert "x2 up" in dot and "x2 dn" in dot
        assert "gray92" in dot      # solved to optimality
        assert "mistyrose" in dot   # pruned/infeasible

    def test_tree_from_live_solver_trace(self):
        """An actual B&B run produces a consistent tree."""
        from repro.milp import (
            Model,
            Sense,
            SolveStatus,
            VarType,
            solve_milp,
        )

        model = Model("m")
        xs = [
            model.add_var(f"x{i}", vtype=VarType.BINARY)
            for i in range(8)
        ]
        model.add_constr(
            sum((i % 3 + 1) * x for i, x in enumerate(xs)) <= 5
        )
        model.set_objective(
            sum((7 * i % 5 + 1) * x for i, x in enumerate(xs)),
            sense=Sense.MAXIMIZE,
        )
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("solve"):
            result = solve_milp(model, tracer=tracer)
        assert result.status is SolveStatus.OPTIMAL
        tree = build_search_tree(sink.records)
        ids = {n["id"] for n in tree["nodes"]}
        assert len(ids) == len(tree["nodes"])  # unique node ids
        # every edge endpoint refers to an emitted node
        for edge in tree["edges"]:
            assert edge["from"] in ids
            assert edge["to"] in ids
        # node events carry the telemetry the DOT export renders
        events = [
            r for r in sink.records
            if r.get("type") == "event" and r["name"] == "node"
        ]
        assert events, "solver emitted no node events"
        for event in events:
            assert event["attrs"]["lp_iterations"] >= 0
        tree_to_dot(tree)  # renders without error


class TestDegradedTraces:
    """Empty/truncated traces must warn and summarise, never traceback."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        records = load_trace(str(path))
        assert records == []
        text = render_summary(summarize_trace(records))
        assert "warning" in text
        assert "0 spans" in text

    def test_truncated_final_line_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps(span_rec("query", 1.0)) + "\n"
            + '{"type": "span", "name": "solv'  # torn mid-write
        )
        records = load_trace(str(path))
        assert len(records) == 1
        summary = summarize_trace(records)
        assert summary.num_spans == 1
        assert "warning" not in render_summary(summary)

    def test_torn_line_parsing_as_non_dict_json_skipped(self, tmp_path):
        # A truncated line can still be *valid* JSON — e.g. a record
        # cut right after a leading number.  It must not reach
        # summarize_trace, where record.get would explode.
        path = tmp_path / "nondict.jsonl"
        path.write_text(
            "3\n[1, 2]\n" + json.dumps(span_rec("query", 1.0)) + "\n"
        )
        records = load_trace(str(path))
        assert records == [span_rec("query", 1.0)]
        render_summary(summarize_trace(records))  # must not raise

    def test_skip_warning_logged(self, tmp_path, caplog, monkeypatch):
        import logging

        # CLI runs set propagate=False on the "repro" root logger
        # (configure_logging); caplog captures at the true root, so
        # restore propagation for the duration of this test.
        monkeypatch.setattr(
            logging.getLogger("repro"), "propagate", True
        )
        path = tmp_path / "torn.jsonl"
        path.write_text('{"bad json\n')
        with caplog.at_level("WARNING", logger="repro.obs.summarize"):
            load_trace(str(path))
        assert any(
            "skipped 1 corrupt" in message
            for message in caplog.messages
        )

    def test_tree_survives_corrupt_node_attrs(self):
        records = [
            node_event("s1.", 0, -1),
            {  # attrs truncated to a scalar
                "type": "event", "name": "node", "run": "r",
                "span": "s1.", "t": 0.0, "attrs": 7,
            },
            node_event("s1.", 1, "oops"),  # non-numeric parent
        ]
        tree = build_search_tree(records)
        ids = [n["id"] for n in tree["nodes"]]
        assert ids == ["s1./0", "s1./1"]
        assert tree["edges"] == []  # corrupt parent -> edge dropped
        tree_to_dot(tree)  # and the exports still render
        tree_to_json(tree)

