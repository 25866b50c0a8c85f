"""Trace analysis: phase breakdowns, slow cells, search-tree export.

Consumes the JSONL traces written by :class:`repro.obs.sinks.JsonlSink`
(``repro campaign --trace out.jsonl``, ``repro verify --trace ...``) and
answers the audit questions the raw solver cannot: where did the wall
time go (bounds vs encode vs solve), which cells were slowest, and what
did the branch-and-bound tree actually look like (exportable as JSON or
Graphviz DOT).
"""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "PHASES",
    "TraceSummary",
    "build_search_tree",
    "load_trace",
    "render_summary",
    "summarize_trace",
    "tree_to_dot",
    "tree_to_json",
]

#: Phase span names whose durations make up the verification pipeline.
#: ``audit`` is the campaign's static pre-solve lint; ``static`` the
#: symbolic proof attempt that may settle a decision query MILP-free;
#: ``split`` the input-region bisection planner that prescreens and
#: prunes sub-regions before any MILP is built.
PHASES = ("audit", "bounds", "static", "split", "encode", "solve")

#: The name of a network encoding's phase column: ``d_<layer>_<index>``.
_PHASE_COLUMN = re.compile(r"d_(\d+)_(\d+)")


def _as_record(value: Any) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise TypeError("trace records are JSON objects")
    return value


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file (blank/corrupt lines are skipped).

    Truncated traces are a fact of life — a killed campaign leaves a
    torn final line, and a torn line can even parse as valid non-dict
    JSON (``3``), which would poison every ``record.get`` downstream.
    Anything that is not a JSON object is therefore dropped here, with
    one warning naming the count, and the summary proceeds on whatever
    survived.
    """
    from repro.obs.logconfig import get_logger
    from repro.obs.sinks import read_jsonl

    records, skipped = read_jsonl(path, _as_record)
    if skipped:
        get_logger("obs.summarize").warning(
            "%s: skipped %d corrupt/truncated line(s); "
            "summary is partial", path, skipped,
        )
    return records


@dataclasses.dataclass
class TraceSummary:
    """Aggregated view of one trace."""

    runs: List[str]
    num_spans: int
    num_events: int
    #: Wall/CPU seconds per phase span name (summed over the trace).
    phase_wall: Dict[str, float]
    phase_cpu: Dict[str, float]
    #: Summed wall time of root spans — the serial-equivalent total.
    total_wall: float
    #: ``(label, wall_seconds, verdict)`` rows, slowest first.
    slowest_cells: List[Tuple[str, float, str]]
    #: Branch-and-bound node events seen in the trace.
    num_nodes: int
    #: Region-bisection frontier: how many ``split`` events bisected a
    #: box, pruned a sub-region statically, or handed one to the MILP
    #: (``milp`` + ``degenerate`` actions).
    split_bisections: int = 0
    split_pruned: int = 0
    split_milp: int = 0
    #: Seconds the searches spent inside HiGHS's node LPs (the
    #: ``lp_seconds`` of every ``search_done`` event): what is left of
    #: the ``solve`` phase is model setup and search bookkeeping.
    lp_seconds: float = 0.0
    #: Branch-and-bound branchings per network layer (hidden layer index
    #: -> count): each searched parent node whose ``node`` events name a
    #: ``d_<layer>_<index>`` phase column counts once.
    branchings_per_layer: Dict[int, int] = dataclasses.field(
        default_factory=dict
    )

    @property
    def phase_coverage(self) -> float:
        """Fraction of the root wall time the phase spans account for."""
        if self.total_wall <= 0.0:
            return 0.0
        return sum(self.phase_wall.values()) / self.total_wall


def _spans(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("type") == "span"]


def _cell_label(span: Dict[str, Any]) -> str:
    attrs = span.get("attrs", {})
    network = attrs.get("network", "")
    query = attrs.get("query", attrs.get("objective", ""))
    if network or query:
        return f"({network}, {query})".replace("(, ", "(")
    return span.get("name", "span")


def _branchings_per_layer(
    events: Iterable[Dict[str, Any]],
) -> Dict[int, int]:
    """Count branchings by the network layer of the branched neuron.

    A branching shows as the ``node`` events of its children, which
    share the parent id and name the phase column; one searched child is
    enough to count it.
    """
    seen = set()
    counts: Dict[int, int] = {}
    for event in events:
        attrs = event.get("attrs")
        if event.get("name") != "node" or not isinstance(attrs, dict):
            continue
        match = _PHASE_COLUMN.fullmatch(str(attrs.get("branch", "")))
        if match is None:
            continue
        key = (event.get("span"), attrs.get("parent"))
        if key in seen:
            continue
        seen.add(key)
        layer = int(match.group(1))
        counts[layer] = counts.get(layer, 0) + 1
    return dict(sorted(counts.items()))


def summarize_trace(
    records: Iterable[Dict[str, Any]], top: int = 5
) -> TraceSummary:
    """Fold raw records into a :class:`TraceSummary`.

    Roots (spans without a parent) define the total: in a campaign trace
    they are the per-cell spans plus the shared bound prefetches; in a
    plain ``verify`` trace the per-component query spans.
    """
    records = list(records)
    spans = _spans(records)
    events = [r for r in records if r.get("type") == "event"]
    phase_wall = {name: 0.0 for name in PHASES}
    phase_cpu = {name: 0.0 for name in PHASES}
    total_wall = 0.0
    cells: List[Tuple[str, float, str]] = []
    runs: List[str] = []
    for span in spans:
        run = span.get("run", "")
        if run and run not in runs:
            runs.append(run)
        name = span.get("name", "")
        if name in phase_wall:
            phase_wall[name] += span.get("wall", 0.0)
            phase_cpu[name] += span.get("cpu", 0.0)
        if span.get("parent") is None:
            total_wall += span.get("wall", 0.0)
        if name in ("cell", "query") and span.get("parent") is None:
            cells.append((
                _cell_label(span),
                span.get("wall", 0.0),
                span.get("attrs", {}).get("verdict", "?"),
            ))
    cells.sort(key=lambda item: item[1], reverse=True)
    split_actions = [
        e.get("attrs", {}).get("action", "")
        for e in events
        if e.get("name") == "split"
        and isinstance(e.get("attrs"), dict)
    ]
    return TraceSummary(
        runs=runs,
        num_spans=len(spans),
        num_events=len(events),
        phase_wall=phase_wall,
        phase_cpu=phase_cpu,
        total_wall=total_wall,
        slowest_cells=cells[:top],
        num_nodes=sum(1 for e in events if e.get("name") == "node"),
        split_bisections=split_actions.count("bisect"),
        split_pruned=split_actions.count("prune"),
        split_milp=(
            split_actions.count("milp")
            + split_actions.count("degenerate")
        ),
        lp_seconds=sum(
            float(e["attrs"].get("lp_seconds", 0.0))
            for e in events
            if e.get("name") == "search_done"
            and isinstance(e.get("attrs"), dict)
        ),
        branchings_per_layer=_branchings_per_layer(events),
    )


def render_summary(summary: TraceSummary) -> str:
    """The per-phase breakdown plus top-k slowest cells, as text."""
    # Imported here so ``repro.obs`` stays a leaf package (report pulls
    # in the verifier, which pulls in the solver, which uses obs).
    from repro.report.tables import render_generic

    lines = [
        f"trace: run {', '.join(summary.runs) or '?'} — "
        f"{summary.num_spans} spans, {summary.num_events} events "
        f"({summary.num_nodes} B&B nodes)",
    ]
    if summary.num_spans == 0 and summary.num_events == 0:
        lines.append(
            "warning: trace contains no readable records — the file is "
            "empty, truncated, or not a trace; nothing to break down"
        )
        return "\n\n".join(lines)
    rows = []
    for name in PHASES:
        wall = summary.phase_wall.get(name, 0.0)
        share = wall / summary.total_wall if summary.total_wall else 0.0
        rows.append([
            name,
            f"{wall:.3f}s",
            f"{summary.phase_cpu.get(name, 0.0):.3f}s",
            f"{share:.0%}",
        ])
    other = summary.total_wall - sum(summary.phase_wall.values())
    rows.append([
        "(other)",
        f"{max(other, 0.0):.3f}s",
        "-",
        f"{max(other, 0.0) / summary.total_wall:.0%}"
        if summary.total_wall else "0%",
    ])
    lines.append(render_generic(
        ["phase", "wall", "cpu", "share"], rows,
        title="per-phase time breakdown",
    ))
    lines.append(
        f"total {summary.total_wall:.3f}s serial-equivalent; phases cover "
        f"{summary.phase_coverage:.0%}"
    )
    solve = summary.phase_wall.get("solve", 0.0)
    if solve > 0.0:
        lines.append(
            f"solve: node LPs {summary.lp_seconds:.3f}s of {solve:.3f}s "
            f"(LP share {summary.lp_seconds / solve:.0%}); the rest is "
            f"model setup and search bookkeeping"
        )
    if summary.branchings_per_layer:
        lines.append("branchings per layer: " + ", ".join(
            f"layer {layer} {count}"
            for layer, count in summary.branchings_per_layer.items()
        ))
    if summary.split_bisections or summary.split_pruned or summary.split_milp:
        lines.append(
            f"region bisection: {summary.split_bisections} bisection(s) "
            f"-> {summary.split_pruned} sub-region(s) pruned statically, "
            f"{summary.split_milp} handed to the MILP"
        )
    if summary.slowest_cells:
        cell_rows = [
            [label, f"{wall:.3f}s", verdict]
            for label, wall, verdict in summary.slowest_cells
        ]
        lines.append(render_generic(
            ["cell", "wall", "verdict"], cell_rows,
            title=f"top {len(cell_rows)} slowest cells",
        ))
    return "\n\n".join(lines)


# -- search-tree reconstruction -----------------------------------------------
def build_search_tree(
    records: Iterable[Dict[str, Any]],
    cell: Optional[str] = None,
) -> Dict[str, Any]:
    """Rebuild the branch-and-bound forest from ``node`` events.

    Node ids are namespaced by the enclosing (solve) span so several
    searches in one trace stay disjoint trees.  ``cell`` filters to the
    node events whose span id carries that cell's id prefix (campaign
    workers prefix span ids with ``c<index>.``).
    """
    nodes = []
    edges = []
    for record in records:
        if record.get("type") != "event" or record.get("name") != "node":
            continue
        span = str(record.get("span") or "")
        if cell is not None and not span.startswith(cell):
            continue
        attrs = record.get("attrs", {})
        if not isinstance(attrs, dict):
            continue  # torn line that still parsed as a node event
        node_id = f"{span}/{attrs.get('node', 0)}"
        nodes.append({
            "id": node_id,
            "span": span,
            "node": attrs.get("node", 0),
            "depth": attrs.get("depth", 0),
            "branch_var": attrs.get("branch_var", -1),
            "branch_dir": attrs.get("branch_dir", 0),
            "lp_iterations": attrs.get("lp_iterations", 0),
            "bound": attrs.get("bound"),
            "status": attrs.get("status", ""),
        })
        parent = attrs.get("parent", -1)
        if not isinstance(parent, (int, float)) or isinstance(parent, bool):
            parent = None  # corrupt attr — keep the node, drop the edge
        if parent is not None and parent >= 0:
            edges.append({
                "from": f"{span}/{parent}",
                "to": node_id,
                "branch_var": attrs.get("branch_var", -1),
                "branch": attrs.get("branch", ""),
                "branch_dir": attrs.get("branch_dir", 0),
            })
    return {"nodes": nodes, "edges": edges}


def tree_to_json(tree: Dict[str, Any]) -> str:
    """Pretty-printed JSON rendering of a search tree."""
    return json.dumps(tree, indent=2)


def tree_to_dot(tree: Dict[str, Any]) -> str:
    """The search tree as a Graphviz digraph.

    Nodes whose LP solved to optimality are filled grey, non-optimal
    (pruned) nodes red-ish; edges are labelled with the branching
    decision that created the child.
    """
    lines = [
        "digraph search_tree {",
        '  node [shape=box, fontsize=9, style=filled];',
    ]
    known = set()
    for node in tree["nodes"]:
        known.add(node["id"])
        bound = node.get("bound")
        bound_text = f"{bound:.4g}" if isinstance(bound, float) else "-"
        if node.get("status") not in ("optimal", ""):
            color = "mistyrose"
        else:
            color = "gray92"
        label = (
            f"n{node['node']} d{node['depth']}\\n"
            f"bound {bound_text}\\n"
            f"{node['lp_iterations']} it"
        )
        lines.append(
            f'  "{node["id"]}" [label="{label}", fillcolor={color}];'
        )
    for edge in tree["edges"]:
        if edge["from"] not in known:
            continue
        direction = "dn" if edge.get("branch_dir", 0) < 0 else "up"
        column = edge.get("branch") or f"x{edge.get('branch_var', -1)}"
        lines.append(
            f'  "{edge["from"]}" -> "{edge["to"]}" '
            f'[label="{column} {direction}", fontsize=8];'
        )
    lines.append("}")
    return "\n".join(lines)
