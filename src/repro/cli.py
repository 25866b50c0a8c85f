"""Command-line interface: the case-study pipeline as shell commands.

The five pipeline stages map onto subcommands::

    python -m repro.cli table1
    python -m repro.cli generate --episodes 6 --out data.npz
    python -m repro.cli train    --data data.npz --width 10 --out net.json
    python -m repro.cli verify   --data data.npz --net net.json
    python -m repro.cli campaign --data data.npz --net a.json --net b.json --jobs 4
    python -m repro.cli audit    --data data.npz --net net.json --json audit.json
    python -m repro.cli check    certs/*.json
    python -m repro.cli certify  --data data.npz --net net.json
    python -m repro.cli figure1  --data data.npz --net net.json
    python -m repro.cli trace summarize out.jsonl

Every artifact is a plain file (``.npz`` dataset, ``.json`` network,
``.jsonl`` trace), so stages can run on different machines and be pinned
in a certification audit by their fingerprints.

``verify`` and ``campaign`` accept ``--trace PATH`` to record a
structured JSONL trace of the run (phase spans, branch-and-bound node
events, per-cell timings) and ``--log-level`` to tune verbosity; the
``trace`` subcommand analyses such files after the fact.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import casestudy
from repro.core.certification import render_table_i
from repro.core.encoder import BOUND_MODES
from repro.data.dataset import DrivingDataset
from repro.data.provenance import ProvenanceLog
from repro.data.sanitize import sanitize
from repro.data.validation import DataValidator
from repro.highway import (
    DatasetSpec,
    FeatureEncoder,
    HighwaySimulator,
    Road,
    generate_expert_dataset,
    overtaking_scene,
)
from repro.milp.branch_and_bound import MILPOptions
from repro.nn.mdn import mixture_from_raw
from repro.nn.serialization import load_network, save_network
from repro.nn.training import TrainingConfig
from repro.obs.logconfig import configure_logging, get_logger
from repro.report import figure_1, render_table_ii

logger = get_logger("cli")


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    """The dataset, bound and MILP flags every solving command shares."""
    parser.add_argument("--data", required=True)
    parser.add_argument("--components", type=int, default=2)
    parser.add_argument("--time-limit", type=float, default=300.0)
    parser.add_argument("--bound-mode", default="lp", choices=BOUND_MODES)
    parser.add_argument(
        "--alpha-iters", type=int, default=None, metavar="N",
        help="projected-gradient iterations for --bound-mode alpha "
        "(default: engine default)",
    )


def _add_split_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--split", action="store_true",
        help="input-region bisection: when the static prescreen fails, "
        "recursively bisect the input box along the most sensitive "
        "dimension, re-prescreen each sub-region and hand only the "
        "survivors to the MILP",
    )
    parser.add_argument(
        "--split-depth", type=int, default=None, metavar="D",
        help="maximum bisection depth for --split (2**D leaves worst "
        "case; default: engine default)",
    )
    parser.add_argument(
        "--split-min-width", type=float, default=None, metavar="W",
        help="never bisect a dimension narrower than 2*W "
        "(default: engine default)",
    )


def _add_certify_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--certify", action="store_true",
        help="emit a repro-proof/1 certificate with every VERIFIED "
        "decision verdict (the MILP is encoded with the symbolic chain "
        "bounds the checker re-derives and runs the same search as "
        "without --certify; 'repro check' validates the artifacts "
        "independently)",
    )
    parser.add_argument(
        "--cert-out", default=None, metavar="DIR",
        help="with --certify: write each emitted certificate as a JSON "
        "file into DIR",
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a structured JSONL trace of the run to PATH",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="verbosity of the repro.* logging hierarchy",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dependable neural networks for safety-critical "
            "applications (Cheng et al., DATE 2018 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table I methodology matrix")

    gen = sub.add_parser(
        "generate", help="generate + validate + sanitize expert data"
    )
    gen.add_argument("--episodes", type=int, default=6)
    gen.add_argument("--steps", type=int, default=300)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")

    train = sub.add_parser("train", help="train one I4xN predictor")
    train.add_argument("--data", required=True)
    train.add_argument("--width", type=int, default=10)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--epochs", type=int, default=60)
    train.add_argument("--components", type=int, default=2)
    train.add_argument(
        "--hint-weight", type=float, default=0.0,
        help="safety-hint penalty weight (0 = plain training)",
    )
    train.add_argument("--out", required=True, help="output .json path")

    verify = sub.add_parser(
        "verify", help="Table II query: max lateral velocity, left occupied"
    )
    _add_solver_args(verify)
    verify.add_argument("--net", required=True)
    verify.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the per-component queries "
        "(0 = one per CPU, 1 = serial)",
    )
    verify.add_argument(
        "--threshold", type=float, default=None,
        help="also run the decision query 'never above THRESHOLD m/s'",
    )
    _add_split_args(verify)
    _add_certify_args(verify)
    _add_observability_args(verify)

    campaign = sub.add_parser(
        "campaign",
        help="Table II sweep over a family of networks, optionally "
        "fanned out over worker processes",
    )
    _add_solver_args(campaign)
    campaign.add_argument(
        "--net", required=True, action="append",
        help="network .json path (repeatable)",
    )
    campaign.add_argument(
        "--cell-budget", type=float, default=None,
        help="per-cell wall-clock budget in seconds "
        "(overruns become time-out cells)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (0 = one per CPU, 1 = serial)",
    )
    campaign.add_argument(
        "--threshold", type=float, default=None,
        help="add decision-query columns 'never above THRESHOLD m/s'",
    )
    campaign.add_argument(
        "--pool", action="store_true",
        help="run through a VerificationPool (persistent workers + "
        "shared bounds/verdict caches; implied by --cache-dir)",
    )
    campaign.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="durable cache directory: bounds and verdicts spill to "
        "JSONL files there and are reloaded by later runs",
    )
    _add_split_args(campaign)
    _add_certify_args(campaign)
    _add_observability_args(campaign)

    audit = sub.add_parser(
        "audit",
        help="static soundness audit: lint networks (and, with --data, "
        "the verification region and the emitted MILP encoding) without "
        "running any solver; exits 1 on error diagnostics",
    )
    audit.add_argument(
        "--net", required=True, action="append",
        help="network .json path (repeatable)",
    )
    audit.add_argument(
        "--data", default=None,
        help="dataset .npz; also audits the operational region and the "
        "network's MILP encoding over it",
    )
    audit.add_argument("--components", type=int, default=2)
    audit.add_argument(
        "--bound-mode", default="symbolic",
        choices=BOUND_MODES,
        help="bound engine for the audited encoding (encoding audits "
        "check big-M rows against these certified bounds)",
    )
    audit.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable diagnostics to PATH",
    )

    check = sub.add_parser(
        "check",
        help="independent proof-certificate checker: statically replay "
        "repro-proof/1 artifacts with plain matrix arithmetic (no "
        "solver); exits 1 on error diagnostics, warnings alone exit 0",
    )
    check.add_argument(
        "paths", nargs="+", help="certificate JSON paths"
    )
    check.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable diagnostics to PATH",
    )

    certify = sub.add_parser(
        "certify", help="assemble the three-pillar certification case"
    )
    certify.add_argument("--data", required=True)
    certify.add_argument("--net", required=True)
    certify.add_argument("--components", type=int, default=2)
    certify.add_argument("--time-limit", type=float, default=300.0)
    certify.add_argument(
        "--certify", action="store_true",
        help="additionally prove the safety threshold per mixture "
        "component in certificate-emitting mode and register the "
        "independently re-checked repro-proof/1 witnesses as "
        "implementation-correctness evidence",
    )

    figure = sub.add_parser(
        "figure1", help="render the Figure-1 scene + GMM panel"
    )
    figure.add_argument("--data", required=True)
    figure.add_argument("--net", required=True)
    figure.add_argument("--components", type=int, default=2)

    trace = sub.add_parser(
        "trace", help="analyse a JSONL trace written with --trace"
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    summ = trace_sub.add_parser(
        "summarize",
        help="per-phase time breakdown plus the slowest cells",
    )
    summ.add_argument("path", help="JSONL trace file")
    summ.add_argument(
        "--top", type=int, default=5,
        help="how many slowest cells to list",
    )
    tree = trace_sub.add_parser(
        "tree", help="export the branch-and-bound search tree"
    )
    tree.add_argument("path", help="JSONL trace file")
    tree.add_argument(
        "--format", choices=("dot", "json"), default="dot",
        help="Graphviz DOT or plain JSON",
    )
    tree.add_argument(
        "--out", default=None,
        help="write to a file instead of printing",
    )
    tree.add_argument(
        "--cell", default=None, metavar="PREFIX",
        help="restrict to span ids with this prefix (campaign workers "
        "use 'c<index>.')",
    )
    return parser


def _load_study(path: str, components: int) -> casestudy.CaseStudy:
    dataset = DrivingDataset.load(path)
    config = casestudy.CaseStudyConfig(num_components=components)
    return casestudy.study_from_dataset(dataset, config)


def _open_tracer(args: argparse.Namespace):
    """A JSONL-backed tracer when ``--trace`` was given, else ``None``."""
    if not args.trace:
        return None
    from repro.obs import JsonlSink, Tracer

    return Tracer([JsonlSink(args.trace)])


def _cmd_generate(args: argparse.Namespace) -> int:
    road = Road()
    encoder = FeatureEncoder(road)
    log = ProvenanceLog()
    x, y = generate_expert_dataset(
        road,
        DatasetSpec(
            episodes=args.episodes,
            steps_per_episode=args.steps,
            seed=args.seed,
        ),
    )
    dataset = DrivingDataset(x, y, source="idm_mobil_expert")
    log.record("generate", f"{len(dataset)} samples seed={args.seed}")
    result = sanitize(dataset, DataValidator.default(encoder), log)
    result.clean.save(args.out)
    logger.info(result.after.render())
    logger.info(log.render())
    logger.info("wrote %d samples to %s", len(result.clean), args.out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = DrivingDataset.load(args.data)
    config = casestudy.CaseStudyConfig(
        num_components=args.components,
        training=TrainingConfig(epochs=args.epochs, learning_rate=1e-3),
    )
    study = casestudy.study_from_dataset(dataset, config)
    if args.hint_weight > 0:
        network = casestudy.train_hinted_predictor(
            study, args.width, hint_weight=args.hint_weight,
            seed=args.seed,
        )
    else:
        network = casestudy.train_predictor(
            study, args.width, seed=args.seed
        )
    save_network(network, args.out)
    logger.info(
        "trained %s (%d parameters) on %d samples -> %s",
        network.architecture_id, network.num_parameters,
        len(dataset), args.out,
    )
    return 0


def _save_certificates(cert_out, certificates) -> None:
    """Write named certificates into ``cert_out`` (no-op without it).

    ``certificates`` maps artifact stems to ``repro-proof/1`` payloads;
    ``None`` entries (queries that produced no certificate) are
    skipped.
    """
    if not cert_out:
        return
    import os

    from repro.proof.certificate import save_certificate

    os.makedirs(cert_out, exist_ok=True)
    written = 0
    for stem, certificate in sorted(certificates.items()):
        if certificate is None:
            continue
        path = os.path.join(cert_out, f"{stem}.json")
        save_certificate(certificate, path)
        written += 1
    logger.info(
        "%d certificate%s written to %s",
        written, "s" if written != 1 else "", cert_out,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    study = _load_study(args.data, args.components)
    network = load_network(args.net)
    tracer = _open_tracer(args)
    try:
        row = casestudy.verify_network(
            study, network, time_limit=args.time_limit,
            bound_mode=args.bound_mode,
            jobs=args.jobs if args.jobs != 1 else None,
            tracer=tracer,
            alpha_iters=args.alpha_iters,
            split=args.split,
            split_depth=args.split_depth,
            split_min_width=args.split_min_width,
        )
        logger.info(render_table_ii([row]))
        exit_code = 0
        if row.error is not None:
            logger.error("verification failed: %s", row.error)
            exit_code = 1
        if args.threshold is not None:
            from repro.core.properties import (
                SafetyProperty,
                component_lateral_objectives,
            )
            from repro.core.verifier import Verdict, Verifier

            region = casestudy.operational_region(study)
            verifier = Verifier(
                network,
                casestudy._encoder_options(
                    args.bound_mode, args.alpha_iters,
                    args.split, args.split_depth, args.split_min_width,
                    certify=args.certify,
                ),
                MILPOptions(time_limit=args.time_limit),
                tracer=tracer,
            )
            results = [
                verifier.prove(
                    SafetyProperty(
                        name=f"leq_{args.threshold}_comp{k}",
                        region=region,
                        objective=objective,
                        threshold=args.threshold,
                    )
                )
                for k, objective in enumerate(
                    component_lateral_objectives(args.components)
                )
            ]
            proven = all(
                r.verdict is Verdict.VERIFIED for r in results
            )
            logger.info(
                "decision query: lateral velocity <= %s m/s: %s",
                args.threshold, "PROVEN" if proven else "NOT PROVEN",
            )
            if args.certify:
                certified = sum(1 for r in results if r.certified)
                logger.info(
                    "proof certificates: %d/%d decision queries "
                    "certified", certified, len(results),
                )
                _save_certificates(
                    args.cert_out,
                    {
                        f"{network.architecture_id}_leq"
                        f"{args.threshold}_comp{k}": r.certificate
                        for k, r in enumerate(results)
                    },
                )
            if not proven:
                exit_code = 1
    finally:
        if tracer is not None:
            tracer.close()
    if args.trace:
        logger.info("trace written to %s", args.trace)
    return exit_code


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.errors import CertificationError

    study = _load_study(args.data, args.components)
    campaign_nets = {}
    for path in args.net:
        network = load_network(path)
        if network.architecture_id in (
            net.architecture_id for net in campaign_nets.values()
        ):
            raise CertificationError(
                f"{path}: duplicate architecture "
                f"{network.architecture_id}; campaign networks must be "
                "distinguishable"
            )
        campaign_nets[len(campaign_nets)] = network
    campaign = casestudy.table_ii_campaign(
        study,
        campaign_nets,
        time_limit=args.time_limit,
        bound_mode=args.bound_mode,
        jobs=args.jobs,
        cell_time_limit=args.cell_budget,
        threshold=args.threshold,
        alpha_iters=args.alpha_iters,
        split=args.split,
        split_depth=args.split_depth,
        split_min_width=args.split_min_width,
        certify=args.certify,
    )
    n_nets, n_queries = campaign.size
    logger.info(
        "campaign: %d networks x %d queries, jobs=%s",
        n_nets, n_queries, args.jobs,
    )

    def report_progress(done, total, cell):
        logger.info(
            "  [%d/%d] %s · %s: %s (%.1fs)",
            done, total, cell.network_id, cell.property_name,
            cell.result.verdict.value, cell.result.wall_time,
        )

    pool = None
    if args.pool or args.cache_dir:
        from repro.core.pool import VerificationPool

        pool = VerificationPool(
            workers=args.jobs, cache_dir=args.cache_dir
        )

    tracer = _open_tracer(args)
    try:
        report = campaign.run(
            progress=report_progress, tracer=tracer, pool=pool
        )
    finally:
        if tracer is not None:
            tracer.close()
        if pool is not None:
            logger.info(pool.render_stats())
            pool.shutdown()
    logger.info("")
    logger.info(report.render())
    logger.info("")
    logger.info(report.summary())
    rows = casestudy.table_ii_rows(study, campaign_nets, report)
    logger.info("")
    logger.info(render_table_ii(rows))
    if args.certify:
        _save_certificates(
            args.cert_out,
            {
                f"{cell.network_id}__{cell.property_name}":
                cell.result.certificate
                for cell in report.cells
            },
        )
    for cell in report.errors():
        logger.info("")
        logger.info(
            "ERROR cell (%s, %s):", cell.network_id, cell.property_name
        )
        if cell.traceback:
            logger.info(cell.traceback.rstrip())
    if args.trace:
        logger.info("trace written to %s", args.trace)
    return 0 if report.all_passed else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    """Static soundness audit over networks (+ region/encoding).

    Pure inspection — no solver runs.  Exit code 1 when any *error*
    diagnostic is found (warnings alone exit 0), so pipelines can gate
    on artifact soundness before spending verification time.
    """
    import json as _json

    from repro.analysis.audit import (
        AuditReport,
        audit_encoding,
        audit_network,
        audit_region,
    )

    study = (
        _load_study(args.data, args.components) if args.data else None
    )
    report = AuditReport()
    for path in args.net:
        network = load_network(path)
        logger.info(
            "auditing %s (%s)", path, network.architecture_id
        )
        report.extend(audit_network(network))
        if study is not None:
            region = casestudy.operational_region(study)
            report.extend(audit_region(region))
            from repro.core.encoder import EncoderOptions, encode_network

            encoded = encode_network(
                network, region,
                EncoderOptions(bound_mode=args.bound_mode),
            )
            report.extend(audit_encoding(encoded))
    logger.info(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        logger.info("diagnostics written to %s", args.json)
    return 1 if report.has_errors else 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Independently re-check repro-proof/1 certificate artifacts.

    Static replay only — the checker never imports a solver module.
    Exit code 1 when any *error* diagnostic is found; warnings alone
    exit 0, mirroring ``repro audit``.
    """
    import json as _json

    from repro.analysis.audit import AuditReport
    from repro.proof.check import check_certificate_file

    combined = AuditReport()
    for path in args.paths:
        logger.info("checking %s", path)
        report = check_certificate_file(path)
        logger.info(report.render())
        combined.extend(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(combined.to_dict(), fh, indent=2)
            fh.write("\n")
        logger.info("diagnostics written to %s", args.json)
    return 1 if combined.has_errors else 0


def _cmd_certify(args: argparse.Namespace) -> int:
    study = _load_study(args.data, args.components)
    network = load_network(args.net)
    case = casestudy.certify_predictor(
        study, network, time_limit=args.time_limit,
        certify=args.certify,
    )
    logger.info(case.render())
    return 0 if case.passed else 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    study = _load_study(args.data, args.components)
    network = load_network(args.net)
    sim = HighwaySimulator(study.road, overtaking_scene(study.road))
    encoder = FeatureEncoder(study.road)
    for _ in range(30):
        encoder.encode(sim)
        sim.step()
    scene = encoder.encode(sim)
    mixture = mixture_from_raw(network.forward(scene), args.components)
    logger.info(figure_1(sim, mixture))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.summarize import (
        build_search_tree,
        load_trace,
        render_summary,
        summarize_trace,
        tree_to_dot,
        tree_to_json,
    )

    try:
        records = load_trace(args.path)
    except OSError as exc:
        logger.error("cannot read trace %s: %s", args.path, exc)
        return 1
    if args.action == "summarize":
        logger.info(render_summary(summarize_trace(records, top=args.top)))
        return 0
    tree = build_search_tree(records, cell=args.cell)
    text = (
        tree_to_dot(tree) if args.format == "dot" else tree_to_json(tree)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        logger.info(
            "wrote %d nodes / %d edges to %s",
            len(tree["nodes"]), len(tree["edges"]), args.out,
        )
    else:
        logger.info(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand."""
    args = _build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "info"))
    if args.command == "table1":
        logger.info(render_table_i())
        return 0
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "verify": _cmd_verify,
        "campaign": _cmd_campaign,
        "audit": _cmd_audit,
        "check": _cmd_check,
        "certify": _cmd_certify,
        "figure1": _cmd_figure1,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
