"""End-to-end case-study pipeline (Sec. III of the paper).

One call chain reproduces the whole experiment:

1. generate expert driving data on the simulated highway;
2. validate and sanitize it (Sec. II C — specification validity);
3. train the ``I4xN`` predictor family on the *same* clean data with
   different seeds;
4. verify the lateral-velocity safety property on each network
   (Table II);
5. assemble the three-pillar certification case.

Benchmarks and examples build on these functions instead of re-wiring the
substrates by hand.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.certification import CertificationCase, Pillar
from repro.core.coverage import mcdc_census
from repro.core.encoder import EncoderOptions
from repro.core.properties import InputRegion
from repro.core.traceability import TraceabilityAnalyzer
from repro.core.verifier import TableIIRow, Verdict, Verifier
from repro.data.dataset import DrivingDataset
from repro.data.provenance import ProvenanceLog
from repro.data.sanitize import sanitize
from repro.data.validation import DataValidator
from repro.errors import TrainingError
from repro.highway.features import FeatureEncoder, feature_index
from repro.highway.road import Road
from repro.highway.scenarios import DatasetSpec, generate_expert_dataset
from repro.milp.branch_and_bound import MILPOptions
from repro.nn.mdn import MDNLoss, param_dim
from repro.nn.network import FeedForwardNetwork
from repro.nn.scaler import InputScaler
from repro.nn.training import Trainer, TrainingConfig


@dataclasses.dataclass
class CaseStudyConfig:
    """Scales the whole experiment (paper scale vs laptop scale)."""

    num_components: int = 2
    hidden_layers: int = 4
    dataset: DatasetSpec = dataclasses.field(default_factory=DatasetSpec)
    training: TrainingConfig = dataclasses.field(
        default_factory=lambda: TrainingConfig(
            epochs=60,
            learning_rate=1e-3,
            batch_size=64,
            # Strong decoupled weight decay keeps the provable output
            # range over the operational box physical (see
            # TrainingConfig docs); without it, corner extrapolation
            # dominates every verified maximum.
            weight_decay=1.0,
        )
    )


@dataclasses.dataclass
class CaseStudy:
    """All artifacts shared by the experiments."""

    road: Road
    encoder: FeatureEncoder
    dataset: DrivingDataset
    provenance: ProvenanceLog
    config: CaseStudyConfig


def prepare_case_study(
    config: Optional[CaseStudyConfig] = None,
    road: Optional[Road] = None,
) -> CaseStudy:
    """Steps 1-2: generate, validate and sanitize the expert data."""
    config = config or CaseStudyConfig()
    road = road or Road()
    encoder = FeatureEncoder(road)
    log = ProvenanceLog()

    x, y = generate_expert_dataset(road, config.dataset)
    dataset = DrivingDataset(x, y, source="idm_mobil_expert")
    log.record(
        "generate",
        f"{len(dataset)} expert samples, fingerprint "
        f"{dataset.fingerprint()[:12]}",
    )
    validator = DataValidator.default(encoder)
    result = sanitize(dataset, validator, log)
    return CaseStudy(
        road=road,
        encoder=encoder,
        dataset=result.clean,
        provenance=log,
        config=config,
    )


def study_from_dataset(
    dataset: DrivingDataset,
    config: Optional[CaseStudyConfig] = None,
    road: Optional[Road] = None,
) -> CaseStudy:
    """Rebuild a case study around an existing (already clean) dataset.

    Used by the CLI and by workflows that persist the dataset between
    steps.  The dataset is re-validated; invalid data is rejected.
    """
    from repro.data.sanitize import require_valid

    config = config or CaseStudyConfig()
    road = road or Road()
    encoder = FeatureEncoder(road)
    log = ProvenanceLog()
    require_valid(dataset, DataValidator.default(encoder))
    log.record(
        "import",
        f"{len(dataset)} validated samples, fingerprint "
        f"{dataset.fingerprint()[:12]}",
    )
    return CaseStudy(
        road=road,
        encoder=encoder,
        dataset=dataset,
        provenance=log,
        config=config,
    )


def train_predictor(
    study: CaseStudy,
    width: int,
    seed: int = 0,
) -> FeedForwardNetwork:
    """Step 3: train one ``I{L}x{width}`` mixture-density predictor.

    Training runs on standardised features; the fitted scaler is folded
    back into the first layer so the returned network consumes raw
    physical features (the units the verifier's regions use).
    """
    config = study.config
    if width < 1:
        raise TrainingError("hidden width must be positive")
    rng = np.random.default_rng(seed)
    network = FeedForwardNetwork.mlp(
        input_dim=study.dataset.x.shape[1],
        hidden=[width] * config.hidden_layers,
        output_dim=param_dim(config.num_components),
        rng=rng,
    )
    scaler = InputScaler.fit(study.dataset.x)
    training = dataclasses.replace(config.training, seed=seed)
    Trainer(network, MDNLoss(config.num_components), training).fit(
        scaler.transform(study.dataset.x), study.dataset.y
    )
    return scaler.fold_into(network)


def train_hinted_predictor(
    study: CaseStudy,
    width: int,
    hint_weight: float,
    hint_threshold: float = 1.0,
    seed: int = 0,
    virtual_count: int = 512,
) -> FeedForwardNetwork:
    """Like :func:`train_predictor`, with the safety hint in the loss
    (perspective iii).  ``hint_weight = 0`` reproduces plain training.

    The hint is applied both to the labelled batches and to
    ``virtual_count`` unlabeled scenes sampled from the verification
    region (hints as virtual examples) so the penalty reaches the
    region's corners where verification actually bites.
    """
    from repro.core.hints import SafetyHint, train_with_hints

    config = study.config
    if width < 1:
        raise TrainingError("hidden width must be positive")
    rng = np.random.default_rng(seed)
    network = FeedForwardNetwork.mlp(
        input_dim=study.dataset.x.shape[1],
        hidden=[width] * config.hidden_layers,
        output_dim=param_dim(config.num_components),
        rng=rng,
    )
    scaler = InputScaler.fit(study.dataset.x)
    hint = SafetyHint(
        num_components=config.num_components,
        threshold=hint_threshold,
        scaler=scaler,
    )
    virtual = None
    if hint_weight > 0 and virtual_count > 0:
        region = operational_region(study)
        virtual = scaler.transform(
            region.sample(np.random.default_rng(seed + 99), virtual_count)
        )
    training = dataclasses.replace(config.training, seed=seed)
    train_with_hints(
        network,
        scaler.transform(study.dataset.x),
        study.dataset.y,
        num_components=config.num_components,
        hint=hint,
        hint_weight=hint_weight,
        config=training,
        virtual_samples=virtual,
    )
    return scaler.fold_into(network)


def train_family(
    study: CaseStudy,
    widths: Sequence[int],
    base_seed: int = 0,
) -> Dict[int, FeedForwardNetwork]:
    """Train the whole width family on identical data, differing seeds —
    the paper's "trained a couple of neural networks under the same
    data"."""
    return {
        width: train_predictor(study, width, seed=base_seed + i)
        for i, width in enumerate(widths)
    }


def operational_region(
    study: CaseStudy,
    max_gap: float = 8.0,
    margin: float = 0.05,
    side: str = "left",
) -> InputRegion:
    """The verification region used for Table II.

    The paper verifies over the predictor's *operational input domain*;
    ours is derived from the validated training data: each feature ranges
    over its observed data interval (inflated by ``margin``), intersected
    with the physical sensor box, then the left slot is pinned occupied
    with the gap bounded by ``max_gap``.  Verifying the raw physical box
    instead is possible (pass a region built from
    :func:`vehicle_on_left_region` explicitly) but lets the network
    extrapolate far outside anything it was trained or validated on.
    """
    physical = study.encoder.bounds()
    data = study.dataset.x
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    lo = np.maximum(lo - margin * span, physical[:, 0])
    hi = np.minimum(hi + margin * span, physical[:, 1])
    if side not in ("left", "right"):
        raise TrainingError(f"side must be 'left' or 'right', got {side!r}")
    region = InputRegion(
        np.stack([lo, hi], axis=1),
        name=f"operational_vehicle_on_{side}",
    )
    # Pin the scenario directly: the data ranges for these two features
    # describe mostly-unoccupied scenes, but the region under
    # verification is exactly "slot occupied, truly beside".
    region.bounds[feature_index(f"{side}_present")] = (1.0, 1.0)
    region.bounds[feature_index(f"{side}_gap")] = (0.0, max_gap)
    return region


def _encoder_options(
    bound_mode: str,
    alpha_iters: Optional[int],
    split: bool = False,
    split_depth: Optional[int] = None,
    split_min_width: Optional[float] = None,
    certify: bool = False,
) -> EncoderOptions:
    """Encoder options with the alpha/split/certify overrides applied."""
    options = EncoderOptions(
        bound_mode=bound_mode, split=split, certify=certify
    )
    if alpha_iters is not None:
        options = dataclasses.replace(options, alpha_iters=alpha_iters)
    if split_depth is not None:
        options = dataclasses.replace(options, split_depth=split_depth)
    if split_min_width is not None:
        options = dataclasses.replace(
            options, split_min_width=split_min_width
        )
    return options


def verify_network(
    study: CaseStudy,
    network: FeedForwardNetwork,
    time_limit: float = 120.0,
    max_gap: float = 8.0,
    bound_mode: str = "lp",
    region: Optional[InputRegion] = None,
    jobs: Optional[int] = None,
    tracer=None,
    alpha_iters: Optional[int] = None,
    split: bool = False,
    split_depth: Optional[int] = None,
    split_min_width: Optional[float] = None,
) -> TableIIRow:
    """Step 4: one Table II row — max lateral velocity with left occupied.

    The row is :func:`run_table_ii` over this one network: ``jobs``
    fans the per-component max queries out over a campaign worker pool
    (``None``/``1`` run them in process), and ``tracer`` turns on phase
    spans and solver events either way.  ``alpha_iters`` tunes the
    ``bound_mode="alpha"`` optimiser (``None`` keeps the default).
    ``split`` turns on input-region bisection
    (:mod:`repro.analysis.split`), with ``split_depth`` /
    ``split_min_width`` overriding its limits.
    """
    return run_table_ii(
        study,
        {0: network},
        time_limit=time_limit,
        jobs=jobs,
        bound_mode=bound_mode,
        region=region or operational_region(study, max_gap=max_gap),
        tracer=tracer,
        alpha_iters=alpha_iters,
        split=split,
        split_depth=split_depth,
        split_min_width=split_min_width,
    )[0]


def table_ii_campaign(
    study: CaseStudy,
    networks: Dict[int, FeedForwardNetwork],
    time_limit: float = 120.0,
    bound_mode: str = "lp",
    region: Optional[InputRegion] = None,
    jobs: Optional[int] = None,
    cell_time_limit: Optional[float] = None,
    threshold: Optional[float] = None,
    alpha_iters: Optional[int] = None,
    split: bool = False,
    split_depth: Optional[int] = None,
    split_min_width: Optional[float] = None,
    certify: bool = False,
) -> "VerificationCampaign":
    """Build the Table II sweep as a campaign: one max query per mixture
    component on every network; ``threshold`` adds the decision query
    columns ("never above ``threshold`` m/s").  ``certify`` makes every
    VERIFIED decision cell ship a ``repro-proof/1`` certificate."""
    from repro.core.campaign import VerificationCampaign
    from repro.core.properties import (
        SafetyProperty,
        component_lateral_objectives,
    )

    region = region or operational_region(study)
    campaign = VerificationCampaign(
        _encoder_options(
            bound_mode, alpha_iters, split, split_depth,
            split_min_width, certify,
        ),
        MILPOptions(time_limit=time_limit),
        jobs=jobs,
        cell_time_limit=cell_time_limit,
    )
    for width in sorted(networks):
        campaign.add_network(networks[width])
    objectives = component_lateral_objectives(
        study.config.num_components
    )
    for k, objective in enumerate(objectives):
        campaign.add_max_query(f"mu_lat_comp{k}", region, objective)
        if threshold is not None:
            campaign.add_property(
                SafetyProperty(
                    name=f"leq_{threshold}_comp{k}",
                    region=region,
                    objective=objective,
                    threshold=threshold,
                )
            )
    return campaign


def table_ii_rows(
    study: CaseStudy,
    networks: Dict[int, FeedForwardNetwork],
    report: "CampaignReport",
) -> List[TableIIRow]:
    """Fold a campaign report back into Table II rows (width order).

    Per network, the row aggregates that network's per-component max
    queries: the value is the best component maximum — a sound upper
    bound on the mixture-mean lateral velocity (see
    :mod:`repro.nn.mdn`) — the time is the summed cell time, and
    any timed-out component marks the row timed out.  A component that
    neither solved nor timed out makes the whole row an error with no
    value: the other components' maximum would understate the true one.
    """
    rows = []
    for width in sorted(networks):
        network = networks[width]
        cells = [
            cell for cell in report.cells
            if cell.network_id == network.architecture_id
            and cell.property_name.startswith("mu_lat_comp")
        ]
        failed = [
            cell for cell in cells
            if cell.result.verdict not in (Verdict.MAX_FOUND, Verdict.TIMEOUT)
        ]
        values = [
            cell.result.value
            for cell in cells
            if not np.isnan(cell.result.value)
        ]
        timed_out = any(
            cell.result.verdict is Verdict.TIMEOUT for cell in cells
        )
        rows.append(
            TableIIRow(
                architecture=network.architecture_id,
                max_velocity=(
                    max(values) if values and not failed else None
                ),
                wall_time=sum(c.result.wall_time for c in cells),
                timed_out=timed_out,
                num_binaries=max(
                    (c.result.num_binaries for c in cells), default=0
                ),
                error="; ".join(
                    f"{c.property_name}: {c.result.description}"
                    for c in failed
                ) or None,
            )
        )
    return rows


def run_table_ii(
    study: CaseStudy,
    networks: Dict[int, FeedForwardNetwork],
    time_limit: float = 120.0,
    jobs: Optional[int] = None,
    cell_time_limit: Optional[float] = None,
    bound_mode: str = "lp",
    region: Optional[InputRegion] = None,
    progress: Optional["ProgressHook"] = None,
    tracer=None,
    alpha_iters: Optional[int] = None,
    split: bool = False,
    split_depth: Optional[int] = None,
    split_min_width: Optional[float] = None,
) -> List[TableIIRow]:
    """Step 4 for the whole family, in width order.

    Runs as a verification campaign: bounds are shared per (network,
    region), cells fan out over ``jobs`` workers, and a failing cell
    degrades to an errored row instead of aborting the sweep.
    """
    campaign = table_ii_campaign(
        study,
        networks,
        time_limit=time_limit,
        bound_mode=bound_mode,
        region=region,
        jobs=jobs,
        cell_time_limit=cell_time_limit,
        alpha_iters=alpha_iters,
        split=split,
        split_depth=split_depth,
        split_min_width=split_min_width,
    )
    report = campaign.run(progress=progress, tracer=tracer)
    return table_ii_rows(study, networks, report)


def certify_predictor(
    study: CaseStudy,
    network: FeedForwardNetwork,
    safety_threshold: float = 3.0,
    time_limit: float = 120.0,
    certify: bool = False,
) -> CertificationCase:
    """Step 5: assemble the three-pillar certification case.

    With ``certify``, the decision query "lateral velocity never above
    ``safety_threshold``" is additionally proved per mixture component
    in certificate-emitting mode, and the independently re-checked
    ``repro-proof/1`` witnesses are registered as implementation-
    correctness evidence (see
    :func:`repro.core.certification.add_certificate_evidence`).
    """
    case = CertificationCase(
        f"highway motion predictor {network.architecture_id}"
    )

    # Pillar 1: specification validity — the data was validated.
    validator = DataValidator.default(study.encoder)
    report = validator.validate(study.dataset)
    case.add_evidence(
        Pillar.SPEC_VALIDITY,
        "training-data validation",
        report.passed,
        f"{report.sample_count} samples, "
        f"{report.total_violations} violations "
        f"(fingerprint {report.dataset_fingerprint[:12]})",
        artifact=report,
    )
    case.add_evidence(
        Pillar.SPEC_VALIDITY,
        "provenance chain",
        study.provenance.verify_chain(),
        f"{len(study.provenance.entries)} audited operations",
        artifact=study.provenance,
    )

    # Pillar 2: understandability — neuron-to-feature traceability.
    analyzer = TraceabilityAnalyzer(network)
    trace = analyzer.analyze(study.dataset.x)
    case.add_evidence(
        Pillar.UNDERSTANDABILITY,
        "neuron-to-feature traceability",
        trace.mean_guard_f1 > 0.0,
        f"mean guard F1 {trace.mean_guard_f1:.2f}, "
        f"{100 * trace.traceable_fraction:.0f}% traceable "
        "(partial, cf. paper remark (i))",
        artifact=trace,
    )

    # Pillar 3: correctness — MC/DC is out, formal verification is in.
    # The census is informational evidence (it documents *why* coverage
    # testing is replaced); it never fails the case by itself.
    census = mcdc_census(network)
    case.add_evidence(
        Pillar.CORRECTNESS,
        "MC/DC census (informational)",
        True,
        census.render()
        + (
            "; branch space intractable, coverage testing replaced"
            if not census.tractable
            else "; small net: branch space enumerable, formal analysis "
            "still preferred"
        ),
        artifact=census,
    )
    row = verify_network(study, network, time_limit=time_limit)
    value = row.max_velocity
    verified = (
        row.error is None
        and value is not None
        and not row.timed_out
        and value <= safety_threshold
    )
    if row.error is not None:
        detail = f"verification error: {row.error}"
    elif row.timed_out:
        detail = "time-out"
    elif value is None:
        detail = "unable to find maximum"
    else:
        detail = f"max lateral velocity {value:.4f} in {row.wall_time:.1f}s"
    case.add_evidence(
        Pillar.CORRECTNESS,
        f"formal verification (lat velocity <= {safety_threshold})",
        verified,
        detail,
        artifact=row,
    )
    if certify:
        from repro.core.certification import add_certificate_evidence
        from repro.core.properties import (
            SafetyProperty,
            component_lateral_objectives,
        )

        region = operational_region(study)
        verifier = Verifier(
            network,
            _encoder_options("lp", None, certify=True),
            MILPOptions(time_limit=time_limit),
        )
        certificates = {}
        for k, objective in enumerate(
            component_lateral_objectives(study.config.num_components)
        ):
            result = verifier.prove(SafetyProperty(
                name=f"leq_{safety_threshold}_comp{k}",
                region=region,
                objective=objective,
                threshold=safety_threshold,
            ))
            certificates[f"comp{k}"] = result.certificate
        add_certificate_evidence(
            case, certificates,
            description=f"lat velocity <= {safety_threshold}",
        )
    return case
