"""Core: the paper's contribution — certification methodology + verification.

* :mod:`repro.core.certification` — the Table-I methodology (three
  pillars, evidence, verdicts);
* :mod:`repro.core.properties` / :mod:`repro.core.bounds` /
  :mod:`repro.core.encoder` / :mod:`repro.core.verifier` — safety
  properties and the MILP verification pipeline of Sec. III (Cheng et
  al., ATVA 2017 encoding);
* :mod:`repro.core.traceability` / :mod:`repro.core.attribution` —
  neuron-to-feature understandability and deconvolution-style relevance;
* :mod:`repro.core.coverage` — the MC/DC (in)tractability analysis;
* :mod:`repro.core.hints` — training under known safety properties
  (perspective iii);
* :mod:`repro.core.quantized_verifier` — bit-level verification of
  quantized networks (perspective ii).
"""

from repro.core.attribution import deconvnet, lrp_epsilon, saliency, top_features
from repro.core.bounds import (
    BoundsCache,
    LayerBounds,
    interval_bounds,
    lp_tightened_bounds,
    total_ambiguous,
)
from repro.core.campaign import (
    CampaignCell,
    CampaignQuery,
    CampaignReport,
    VerificationCampaign,
)
from repro.core.certification import (
    TABLE_I,
    CertificationCase,
    Evidence,
    Pillar,
    PillarDefinition,
    render_table_i,
    table_i_rows,
)
from repro.core.coverage import (
    CoverageReport,
    MCDCCensus,
    coverage_argument_table,
    mcdc_census,
    measure_coverage,
)
from repro.core.encoder import (
    EncodedNetwork,
    EncoderOptions,
    attach_objective,
    attach_violation_constraint,
    compute_bounds,
    encode_network,
)
from repro.core.hints import SafetyHint, train_with_hints
from repro.core.monitor import Intervention, MonitorReport, RuntimeMonitor
from repro.core.pool import JobTicket, VerdictCache, VerificationPool
from repro.core.properties import (
    InputRegion,
    LinearInputConstraint,
    OutputObjective,
    SafetyProperty,
    component_lateral_objectives,
    lateral_velocity_property,
    rightward_velocity_property,
    vehicle_on_left_region,
    vehicle_on_right_region,
)
from repro.core.repair import CounterexampleRepair, RepairResult, RepairRound
from repro.core.resilience import ResilienceAnalyzer, ResilienceResult
from repro.core.quantized_verifier import (
    QuantizedResult,
    QuantizedVerifier,
    QVerdict,
    encode_quantized,
    int_interval_bounds,
    quantize_region,
)
from repro.core.traceability import (
    GuardCondition,
    NeuronProfile,
    TraceabilityAnalyzer,
    TraceabilityReport,
)
from repro.core.verifier import (
    TableIIRow,
    VerificationResult,
    Verdict,
    Verifier,
)

__all__ = [
    "CampaignCell",
    "CampaignQuery",
    "CampaignReport",
    "CertificationCase",
    "CoverageReport",
    "EncodedNetwork",
    "EncoderOptions",
    "Evidence",
    "GuardCondition",
    "InputRegion",
    "JobTicket",
    "BoundsCache",
    "LayerBounds",
    "LinearInputConstraint",
    "MCDCCensus",
    "NeuronProfile",
    "OutputObjective",
    "Pillar",
    "PillarDefinition",
    "QuantizedResult",
    "QuantizedVerifier",
    "QVerdict",
    "CounterexampleRepair",
    "RepairResult",
    "RepairRound",
    "ResilienceAnalyzer",
    "ResilienceResult",
    "RuntimeMonitor",
    "MonitorReport",
    "Intervention",
    "SafetyHint",
    "SafetyProperty",
    "TABLE_I",
    "TableIIRow",
    "TraceabilityAnalyzer",
    "TraceabilityReport",
    "VerdictCache",
    "VerificationResult",
    "Verdict",
    "VerificationCampaign",
    "VerificationPool",
    "Verifier",
    "attach_objective",
    "attach_violation_constraint",
    "component_lateral_objectives",
    "compute_bounds",
    "coverage_argument_table",
    "deconvnet",
    "encode_network",
    "encode_quantized",
    "int_interval_bounds",
    "interval_bounds",
    "lateral_velocity_property",
    "lp_tightened_bounds",
    "lrp_epsilon",
    "mcdc_census",
    "measure_coverage",
    "quantize_region",
    "rightward_velocity_property",
    "render_table_i",
    "saliency",
    "table_i_rows",
    "top_features",
    "total_ambiguous",
    "train_with_hints",
    "vehicle_on_left_region",
    "vehicle_on_right_region",
]
