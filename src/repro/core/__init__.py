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

Names re-export lazily (PEP 562), as in :mod:`repro.analysis`: a
process that only proves (``from repro.core.verifier import Verifier``)
loads the verification pipeline and nothing else — not the campaign
runner, the worker pool, attribution, coverage, repair, resilience or
the SAT-based quantized verifier.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.core.attribution import (  # noqa: F401
        deconvnet,
        lrp_epsilon,
        saliency,
        top_features,
    )
    from repro.core.bounds import (  # noqa: F401
        BoundsCache,
        LayerBounds,
        interval_bounds,
        lp_tightened_bounds,
        total_ambiguous,
    )
    from repro.core.campaign import (  # noqa: F401
        CampaignCell,
        CampaignQuery,
        CampaignReport,
        VerificationCampaign,
    )
    from repro.core.certification import (  # noqa: F401
        TABLE_I,
        CertificationCase,
        Evidence,
        Pillar,
        PillarDefinition,
        render_table_i,
        table_i_rows,
    )
    from repro.core.coverage import (  # noqa: F401
        CoverageReport,
        MCDCCensus,
        coverage_argument_table,
        mcdc_census,
        measure_coverage,
    )
    from repro.core.encoder import (  # noqa: F401
        EncodedNetwork,
        EncoderOptions,
        attach_objective,
        attach_violation_constraint,
        compute_bounds,
        encode_network,
    )
    from repro.core.hints import SafetyHint, train_with_hints  # noqa: F401
    from repro.core.monitor import (  # noqa: F401
        Intervention,
        MonitorReport,
        RuntimeMonitor,
    )
    from repro.core.pool import VerdictCache, VerificationPool  # noqa: F401
    from repro.core.properties import (  # noqa: F401
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
    from repro.core.quantized_verifier import (  # noqa: F401
        QuantizedResult,
        QuantizedVerifier,
        QVerdict,
        encode_quantized,
        int_interval_bounds,
        quantize_region,
    )
    from repro.core.repair import (  # noqa: F401
        CounterexampleRepair,
        RepairResult,
        RepairRound,
    )
    from repro.core.resilience import (  # noqa: F401
        ResilienceAnalyzer,
        ResilienceResult,
    )
    from repro.core.traceability import (  # noqa: F401
        GuardCondition,
        NeuronProfile,
        TraceabilityAnalyzer,
        TraceabilityReport,
    )
    from repro.core.verifier import (  # noqa: F401
        TableIIRow,
        Verdict,
        VerificationResult,
        Verifier,
    )

_EXPORTS: Dict[str, List[str]] = {
    "attribution": ["deconvnet", "lrp_epsilon", "saliency", "top_features"],
    "bounds": [
        "BoundsCache",
        "LayerBounds",
        "interval_bounds",
        "lp_tightened_bounds",
        "total_ambiguous",
    ],
    "campaign": [
        "CampaignCell",
        "CampaignQuery",
        "CampaignReport",
        "VerificationCampaign",
    ],
    "certification": [
        "TABLE_I",
        "CertificationCase",
        "Evidence",
        "Pillar",
        "PillarDefinition",
        "render_table_i",
        "table_i_rows",
    ],
    "coverage": [
        "CoverageReport",
        "MCDCCensus",
        "coverage_argument_table",
        "mcdc_census",
        "measure_coverage",
    ],
    "encoder": [
        "EncodedNetwork",
        "EncoderOptions",
        "attach_objective",
        "attach_violation_constraint",
        "compute_bounds",
        "encode_network",
    ],
    "hints": ["SafetyHint", "train_with_hints"],
    "monitor": ["Intervention", "MonitorReport", "RuntimeMonitor"],
    "pool": ["VerdictCache", "VerificationPool"],
    "properties": [
        "InputRegion",
        "LinearInputConstraint",
        "OutputObjective",
        "SafetyProperty",
        "component_lateral_objectives",
        "lateral_velocity_property",
        "rightward_velocity_property",
        "vehicle_on_left_region",
        "vehicle_on_right_region",
    ],
    "quantized_verifier": [
        "QuantizedResult",
        "QuantizedVerifier",
        "QVerdict",
        "encode_quantized",
        "int_interval_bounds",
        "quantize_region",
    ],
    "repair": ["CounterexampleRepair", "RepairResult", "RepairRound"],
    "resilience": ["ResilienceAnalyzer", "ResilienceResult"],
    "traceability": [
        "GuardCondition",
        "NeuronProfile",
        "TraceabilityAnalyzer",
        "TraceabilityReport",
    ],
    "verifier": ["TableIIRow", "Verdict", "VerificationResult", "Verifier"],
}

#: Exported name -> the submodule that defines it.
_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name: str) -> Any:
    if name in _NAME_TO_MODULE:
        module = importlib.import_module(f"repro.core.{_NAME_TO_MODULE[name]}")
        return getattr(module, name)
    if name in _EXPORTS:
        return importlib.import_module(f"repro.core.{name}")
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
