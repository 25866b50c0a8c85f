"""``repro.analysis`` — static analysis for the verification stack.

Two pillars, both of which run *before* any solver:

* :mod:`repro.analysis.symbolic` — a DeepPoly-style symbolic bound
  propagator: per-neuron linear lower/upper relaxations back-substituted
  towards the input region, concretised at every intermediate layer, so
  the resulting pre-activation bounds are provably no looser than
  interval propagation (and in practice far tighter).  Plugged into the
  bounds pipeline as ``bound_mode="symbolic"``; ``bound_mode="lp"`` now
  seeds its per-neuron LPs from symbolic bounds (interval → symbolic →
  LP).  :func:`symbolic_objective_bounds` bounds a linear output
  functional directly, which is how decision queries get proved with
  ``solver="static"`` and no MILP at all.  Its relaxation slopes come
  from three fixed policies only, so every such bound is one the
  independent checker replays: certified and uncertified queries run
  the same prescreen.

* :mod:`repro.analysis.audit` — a static soundness auditor over trained
  networks, input regions and emitted MILP encodings, producing
  machine-readable diagnostics (stable ``A…`` codes, error/warning
  severities) that campaigns gate on before spending solver time and
  that ``repro audit`` exposes as a CLI.  The same diagnostic machinery
  carries the ``A3xx`` proof-certificate findings emitted by
  :mod:`repro.proof.check`.

Names re-export lazily (PEP 562) so that importing
:mod:`repro.analysis.audit` alone — as the solver-free proof checker
does — never drags the symbolic engine or the MILP stack into the
process.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.analysis.audit import (  # noqa: F401
        AuditReport,
        Diagnostic,
        Severity,
        audit_encoding,
        audit_network,
        audit_region,
    )
    from repro.analysis.symbolic import (  # noqa: F401
        symbolic_bounds,
        symbolic_objective_bounds,
        symbolic_objective_bounds_batch,
    )

_AUDIT_NAMES = frozenset(
    {
        "AuditReport",
        "Diagnostic",
        "Severity",
        "audit_encoding",
        "audit_network",
        "audit_region",
    }
)
_SYMBOLIC_NAMES = frozenset(
    {
        "symbolic_bounds",
        "symbolic_objective_bounds",
        "symbolic_objective_bounds_batch",
    }
)

__all__ = sorted(_AUDIT_NAMES | _SYMBOLIC_NAMES)


def __getattr__(name: str):
    if name in _AUDIT_NAMES:
        module = importlib.import_module("repro.analysis.audit")
    elif name in _SYMBOLIC_NAMES:
        module = importlib.import_module("repro.analysis.symbolic")
    elif name in {"audit", "symbolic", "split"}:
        return importlib.import_module(f"repro.analysis.{name}")
    else:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
