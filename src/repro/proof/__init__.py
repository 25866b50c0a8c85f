"""``repro.proof`` — checkable proof certificates for VERIFIED verdicts.

Two halves with deliberately different import budgets:

* :mod:`repro.proof.check` — the independent checker.  Pure numpy
  arithmetic against :mod:`repro.tolerances`; imports **no solver
  module** (enforced by the test suite), so it can audit the proving
  stack without sharing any code path with it.
* :mod:`repro.proof.emit` — certificate emission inside the prover;
  imports the symbolic engine and (indirectly) the MILP stack.

Names re-export lazily (PEP 562) so ``import repro.proof.check`` never
drags :mod:`repro.proof.emit`'s solver dependencies into the process.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.proof.certificate import (  # noqa: F401
        KIND_MILP,
        KIND_SPLIT,
        KIND_STATIC,
        PROOF_SCHEMA,
        build_certificate,
        load_certificate,
        save_certificate,
    )
    from repro.proof.check import (  # noqa: F401
        check_certificate,
        check_certificate_file,
    )
    from repro.proof.emit import (  # noqa: F401
        assemble_milp_certificate,
        assemble_split_certificate,
        assemble_static_certificate,
        chain_payload,
        fill_leaf_slot,
        record_chain,
    )

_CERTIFICATE_NAMES = frozenset(
    {
        "KIND_MILP",
        "KIND_SPLIT",
        "KIND_STATIC",
        "PROOF_SCHEMA",
        "build_certificate",
        "load_certificate",
        "save_certificate",
    }
)
_CHECK_NAMES = frozenset({"check_certificate", "check_certificate_file"})
_EMIT_NAMES = frozenset(
    {
        "assemble_milp_certificate",
        "assemble_split_certificate",
        "assemble_static_certificate",
        "chain_payload",
        "fill_leaf_slot",
        "record_chain",
    }
)

__all__ = sorted(_CERTIFICATE_NAMES | _CHECK_NAMES | _EMIT_NAMES)


def __getattr__(name: str) -> Any:
    if name in _CERTIFICATE_NAMES:
        module = importlib.import_module("repro.proof.certificate")
    elif name in _CHECK_NAMES:
        module = importlib.import_module("repro.proof.check")
    elif name in _EMIT_NAMES:
        module = importlib.import_module("repro.proof.emit")
    elif name in {"certificate", "check", "emit"}:
        return importlib.import_module(f"repro.proof.{name}")
    else:
        raise AttributeError(
            f"module 'repro.proof' has no attribute {name!r}"
        )
    return getattr(module, name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
