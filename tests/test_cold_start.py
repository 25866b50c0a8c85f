"""A proving process imports only what proving needs.

The HiGHS bindings are loaded without ``scipy.optimize`` (whose
``__init__`` drags in ``scipy.linalg``, ``scipy.sparse`` and more), and
:mod:`repro.core` re-exports lazily, so the campaign runner and the
worker pool stay out of a process that only proves.  Every check runs
in a clean subprocess so the test session's own imports cannot mask a
violation; they check what is imported, never how long it takes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The imports of a cold ``repro verify --certify`` set-up (the same
#: list ``perfbench/setup_probe.py`` times).
_PROVER_IMPORTS = """
from repro.core.encoder import EncoderOptions
from repro.core.verifier import Verifier
from repro.analysis import split, symbolic
from repro.milp import MILPOptions
from repro.nn.serialization import network_from_dict
from repro.proof import check, emit
"""


def _run(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_prover_imports_skip_scipy_optimize_and_campaign():
    unwanted = (
        "scipy.optimize",
        "scipy.linalg",
        "scipy.sparse",
        "repro.core.campaign",
        "repro.core.pool",
    )
    loaded, highs = _run(
        _PROVER_IMPORTS
        + f"import json; print(json.dumps([sorted(m for m in {unwanted!r} "
        "if m in sys.modules), 'scipy.optimize._highspy._core' in sys.modules]))"
    )
    assert loaded == []
    assert highs is True


def test_prover_imports_skip_trace_summary():
    unwanted = ("repro.obs.summarize",)
    loaded = _run(
        _PROVER_IMPORTS
        + f"import json; print(json.dumps(sorted(m for m in {unwanted!r} "
        "if m in sys.modules)))"
    )
    assert loaded == []


def test_obs_lazy_exports_resolve():
    modules = _run(
        "import json\n"
        "from repro.obs import PHASES\n"
        "import repro.obs as obs\n"
        "print(json.dumps([obs.load_trace.__module__,\n"
        "    sorted(set(obs.__all__) - set(dir(obs)))]))"
    )
    assert modules == ["repro.obs.summarize", []]


def test_import_core_alone_loads_no_submodule():
    loaded = _run(
        "import repro.core, json; print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('repro.core.'))))"
    )
    assert loaded == []


def test_every_core_export_resolves_and_is_listed():
    unresolved, unlisted = _run(
        "import json, repro.core as core\n"
        "unresolved = [n for n in core.__all__ if getattr(core, n, None) is None]\n"
        "unlisted = sorted(set(core.__all__) - set(dir(core)))\n"
        "print(json.dumps([unresolved, unlisted]))"
    )
    assert unresolved == []
    assert unlisted == []


def test_core_submodules_and_from_imports_still_work():
    names = _run(
        "import json\n"
        "from repro.core import bounds, Verifier, VerificationCampaign\n"
        "import repro.core as core\n"
        "print(json.dumps([bounds.__name__, Verifier.__module__,\n"
        "    VerificationCampaign.__module__, core.pool.__name__]))"
    )
    assert names == [
        "repro.core.bounds",
        "repro.core.verifier",
        "repro.core.campaign",
        "repro.core.pool",
    ]


_SCIPY_OPTIMIZE = """
import scipy.optimize
from scipy.optimize._highspy import _core
"""
_BACKEND = """
from repro.milp import scipy_backend
"""


@pytest.mark.parametrize("scipy_first", [True, False], ids=["before", "after"])
def test_scipy_optimize_shares_the_bindings(scipy_first):
    """In either import order ``scipy.optimize`` and the backend hold
    one module object, and SciPy's own HiGHS ``linprog`` still solves."""
    first, second = (
        (_SCIPY_OPTIMIZE, _BACKEND) if scipy_first else (_BACKEND, _SCIPY_OPTIMIZE)
    )
    same, fun = _run(
        first
        + second
        + "import json\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],\n"
        "              bounds=[(0, 5), (0.5, 5)], method='highs')\n"
        "print(json.dumps([scipy_backend._highs is _core, res.fun]))"
    )
    assert same is True
    assert fun == pytest.approx(1.5)
