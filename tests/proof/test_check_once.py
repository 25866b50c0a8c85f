"""Every certificate is checked once on the proving path.

The independent checker is the proof's second opinion, and the prover
asks for it exactly once per attached certificate: a static or MILP
proof through ``Verifier._checked``, a split proof as one partition
tree (its shards are not checked on their own first, and the emitter
does not pre-check Farkas rays).  A clean split tree's leaves are
replayed together in a single sweep.  Counting wrappers around the
checker's entry point, its Farkas arithmetic and its sweep pin that
down on the perfbench shapes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoder import EncoderOptions
from repro.core.properties import OutputObjective, SafetyProperty
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions
from repro.milp.scipy_backend import HighsSession
from repro.nn import FeedForwardNetwork
from repro.proof import check
from repro.proof.emit import record_chain

from .conftest import box_region

#: ``(inputs, hidden, rng seed, box half-width, gap fraction, split)``
#: per perfbench shape.  A gap fraction of ``None`` puts the threshold
#: above the chain's upper bound, so the static prescreen proves it;
#: otherwise it sits that fraction of the way from the sampled maximum
#: to the chain's upper bound.  The split net's tree has pruned leaves
#: and one MILP leaf.
SHAPES = {
    "static": (4, (16, 16, 16), 3, 0.5, None, False),
    "milp": (2, (6, 6), 5, 1.0, 0.5, False),
    "split": (2, (4, 4), 0, 1.0, 0.1, True),
}


def _query(name):
    inputs, hidden, seed, half, fraction, split = SHAPES[name]
    network = FeedForwardNetwork.mlp(
        inputs, list(hidden), 1, rng=np.random.default_rng(seed)
    )
    region = box_region(inputs, half)
    upper = float(record_chain(network, region, {0: 1.0}).objective_upper)
    if fraction is None:
        threshold = upper + 1.0
    else:
        samples = np.random.default_rng(0).uniform(
            -half, half, (8192, inputs)
        )
        sampled_max = float(network.forward(samples)[:, 0].max())
        threshold = sampled_max + fraction * (upper - sampled_max)
    verifier = Verifier(
        network,
        EncoderOptions(bound_mode="lp", certify=True, split=split),
        MILPOptions(time_limit=120.0),
    )
    prop = SafetyProperty(
        name=name, region=region, objective=OutputObjective.single(0),
        threshold=threshold,
    )
    return verifier, prop


class _Counts:
    """Counting wrappers around the checker's entry point, its Farkas
    arithmetic and its sweep; ``checked`` keeps every report."""

    def __init__(self, monkeypatch):
        self.calls = {"check_certificate": 0, "_check_farkas": 0, "_sweep": 0}
        self.checked = []
        for name in self.calls:
            monkeypatch.setattr(check, name, self._wrap(name))

    def _wrap(self, name):
        inner = getattr(check, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            out = inner(*args, **kwargs)
            if name == "check_certificate":
                self.checked.append((args[0].get("kind"), out))
            return out

        return counted


def _farkas_leaves(cert):
    if cert["kind"] == "milp":
        return len(cert["leaves"])
    if cert["kind"] != "split":
        return 0
    stack, count = [cert["tree"]], 0
    while stack:
        node = stack.pop()
        if "split_dim" in node:
            stack += [node["low"], node["high"]]
        elif node["kind"] == "milp":
            count += len(node["leaves"])
    return count


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_attached_certificate_is_checked_once(monkeypatch, name):
    verifier, prop = _query(name)
    counts = _Counts(monkeypatch)
    result = verifier.prove(prop)
    assert result.verdict is Verdict.VERIFIED
    cert = result.certificate
    assert cert is not None and cert["kind"] == name
    if name != "static":
        assert _farkas_leaves(cert) > 0
    assert counts.calls == {
        "check_certificate": 1,
        "_check_farkas": _farkas_leaves(cert),
        "_sweep": 1,
    }
    ((kind, report),) = counts.checked
    assert kind == name and not report.has_errors


def test_scrambled_shard_ray_costs_the_certificate_after_one_check(
    monkeypatch,
):
    """A bad shard ray reaches the tree unchecked, and the one tree
    check rejects it: the verdict stands, uncertified."""
    from repro.core import verifier as verifier_module

    solve_milp = verifier_module.solve_milp
    searches = []

    def counted_solve(*args, **kwargs):
        searches.append(None)
        return solve_milp(*args, **kwargs)

    solve = HighsSession.solve

    def scrambling(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        if len(searches) == 1 and result.farkas is not None:
            # The first MILP shard only: flip every ray entry's sign.
            result.farkas = -result.farkas
        return result

    monkeypatch.setattr(verifier_module, "solve_milp", counted_solve)
    monkeypatch.setattr(HighsSession, "solve", scrambling)
    verifier, prop = _query("split")
    counts = _Counts(monkeypatch)
    result = verifier.prove(prop)
    assert searches, "the split proof ran no MILP shard"
    assert result.verdict is Verdict.VERIFIED
    assert result.certificate is None
    assert counts.calls["check_certificate"] == 1
    ((kind, report),) = counts.checked
    assert kind == "split"
    assert "A302" in {d.code for d in report.diagnostics}
