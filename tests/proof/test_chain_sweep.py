"""The checker's stacked chain sweep against the leaf-by-leaf,
entry-by-entry oracles.

``repro.proof.check`` replays a certificate's back-substitution chain in
one backward sweep over every entry's rows at once, and the chains of
every leaf of a split tree in one sweep together.
:mod:`tests.oracles.chain_replay` keeps the chain replay it replaced:
one entry at a time, each relaxation validated on its own, one backward
pass per entry; :mod:`tests.oracles.tree_walk` keeps the tree walk: one
leaf at a time, depth first.  On genuine static, milp and split
certificates, on every single-value perturbation of their claimed
bounds and recorded relaxations, and on structural tampers of split
trees, the two must report the same findings in the same order, and
where a chain is accepted they must replay the same objective interval.
"""

from __future__ import annotations

import copy
import re
from unittest import mock

import numpy as np
import pytest

from repro.analysis.audit import AuditReport
from repro.core.encoder import EncoderOptions
from repro.core.properties import OutputObjective, SafetyProperty
from repro.core.verifier import Verifier
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork
from repro.nn.layers import DenseLayer
from repro.proof import check
from repro.proof.emit import assemble_static_certificate, record_chain

from ..oracles import chain_replay, tree_walk
from .conftest import box_region, prove_certified

#: ``(inputs, hidden, rng seed, box half-width)`` of the perfbench shapes.
SHAPES = {
    "static_4x16x16x16": (4, (16, 16, 16), 3, 0.5),
    "milp_2x6x6": (2, (6, 6), 5, 1.0),
    "split_2x4x4": (2, (4, 4), 3, 1.0),
}

#: Sizes of the single-value perturbations; each is applied, with a
#: seeded sign, to one seeded element of every array.
DELTAS = (0.25, 1e-4)


def _one_layer():
    rng = np.random.default_rng(11)
    return FeedForwardNetwork([
        DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(2),
                   "identity"),
    ])


def _identity_hidden():
    rng = np.random.default_rng(12)
    return FeedForwardNetwork([
        DenseLayer(rng.standard_normal((3, 5)), rng.standard_normal(5),
                   "relu"),
        DenseLayer(rng.standard_normal((5, 4)), rng.standard_normal(4),
                   "identity"),
        DenseLayer(rng.standard_normal((4, 5)), rng.standard_normal(5),
                   "relu"),
        DenseLayer(rng.standard_normal((5, 2)), rng.standard_normal(2),
                   "identity"),
    ])


def _static_certificate(network, region):
    objective = OutputObjective.single(0)
    record = record_chain(network, region, objective.coefficients)
    return assemble_static_certificate(
        network, region, objective, record.objective_upper + 1.0, 0.0,
        "static", record,
    )


def _build_certificates():
    certs = {}
    for name, (inputs, hidden, seed, half) in SHAPES.items():
        network = FeedForwardNetwork.mlp(
            inputs, list(hidden), 1, rng=np.random.default_rng(seed)
        )
        region = box_region(inputs, half)
        samples = np.random.default_rng(0).uniform(
            -half, half, (4096, inputs)
        )
        sampled_max = float(network.forward(samples)[:, 0].max())
        upper = float(
            record_chain(network, region, {0: 1.0}).objective_upper
        )
        threshold = 0.5 * (sampled_max + upper)
        certs[f"{name}/static"] = _static_certificate(network, region)
        for kind, split in (("milp", False), ("split", True)):
            result = prove_certified(network, region, threshold, split=split)
            assert result.certificate is not None
            assert result.certificate["kind"] == kind
            certs[f"{name}/{kind}"] = result.certificate
    certs["one_layer/static"] = _static_certificate(
        _one_layer(), box_region(3, 1.0)
    )
    certs["identity_hidden/static"] = _static_certificate(
        _identity_hidden(), box_region(3, 1.0)
    )
    return certs


@pytest.fixture(scope="module")
def certificates():
    return _build_certificates()


def _oracle(cert):
    with mock.patch.object(
        check, "_check_chain", chain_replay.check_chain
    ), mock.patch.object(check, "_check_tree", tree_walk.check_tree):
        return check.check_certificate(cert)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf")


def _assert_same_findings(report, oracle, where):
    """Same findings in the same order: code, severity, subject and
    message, the message's numbers equal up to their printed digits
    (the two replays sum in different orders)."""
    found = [
        (d.code, d.severity, d.subject, _NUMBER.sub("#", d.message))
        for d in report.diagnostics
    ]
    expected = [
        (d.code, d.severity, d.subject, _NUMBER.sub("#", d.message))
        for d in oracle.diagnostics
    ]
    assert found == expected, where
    for got, want in zip(report.diagnostics, oracle.diagnostics):
        np.testing.assert_allclose(
            [float(x) for x in _NUMBER.findall(got.message)],
            [float(x) for x in _NUMBER.findall(want.message)],
            rtol=1e-4, atol=1e-9, err_msg=where,
        )


def _chains(cert):
    """``(layers, box, chain, objective_row or None)`` of every chain
    of a certificate; a split leaf's box is re-derived from the tree."""
    layers = check._parse_layers(cert["network"])
    row = check._parse_objective(cert["objective"], layers[-1][1].shape[0])
    box = np.asarray(cert["region"]["bounds"], dtype=float)
    if cert["kind"] != "split":
        yield layers, box, cert["chain"], (
            row if cert["kind"] == "static" else None
        )
        return
    stack = [(cert["tree"], box)]
    while stack:
        node, node_box = stack.pop()
        if "split_dim" in node:
            dim = node["split_dim"]
            mid = 0.5 * (node_box[dim, 0] + node_box[dim, 1])
            for key, part in (("low", (node_box[dim, 0], mid)),
                              ("high", (mid, node_box[dim, 1]))):
                child = node_box.copy()
                child[dim] = part
                stack.append((node[key], child))
        else:
            yield layers, node_box, node["chain"], (
                None if node["kind"] == "milp" else row
            )


def _replays(layers, box, chain, row):
    """``(validated, objective)`` of the sweep and of the oracle."""
    input_box = (box[:, 0].copy(), box[:, 1].copy())
    return [
        replay(AuditReport(), "chain", layers, input_box, chain, row)
        for replay in (check._check_chain, chain_replay.check_chain)
    ]


def _assert_same_replay(layers, box, chain, row):
    (valid, obj), (oracle_valid, oracle_obj) = _replays(
        layers, box, chain, row
    )
    assert (valid is None) == (oracle_valid is None)
    assert (obj is None) == (oracle_obj is None)
    if obj is not None:
        np.testing.assert_allclose(obj, oracle_obj, rtol=0, atol=1e-9)


def _sites(chain):
    """Every claimed bound and every ``(entry, k, key)`` relaxation
    array of a chain, as ``(container, key)`` pairs."""
    entries = list(chain["layers"])
    if "objective" in chain:
        entries.append(chain["objective"])
    for entry in entries:
        yield entry, "lower"
        yield entry, "upper"
        for record in entry.get("relax", {}).values():
            for key in sorted(record):
                yield record, key


def _perturbed_chain(cert):
    """The chain to perturb: a split tree's first milp leaf, if it has
    one, else its first leaf; the chain of any other certificate."""
    chains = [(row is None, chain) for _, _, chain, row in _chains(cert)]
    return next((c for milp, c in chains if milp), chains[0][1])


@pytest.mark.parametrize("name", [
    f"{shape}/{kind}" for shape in SHAPES
    for kind in ("static", "milp", "split")
] + ["one_layer/static", "identity_hidden/static"])
def test_sweep_matches_entry_by_entry_oracle(certificates, name):
    cert = certificates[name]
    assert not check.check_certificate(cert).has_errors
    assert not _oracle(cert).has_errors
    for layers, box, chain, row in _chains(cert):
        _assert_same_replay(layers, box, chain, row)

    rng = np.random.default_rng(sum(map(ord, name)))
    outcomes = set()
    for container, key in _sites(_perturbed_chain(cert)):
        original = container[key]
        values = np.array(original, dtype=float)
        index = tuple(rng.integers(0, n) for n in values.shape)
        for delta in DELTAS:
            changed = values.copy()
            changed[index] += rng.choice((-1.0, 1.0)) * delta
            container[key] = (
                changed.tolist() if changed.ndim else float(changed)
            )
            report = check.check_certificate(cert)
            oracle = _oracle(cert)
            where = f"{name}: {key}{list(index)} -> {changed[index]}"
            _assert_same_findings(report, oracle, where)
            if not report.has_errors:
                for args in _chains(cert):
                    _assert_same_replay(*args)
            outcomes.add(report.has_errors)
        container[key] = original
    # The battery must exercise both verdicts, or it shows nothing.
    assert outcomes == {True, False}


# -- split trees: one sweep for every leaf -----------------------------------

#: Seeds of perfbench split-shape nets (2 inputs, 4x4 hidden, unit box)
#: whose proofs at a threshold a tenth of the way into the relaxation
#: gap bisect into trees that mix pruned leaves with MILP leaves.
SPLIT_SEEDS = (0, 1, 2)


def _split_certificate(seed):
    network = FeedForwardNetwork.mlp(
        2, [4, 4], 1, rng=np.random.default_rng(seed)
    )
    region = box_region(2, 1.0)
    samples = np.random.default_rng(0).uniform(-1.0, 1.0, (8192, 2))
    sampled_max = float(network.forward(samples)[:, 0].max())
    upper = float(record_chain(network, region, {0: 1.0}).objective_upper)
    result = Verifier(
        network, EncoderOptions(bound_mode="lp", certify=True, split=True),
        MILPOptions(time_limit=120.0),
    ).prove(SafetyProperty(
        name=f"split{seed}", region=region,
        objective=OutputObjective.single(0),
        threshold=sampled_max + 0.1 * (upper - sampled_max),
    ))
    assert result.certificate is not None
    assert result.certificate["kind"] == "split"
    return result.certificate


@pytest.fixture(scope="module")
def split_certificates():
    return {seed: _split_certificate(seed) for seed in SPLIT_SEEDS}


def _nodes(node):
    """Every node of a split tree, depth first."""
    yield node
    if "split_dim" in node:
        yield from _nodes(node["low"])
        yield from _nodes(node["high"])


def _tree_leaves(cert):
    return [node for node in _nodes(cert["tree"]) if "split_dim" not in node]


def _structural_tampers(cert, rng):
    """``(what, tampered copy)`` pairs: one defect each, in one leaf or
    node picked by ``rng``."""
    internal = [n for n in _nodes(cert["tree"]) if "split_dim" in n]
    leaves = _tree_leaves(cert)
    milp = [i for i, leaf in enumerate(leaves) if leaf["kind"] == "milp"]
    assert internal and milp and len(milp) < len(leaves)

    def tamper(what, where, edit):
        copied = copy.deepcopy(cert)
        nodes = list(_nodes(copied["tree"]))
        targets = {
            "internal": [n for n in nodes if "split_dim" in n],
            "leaf": [n for n in nodes if "split_dim" not in n],
        }[where[0]]
        edit(targets[where[1]])
        return f"{what} @ {where}", copied

    def reshaped(leaf):
        # Drop a row of one relax array of one entry of this leaf only.
        entry = leaf["chain"]["layers"][2]
        del entry["relax"]["1"]["lo_lower"][-1]

    def dual_scaled(factor):
        def edit(leaf):
            farkas = leaf["leaves"][int(rng.integers(len(leaf["leaves"])))]
            farkas["dual"] = {k: factor * v for k, v in farkas["dual"].items()}
        return edit

    node = int(rng.integers(len(internal)))
    leaf = int(rng.integers(len(leaves)))
    shard = milp[int(rng.integers(len(milp)))]
    yield tamper("relax of wrong shape", ("leaf", leaf), reshaped)
    for dim in (2, -1, "a", None, [0]):
        yield tamper(
            f"split_dim {dim!r}", ("internal", node),
            lambda n, dim=dim: n.__setitem__("split_dim", dim),
        )
    for child in ("low", "high"):
        yield tamper(
            f"missing {child}", ("internal", node),
            lambda n, child=child: n.pop(child),
        )
    yield tamper(
        "node not an object", ("internal", node),
        lambda n: n.__setitem__("high", [1, 2]),
    )
    yield tamper(
        "unknown leaf kind", ("leaf", leaf),
        lambda n: n.__setitem__("kind", "oracle"),
    )
    for factor in (-1.0, 1e-12, 2.0):
        yield tamper(
            f"dual scaled by {factor}", ("leaf", shard), dual_scaled(factor)
        )
    yield tamper(
        "objective upper null", ("leaf", min(set(range(len(leaves))) - set(milp))),
        lambda n: n["chain"]["objective"].__setitem__("upper", None),
    )


@pytest.mark.parametrize("seed", SPLIT_SEEDS)
def test_tree_sweep_matches_leaf_by_leaf_oracle(split_certificates, seed):
    cert = split_certificates[seed]
    assert not check.check_certificate(cert).has_errors
    assert not _oracle(cert).has_errors
    for layers, box, chain, row in _chains(cert):
        _assert_same_replay(layers, box, chain, row)

    rng = np.random.default_rng(seed)
    outcomes = set()
    # Every site of the first MILP leaf and of one pruned leaf.
    leaves = _tree_leaves(cert)
    milp = [i for i, leaf in enumerate(leaves) if leaf["kind"] == "milp"]
    pruned = [i for i, leaf in enumerate(leaves) if leaf["kind"] != "milp"]
    for leaf_index in (milp[0], pruned[int(rng.integers(len(pruned)))]):
        for container, key in _sites(leaves[leaf_index]["chain"]):
            original = container[key]
            values = np.array(original, dtype=float)
            index = tuple(rng.integers(0, n) for n in values.shape)
            for delta in DELTAS:
                changed = values.copy()
                changed[index] += rng.choice((-1.0, 1.0)) * delta
                container[key] = (
                    changed.tolist() if changed.ndim else float(changed)
                )
                report = check.check_certificate(cert)
                where = (
                    f"split{seed} leaf {leaf_index}: {key}{list(index)} -> "
                    f"{changed[index]}"
                )
                _assert_same_findings(report, _oracle(cert), where)
                outcomes.add(report.has_errors)
            container[key] = original
    for what, tampered in _structural_tampers(cert, rng):
        report = check.check_certificate(tampered)
        _assert_same_findings(report, _oracle(tampered), f"split{seed}: {what}")
        outcomes.add(report.has_errors)
    assert outcomes == {True, False}


def test_clean_tree_is_replayed_in_one_sweep(split_certificates):
    for cert in split_certificates.values():
        with mock.patch.object(check, "_sweep", wraps=check._sweep) as sweep:
            assert not check.check_certificate(cert).has_errors
        assert sweep.call_count == 1
