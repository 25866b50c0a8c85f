"""Benchmark of certified verification: prove, emit a certificate, check it.

    python3 perfbench/run.py --workload milp --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each workload is a closed loop with one client: it draws seeded decision
queries (see ``queries.py``) and, for each query in turn,

1. proves it without certificates (``EncoderOptions(certify=False)``),
2. proves it again with certificates on,
3. re-checks the certificate with the independent checker
   (:func:`repro.proof.check.check_certificate`) after a JSON round
   trip, as ``repro check CERT`` would,

in rounds over the suite until ``--seconds`` have passed.  Every
answer is checked: both runs must agree, a VERIFIED answer must carry a
certificate about exactly this query that the checker accepts, and a
FALSIFIED answer must carry an input in the box whose output reaches the
threshold.

Workloads:

* ``static`` — thresholds above the interval bound: every proof is a
  symbolic-chain certificate; branch and bound and bisection are never
  reached.
* ``milp`` — thresholds inside the relaxation gap: proofs need branch and
  bound, and certificates carry a leaf cover with a Farkas ray per leaf.
* ``split`` — the same kind of gap thresholds with input-region bisection
  on: certificates are partition trees with a sub-certificate per leaf.

The last line of standard output is one JSON object.  With ``--trace 0``
it holds the end-to-end metrics: milliseconds per certified and per
uncertified proof and per independent check (each query's fastest
repeat, averaged over the suite), and ``setup_s``, the median of seven
cold starts of ``setup_probe.py``.  Every time is CPU time, taken
relative to a fixed reference computation timed right before and after
it and scaled by the reference's time on an unloaded core (see
:func:`reference_seconds`): the figures are times at a fixed machine
speed, so that a shared host's swings in speed do not show in them.
With ``--trace 1``
the certified prover runs under a :class:`repro.obs.Tracer` and the
object holds per-layer metrics taken from its spans and results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The matrices are tiny: BLAS worker threads only add scheduling noise.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Per-query MILP budget; a query that hits it counts as failed.
TIME_LIMIT = 30.0

#: Cold starts timed for ``setup_s``.
SETUP_REPEATS = 7

#: Networks handed to each cold start.
SETUP_NETWORKS = 8

#: Proofs and checks are timed in CPU seconds of this process.  The
#: prover runs on one thread, so on an idle core this is its latency; on
#: a shared host it leaves out the spells in which other processes hold
#: the core.
clock = time.process_time

#: Passes of the reference computation per timing of it.
REFERENCE_PASSES = 150

#: CPU milliseconds the reference computation takes on an unloaded core
#: of a 2-vCPU x86-64 host; it turns multiples of it back into ms.
REFERENCE_MS = 2.5

_REFERENCE_MATRIX = (
    np.random.default_rng(0).standard_normal((24, 24)) + 24.0 * np.eye(24)
)


def reference_seconds():
    """CPU seconds of one fixed computation that depends on the machine
    only: small dense solves and dict updates, the same mix of numpy calls
    and interpreter work the prover runs.

    Even CPU time on a shared host swings by half within a minute, as
    neighbours contend for caches and memory.  Each proof, check and
    cold start is therefore timed between two runs of this computation
    and reported as a multiple of their mean, which cancels the swing.
    """
    start = clock()
    acc = 0.0
    for _ in range(REFERENCE_PASSES):
        x = np.linalg.solve(_REFERENCE_MATRIX, _REFERENCE_MATRIX[:, 0])
        acc += float(x @ x)
        table = {}
        for k in range(40):
            table[k] = k * acc
    return clock() - start


def _children_cpu():
    """CPU seconds used so far by this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _shapes():
    from queries import Shape

    return {
        "static": Shape(inputs=4, hidden=(16, 16, 16), size=64,
                        in_gap=False),
        "milp": Shape(inputs=2, hidden=(6, 6), size=64, in_gap=True),
        "split": Shape(inputs=2, hidden=(4, 4), size=256, in_gap=True,
                       split=True),
    }


def _verifier(network, shape, certify, tracer=None):
    from repro.core.encoder import EncoderOptions
    from repro.core.verifier import Verifier
    from repro.milp import MILPOptions

    return Verifier(
        network,
        EncoderOptions(bound_mode="lp", certify=certify, split=shape.split),
        MILPOptions(time_limit=TIME_LIMIT),
        tracer=tracer,
    )


def setup_probe(seed, shape):
    """A callable timing one cold start: the child's CPU seconds, at the
    reference speed measured on either side of it."""
    from queries import make_query
    from repro.nn.serialization import network_to_dict

    payload = json.dumps([
        {
            "network": network_to_dict(make_query(seed, i, shape).network),
            "split": shape.split,
            "time_limit": TIME_LIMIT,
        }
        for i in range(min(SETUP_NETWORKS, shape.size))
    ])
    expected = [str(2 * min(SETUP_NETWORKS, shape.size))]

    def probe():
        before = reference_seconds()
        start = _children_cpu()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=payload, capture_output=True, text=True, timeout=120,
        )
        cpu = _children_cpu() - start
        after = reference_seconds()
        if proc.returncode != 0 or proc.stdout.split() != expected:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return 2e-3 * REFERENCE_MS * cpu / (before + after)

    return probe


def _certificate_matches(cert, query):
    """True when ``cert`` speaks about exactly this query."""
    import numpy as np

    layers = cert["network"]["layers"]
    if len(layers) != len(query.network.layers):
        return False
    for got, layer in zip(layers, query.network.layers):
        if not (
            np.array_equal(np.asarray(got["weights"]), layer.weights)
            and np.array_equal(np.asarray(got["bias"]), layer.bias)
            and got["activation"] == layer.activation
        ):
            return False
    return (
        np.array_equal(np.asarray(cert["region"]["bounds"]),
                       query.prop.region.bounds)
        and cert["objective"]["coefficients"] == {"0": 1.0}
        and cert["threshold"] == query.prop.threshold
    )


def _witness_ok(result, query):
    """A FALSIFIED answer's input lies in the box and breaks the bound."""
    import numpy as np

    from queries import forward

    x = np.asarray(result.counterexample, dtype=float)
    box = query.prop.region.bounds
    inside = np.all(x >= box[:, 0] - 1e-9) and np.all(x <= box[:, 1] + 1e-9)
    value = float(forward(query.network, x[None, :])[0, 0])
    return bool(inside) and value >= query.prop.threshold - 1e-4


def _self_times(records):
    """Self wall seconds per span name (span minus its direct children)."""
    spans = [r for r in records if r["type"] == "span"]
    child_wall = {}
    for span in spans:
        if span["parent"] is not None:
            child_wall[span["parent"]] = (
                child_wall.get(span["parent"], 0.0) + span["wall"]
            )
    out = {}
    for span in spans:
        own = span["wall"] - child_wall.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def _count_leaves(cert):
    if cert["kind"] == "milp":
        return len(cert["leaves"])
    if cert["kind"] == "split":
        stack, leaves = [cert["tree"]], 0
        while stack:
            node = stack.pop()
            if "low" in node:
                stack.extend((node["low"], node["high"]))
            else:
                leaves += 1
        return leaves
    return 1


class Loop:
    """The closed query loop and everything it observed."""

    def __init__(self, shape, trace):
        self.shape = shape
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        #: Per query, each repeat's CPU seconds and the reference's.
        self.times = {"certified": {}, "uncertified": {}, "check": {}}
        self.layers = {
            "chain_ms": [], "query_self_ms": [], "solve_ms": [],
            "split_ms": [], "bb_nodes": [], "lp_iterations": [],
            "cert_leaves": [], "cert_kb": [], "static": [], "verified": [],
        }

    def run_query(self, query, timed=True):
        from repro.core.verifier import Verdict
        from repro.obs import RingBufferSink, Tracer
        from repro.proof.check import check_certificate
        from repro.proof.emit import record_chain

        sink = RingBufferSink() if self.trace else None
        tracer = Tracer([sink]) if self.trace else None

        refs = [reference_seconds()]
        start = clock()
        plain = _verifier(query.network, self.shape, False).prove(query.prop)
        t_plain = clock() - start
        refs.append(reference_seconds())

        start = clock()
        if tracer is None:
            result = _verifier(query.network, self.shape, True).prove(
                query.prop
            )
        else:
            with tracer.span("bench.prove"):
                result = _verifier(
                    query.network, self.shape, True, tracer
                ).prove(query.prop)
        t_cert = clock() - start
        refs.append(reference_seconds())

        ok = plain.verdict is result.verdict
        t_check = None
        cert = result.certificate
        if result.verdict is Verdict.VERIFIED:
            ok = ok and cert is not None and query.sample_max <= (
                query.prop.threshold
            )
            if cert is not None:
                text = json.dumps(cert, separators=(",", ":"))
                start = clock()
                if tracer is None:
                    report = check_certificate(
                        json.loads(text), subject=query.prop.name
                    )
                else:
                    with tracer.span("bench.check"):
                        report = check_certificate(
                            json.loads(text), subject=query.prop.name
                        )
                t_check = clock() - start
                refs.append(reference_seconds())
                ok = ok and not report.has_errors and _certificate_matches(
                    cert, query
                )
        elif result.verdict is Verdict.FALSIFIED:
            ok = ok and _witness_ok(result, query) and _witness_ok(
                plain, query
            ) and self.shape.in_gap
        else:
            ok = False

        if tracer is not None:
            with tracer.span("bench.chain"):
                record_chain(
                    query.network, query.prop.region,
                    query.prop.objective.coefficients,
                )
        if not timed:
            return ok
        self.attempted += 1
        self.failed += not ok
        if not ok:
            print(
                f"query {query.index}: plain {plain.verdict.value}, certified "
                f"{result.verdict.value}, certificate "
                f"{'present' if cert is not None else 'missing'}",
                file=sys.stderr,
            )
        # Each time with the mean of the reference runs on either side.
        key = query.index
        self.times["uncertified"].setdefault(key, []).append(
            (t_plain, 0.5 * (refs[0] + refs[1]))
        )
        self.times["certified"].setdefault(key, []).append(
            (t_cert, 0.5 * (refs[1] + refs[2]))
        )
        if t_check is not None:
            self.times["check"].setdefault(key, []).append(
                (t_check, 0.5 * (refs[2] + refs[3]))
            )
        if sink is not None:
            self._record_layers(sink.records, result, cert)
        return ok

    def _record_layers(self, records, result, cert):
        from repro.core.verifier import Verdict

        self_s = _self_times(records)
        layers = self.layers
        layers["chain_ms"].append(1e3 * self_s.get("bench.chain", 0.0))
        layers["query_self_ms"].append(1e3 * self_s.get("query", 0.0))
        layers["solve_ms"].append(1e3 * self_s.get("solve", 0.0))
        layers["split_ms"].append(1e3 * self_s.get("split", 0.0))
        layers["bb_nodes"].append(result.nodes)
        layers["lp_iterations"].append(result.lp_iterations)
        layers["verified"].append(result.verdict is Verdict.VERIFIED)
        if cert is not None:
            layers["cert_leaves"].append(_count_leaves(cert))
            layers["cert_kb"].append(
                len(json.dumps(cert, separators=(",", ":"))) / 1024.0
            )
            layers["static"].append(cert["kind"] == "static")

    def run(self, suite, seconds):
        """Run rounds of ``suite`` until ``seconds`` have passed.

        The first round always completes, so every query is timed; later
        rounds stop at the deadline, so a run ends on time.
        """
        deadline = time.perf_counter() + seconds
        for rounds in itertools.count():
            for query in suite:
                if rounds and time.perf_counter() >= deadline:
                    return
                try:
                    self.run_query(query)
                except Exception:  # one broken query must not end the run
                    traceback.print_exc()
                    self.attempted += 1
                    self.failed += 1


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _share(flags):
    return sum(flags) / len(flags) if flags else 0.0


def _suite_mean(samples):
    """Mean over the suite of each query's fastest repeat, in ms at the
    reference speed.

    The fastest repeat is the one least disturbed; dividing it by the
    reference timed next to it removes how fast the machine ran just
    then.  The mean, not the median, sums up the suite because query
    times fall in two clusters (settled by a bound, or by a search): a
    median sits between them and jumps from seed to seed.
    """
    return REFERENCE_MS * statistics.fmean(
        [t / ref for t, ref in (min(v) for v in samples.values())]
    )


def end_to_end(loop, setup_s):
    out = {
        f"{name}_ms": {"value": _suite_mean(loop.times[name]), "unit": "ms"}
        for name in ("certified", "uncertified", "check")
    }
    out["setup_s"] = {"value": setup_s, "unit": "s"}
    return out


def per_layer(loop):
    layers = loop.layers
    units = {
        "chain_ms": "ms", "query_self_ms": "ms", "solve_ms": "ms",
        "split_ms": "ms", "bb_nodes": "count", "lp_iterations": "count",
        "cert_leaves": "count", "cert_kb": "KiB",
    }
    out = {
        name: {"value": _median(layers[name]), "unit": unit}
        for name, unit in units.items()
    }
    out["static_share"] = {"value": _share(layers["static"]), "unit": "1"}
    out["verified_share"] = {
        "value": _share(layers["verified"]), "unit": "1"
    }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("static", "milp", "split"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % 2**32
    shape = _shapes()[args.workload]

    from queries import WARMUP_INDEX, make_query

    suite = [make_query(seed, i, shape) for i in range(shape.size)]
    loop = Loop(shape, bool(args.trace))
    if not loop.run_query(make_query(seed, WARMUP_INDEX, shape), timed=False):
        print("warm-up query failed", file=sys.stderr)
    loop.run(suite, args.seconds)
    setup_s = 0.0
    if not args.trace:
        # After the timed loop, so that the whole run goes to repeats.
        probe = setup_probe(seed, shape)
        setup_s = statistics.median(probe() for _ in range(SETUP_REPEATS))

    metrics = per_layer(loop) if args.trace else end_to_end(loop, setup_s)
    print(
        f"{args.workload} seed {args.seed}: {loop.attempted} queries, "
        f"{loop.failed} failed, {len(loop.times['check'])} certificates "
        "checked",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": loop.failed == 0 and bool(loop.times["check"]),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
