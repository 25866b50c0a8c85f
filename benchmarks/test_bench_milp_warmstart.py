"""Bench: warm-started node LPs vs cold re-solves on the Table II family.

The bounded-variable revised simplex (``revised`` backend) can solve
every node LP from scratch (``warm_start=False``) or reuse the parent
node's basis (dual-simplex reoptimisation); the two legs differ in
nothing else, so the comparison isolates warm starting.  Two claims are asserted:

1. **Equivalence** — on every Table II network the warm-started search
   reaches the same verdict and the same maximum (within 1e-6) as the
   cold search when the cold search completes; when it times out, the
   warm result is checked against compiled HiGHS instead.
2. **Work reduction** — on the widest (deepest-tree) network's max query
   the warm-started search performs at most half the node-LP simplex
   iterations of the cold search (per node when the cold run was
   truncated by its time limit), provided the tree is non-trivial.

A synthetic knapsack bench with a controllable tree depth rides along so
the reduction is observable even when the trained family happens to
verify at the root.
"""

import numpy as np
import pytest

from repro import casestudy
from repro.core.encoder import EncoderOptions
from repro.core.verifier import Verdict, Verifier
from repro.milp import (
    MILPOptions,
    Model,
    Sense,
    SolveStatus,
    VarType,
    solve_milp,
)

from conftest import TABLE_II_WIDTHS, TIME_LIMIT


def _run_query(study, network, backend, warm):
    region = casestudy.operational_region(study)
    verifier = Verifier(
        network,
        EncoderOptions(bound_mode="lp"),
        MILPOptions(
            time_limit=TIME_LIMIT, lp_backend=backend, warm_start=warm,
        ),
    )
    return verifier.max_lateral_velocity(
        region, study.config.num_components
    )


@pytest.fixture(scope="module")
def paired_results(study, family):
    """HiGHS reference, cold and warm revised runs, per width."""
    triples = {}
    for width in TABLE_II_WIDTHS:
        ref = _run_query(study, family[width], "highs", warm=False)
        cold = _run_query(study, family[width], "revised", warm=False)
        warm = _run_query(study, family[width], "revised", warm=True)
        triples[width] = (ref, cold, warm)
    return triples


class TestWarmStartEquivalence:
    def test_same_verdict_and_value_every_width(self, paired_results):
        for width, (ref, cold, warm) in paired_results.items():
            if cold.verdict is Verdict.MAX_FOUND:
                # The reference completed: the warm search must agree
                # exactly (ISSUE acceptance: 1e-6 on the optimum).
                assert warm.verdict is Verdict.MAX_FOUND, f"I4x{width}"
                assert warm.value == pytest.approx(
                    cold.value, abs=1e-6
                ), f"I4x{width}"
            else:
                # The cold search timed out; warm may finish (that is
                # the point) but must then match compiled HiGHS.
                assert warm.verdict in (
                    Verdict.MAX_FOUND, Verdict.TIMEOUT
                ), f"I4x{width}"
                if (
                    warm.verdict is Verdict.MAX_FOUND
                    and ref.verdict is Verdict.MAX_FOUND
                ):
                    assert warm.value == pytest.approx(
                        ref.value, abs=1e-5
                    ), f"I4x{width}"

    def test_warm_matches_highs_when_both_complete(self, paired_results):
        for width, (ref, _cold, warm) in paired_results.items():
            if (
                ref.verdict is Verdict.MAX_FOUND
                and warm.verdict is Verdict.MAX_FOUND
            ):
                assert warm.value == pytest.approx(
                    ref.value, abs=1e-5
                ), f"I4x{width}"

    def test_telemetry_is_reported(self, paired_results):
        for width, (_ref, cold, warm) in paired_results.items():
            assert cold.lp_iterations > 0
            assert warm.lp_iterations > 0
            assert cold.warm_start_attempts == 0
            assert warm.warm_start_hits <= warm.warm_start_attempts


class TestWarmStartReduction:
    def test_iteration_reduction_on_widest(
        self, paired_results, emit, bench_record
    ):
        """>=2x fewer node-LP iterations on the deepest network.

        When the cold run was truncated by its time limit the
        totals are not comparable (cold did *less* work than a full
        solve); the per-node average is compared instead.
        """
        width = max(TABLE_II_WIDTHS)
        _ref, cold, warm = paired_results[width]
        cold_per_node = cold.lp_iterations / max(cold.nodes, 1)
        warm_per_node = warm.lp_iterations / max(warm.nodes, 1)
        emit(
            f"\nI4x{width}: cold {cold.lp_iterations} LP iterations / "
            f"{cold.nodes} nodes ({cold_per_node:.0f}/node, "
            f"{'timed out' if cold.timed_out else 'completed'}) vs warm "
            f"{warm.lp_iterations} / {warm.nodes} nodes "
            f"({warm_per_node:.0f}/node, hit rate "
            f"{warm.warm_start_hit_rate:.0%}, "
            f"{'timed out' if warm.timed_out else 'completed'})"
        )
        for label, res in (("cold_revised", cold), ("warm_revised", warm)):
            bench_record(
                "milp", f"I4x{width}_{label}",
                wall_time=res.wall_time,
                nodes=res.nodes,
                lp_iterations=res.lp_iterations,
                warm_start_hit_rate=res.warm_start_hit_rate,
                lp_iterations_saved=res.lp_iterations_saved,
                timed_out=res.timed_out,
            )
        if warm.nodes < 4 or warm.warm_start_attempts == 0:
            pytest.skip(
                "tree too shallow on this trained family to measure a "
                "warm-start reduction"
            )
        if cold.timed_out or warm.timed_out:
            assert 2 * warm_per_node <= cold_per_node
        else:
            assert 2 * warm.lp_iterations <= cold.lp_iterations

    def test_bench_widest_query_warm(self, benchmark, study, family):
        """pytest-benchmark row: warm-started max query, widest network."""
        width = max(TABLE_II_WIDTHS)

        def run():
            return _run_query(study, family[width], "revised", warm=True)

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result.verdict in (Verdict.MAX_FOUND, Verdict.TIMEOUT)


def _deep_knapsack(size, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(5, 60, size=size).tolist()
    weights = rng.integers(1, 12, size=size).tolist()
    capacity = int(sum(weights) // 2)
    model = Model("bench-knapsack")
    xs = [
        model.add_var(f"item{i}", vtype=VarType.BINARY)
        for i in range(size)
    ]
    model.add_constr(sum(w * x for w, x in zip(weights, xs)) <= capacity)
    model.set_objective(
        sum(v * x for v, x in zip(values, xs)), sense=Sense.MAXIMIZE
    )
    return model


class TestKnapsackReduction:
    """Controlled-depth tree: the reduction must show here regardless of
    how the trained family happens to branch."""

    def test_iteration_reduction_synthetic(self, emit, bench_record):
        cold_total = warm_total = 0
        cold_wall = warm_wall = 0.0
        for seed in range(3):
            cold = solve_milp(
                _deep_knapsack(16, seed),
                MILPOptions(lp_backend="revised", warm_start=False),
            )
            warm = solve_milp(
                _deep_knapsack(16, seed),
                MILPOptions(lp_backend="revised", warm_start=True),
            )
            assert cold.status is SolveStatus.OPTIMAL
            assert warm.status is SolveStatus.OPTIMAL
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6
            )
            cold_total += cold.lp_iterations
            warm_total += warm.lp_iterations
            cold_wall += cold.wall_time
            warm_wall += warm.wall_time
        emit(
            f"\nknapsack x3: cold {cold_total} LP iterations vs warm "
            f"{warm_total} ({cold_total / max(warm_total, 1):.1f}x)"
        )
        bench_record(
            "milp", "knapsack16_x3_cold_revised",
            wall_time=cold_wall, lp_iterations=cold_total,
            warm_start_hit_rate=0.0,
        )
        bench_record(
            "milp", "knapsack16_x3_warm_revised",
            wall_time=warm_wall, lp_iterations=warm_total,
            warm_start_hit_rate=warm.warm_start_hit_rate,
        )
        assert 2 * warm_total <= cold_total

    def test_bench_knapsack_warm(self, benchmark):
        def run():
            return solve_milp(
                _deep_knapsack(16, 0),
                MILPOptions(lp_backend="revised", warm_start=True),
            )

        res = benchmark(run)
        assert res.status is SolveStatus.OPTIMAL
