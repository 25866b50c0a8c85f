"""Ablation bench for the verifier's bound tightening (DESIGN.md Sec. 5).

LP-tightened vs symbolic vs plain interval bounds — binary count and
end-to-end verification time.
"""

import pytest

from repro import casestudy
from repro.analysis.symbolic import symbolic_bounds
from repro.core.bounds import interval_bounds, lp_tightened_bounds, total_ambiguous
from repro.core.encoder import EncoderOptions
from repro.core.properties import OutputObjective
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions
from repro.nn.mdn import mu_lat_indices

from conftest import TABLE_II_WIDTHS, TIME_LIMIT


@pytest.fixture(scope="module")
def subject(study, family):
    """Smallest family member + its Table II region."""
    width = min(TABLE_II_WIDTHS)
    return family[width], casestudy.operational_region(study)


class TestBoundTighteningAblation:
    def test_lp_bounds_reduce_binaries(self, subject):
        network, region = subject
        loose = total_ambiguous(interval_bounds(network, region), network)
        tight = total_ambiguous(
            lp_tightened_bounds(network, region), network
        )
        print(f"\nambiguous ReLUs: interval={loose}, lp={tight}")
        assert tight <= loose

    def test_bound_engine_ordering(self, subject, emit):
        """interval ⊒ symbolic ⊒ lp in ambiguous-neuron count."""
        network, region = subject
        counts = {
            "interval": total_ambiguous(
                interval_bounds(network, region), network
            ),
            "symbolic": total_ambiguous(
                symbolic_bounds(network, region), network
            ),
            "lp": total_ambiguous(
                lp_tightened_bounds(network, region), network
            ),
        }
        emit(f"\nambiguous ReLUs by bound engine: {counts}")
        assert counts["lp"] <= counts["symbolic"] <= counts["interval"]

    def test_bench_symbolic_bound_pass(self, benchmark, subject):
        network, region = subject
        bounds = benchmark(symbolic_bounds, network, region)
        assert len(bounds) == len(network.layers)

    def test_same_answer_both_modes(self, subject, study):
        network, region = subject
        objective = OutputObjective.single(
            mu_lat_indices(study.config.num_components)[0]
        )
        values = {}
        for mode in ("interval", "lp"):
            verifier = Verifier(
                network,
                EncoderOptions(bound_mode=mode),
                MILPOptions(time_limit=TIME_LIMIT),
            )
            result = verifier.maximize(region, objective)
            if result.verdict is Verdict.MAX_FOUND:
                values[mode] = result.value
        if len(values) == 2:
            assert values["interval"] == pytest.approx(
                values["lp"], abs=1e-4
            )

    def test_bench_interval_bound_pass(self, benchmark, subject):
        network, region = subject
        bounds = benchmark(interval_bounds, network, region)
        assert len(bounds) == len(network.layers)

    def test_bench_lp_bound_pass(self, benchmark, subject):
        network, region = subject
        bounds = benchmark.pedantic(
            lp_tightened_bounds, args=(network, region),
            rounds=1, iterations=1,
        )
        assert len(bounds) == len(network.layers)

