"""Verification-campaign tests."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.campaign import VerificationCampaign
from repro.core.encoder import EncoderOptions
from repro.core.properties import InputRegion, OutputObjective, SafetyProperty
from repro.core.verifier import Verdict
from repro.errors import CertificationError
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork


def unit_region(dim=4):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


def prop(name, threshold, output=0, region=None):
    return SafetyProperty(
        name=name,
        region=region or unit_region(),
        objective=OutputObjective.single(output),
        threshold=threshold,
    )


@pytest.fixture()
def campaign():
    return VerificationCampaign(
        EncoderOptions(bound_mode="interval"),
        MILPOptions(time_limit=60.0),
    )


@pytest.fixture()
def nets():
    return [
        FeedForwardNetwork.mlp(4, [5], 2, rng=np.random.default_rng(s))
        for s in (0, 1)
    ]


class TestRegistration:
    def test_default_names_from_architecture(self, campaign, nets):
        name = campaign.add_network(nets[0])
        assert name == "I1x5"

    def test_duplicate_network_rejected(self, campaign, nets):
        campaign.add_network(nets[0], "a")
        with pytest.raises(CertificationError):
            campaign.add_network(nets[1], "a")

    def test_duplicate_property_rejected(self, campaign):
        campaign.add_property(prop("p", 1.0))
        with pytest.raises(CertificationError):
            campaign.add_property(prop("p", 2.0))

    def test_empty_campaign_rejected(self, campaign):
        with pytest.raises(CertificationError):
            campaign.run()

    def test_size(self, campaign, nets):
        campaign.add_network(nets[0], "a")
        campaign.add_network(nets[1], "b")
        campaign.add_property(prop("p", 1.0))
        assert campaign.size == (2, 1)


class TestRun:
    def test_full_matrix(self, campaign, nets):
        campaign.add_network(nets[0], "net_a")
        campaign.add_network(nets[1], "net_b")
        campaign.add_property(prop("loose", 1000.0))
        campaign.add_property(prop("tight", -1000.0, output=1))
        report = campaign.run()
        assert len(report.cells) == 4
        # The loose property must hold everywhere, the absurd one nowhere.
        for net_name in ("net_a", "net_b"):
            assert report.cell(net_name, "loose").passed
            tight = report.cell(net_name, "tight")
            assert tight.result.verdict is Verdict.FALSIFIED
        assert not report.all_passed
        assert report.pass_rate == pytest.approx(0.5)
        assert len(report.failures()) == 2

    def test_unknown_cell_lookup(self, campaign, nets):
        campaign.add_network(nets[0], "a")
        campaign.add_property(prop("p", 1000.0))
        report = campaign.run()
        with pytest.raises(CertificationError):
            report.cell("a", "missing")

    def test_render_matrix(self, campaign, nets):
        campaign.add_network(nets[0], "a")
        campaign.add_property(prop("p1", 1000.0))
        campaign.add_property(prop("p2", -1000.0))
        text = campaign.run().render()
        assert "verification campaign" in text
        assert "proved" in text
        assert "FALSIFIED" in text

    def test_table_ii_shape_campaign(self, small_study, small_predictor):
        """The Table II use case: one network, both mirror properties."""
        from repro import casestudy
        from repro.core.properties import (
            component_lateral_objectives,
        )

        region = casestudy.operational_region(small_study)
        campaign = VerificationCampaign(
            EncoderOptions(bound_mode="lp"),
            MILPOptions(time_limit=120.0),
        )
        campaign.add_network(small_predictor)
        for k, objective in enumerate(
            component_lateral_objectives(2)
        ):
            campaign.add_property(
                SafetyProperty(
                    name=f"lat_comp{k}_leq_1e4",
                    region=region,
                    objective=objective,
                    threshold=1e4,
                )
            )
        report = campaign.run()
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell.result.verdict in (
                Verdict.VERIFIED,
                Verdict.TIMEOUT,
            )


class TestBoundsSharing:
    def test_equal_but_distinct_regions_computed_once(
        self, campaign, nets, monkeypatch
    ):
        """Content keying: two equal regions -> one bound computation."""
        import repro.core.bounds as bounds_mod

        calls = []
        real = bounds_mod.compute_bounds_entry

        def counting(network, region, mode):
            calls.append(region.name)
            return real(network, region, mode)

        monkeypatch.setattr(bounds_mod, "compute_bounds_entry", counting)
        campaign.add_network(nets[0], "a")
        campaign.add_property(prop("p1", 1000.0, region=unit_region()))
        campaign.add_property(prop("p2", -1000.0, region=unit_region()))
        report = campaign.run()
        assert len(report.cells) == 2
        assert len(calls) == 1

    def test_distinct_geometries_not_aliased(
        self, campaign, nets, monkeypatch
    ):
        """Different regions never share a cache entry (the id() bug)."""
        import numpy as np

        import repro.core.bounds as bounds_mod

        calls = []
        real = bounds_mod.compute_bounds_entry

        def counting(network, region, mode):
            calls.append(region.name)
            return real(network, region, mode)

        monkeypatch.setattr(bounds_mod, "compute_bounds_entry", counting)
        campaign.add_network(nets[0], "a")
        campaign.add_property(prop("p1", 1000.0, region=unit_region()))
        narrow = InputRegion(np.array([[-0.5, 0.5]] * 4))
        campaign.add_property(prop("p2", 1000.0, region=narrow))
        campaign.run()
        assert len(calls) == 2


def make_cell(net, name, verdict, wall=1.0):
    from repro.core.campaign import CampaignCell
    from repro.core.verifier import VerificationResult

    return CampaignCell(
        network_id=net,
        property_name=name,
        result=VerificationResult(verdict=verdict, wall_time=wall),
    )


class TestVerdictAccounting:
    def test_max_found_counts_as_passed(self):
        cell = make_cell("a", "q", Verdict.MAX_FOUND)
        assert cell.passed

    def test_error_and_timeout_not_passed(self):
        assert not make_cell("a", "q", Verdict.ERROR).passed
        assert not make_cell("a", "q", Verdict.TIMEOUT).passed

    def test_report_passes_with_max_found(self):
        from repro.core.campaign import CampaignReport

        report = CampaignReport(
            [
                make_cell("a", "max", Verdict.MAX_FOUND),
                make_cell("a", "dec", Verdict.VERIFIED),
            ]
        )
        assert report.all_passed
        assert report.pass_rate == 1.0
        assert report.failures() == []

    def test_render_marks_all_five_verdicts(self):
        from repro.core.campaign import CampaignReport

        report = CampaignReport(
            [
                make_cell("a", "q1", Verdict.VERIFIED),
                make_cell("a", "q2", Verdict.FALSIFIED),
                make_cell("a", "q3", Verdict.MAX_FOUND),
                make_cell("a", "q4", Verdict.TIMEOUT),
                make_cell("a", "q5", Verdict.ERROR),
            ]
        )
        text = report.render()
        for mark in (
            "proved", "FALSIFIED", "max-found", "time-out", "ERROR"
        ):
            assert mark in text
        # no raw enum-value fallback
        assert "max_found" not in text

    def test_render_missing_cell_dash(self):
        from repro.core.campaign import CampaignReport

        report = CampaignReport(
            [
                make_cell("a", "q1", Verdict.VERIFIED),
                make_cell("b", "q2", Verdict.VERIFIED),
            ]
        )
        lines = report.render().splitlines()
        assert any("-" in line.split() for line in lines)

    def test_verdict_counts_and_summary(self):
        from repro.core.campaign import CampaignReport

        report = CampaignReport(
            [
                make_cell("a", "q1", Verdict.MAX_FOUND, wall=2.0),
                make_cell("a", "q2", Verdict.ERROR, wall=1.0),
            ],
            wall_time=1.5,
            jobs=2,
        )
        counts = report.verdict_counts()
        assert counts[Verdict.MAX_FOUND] == 1
        assert counts[Verdict.ERROR] == 1
        assert report.total_cell_time == pytest.approx(3.0)
        assert report.speedup == pytest.approx(2.0)
        summary = report.summary()
        assert "2 cells" in summary
        assert "1 max-found" in summary
        assert "1 ERROR" in summary
        assert "2 workers" in summary


class TestQueries:
    def test_add_max_query(self, campaign, nets):
        campaign.add_network(nets[0], "a")
        campaign.add_max_query(
            "max0", unit_region(), OutputObjective.single(0)
        )
        report = campaign.run()
        cell = report.cell("a", "max0")
        assert cell.result.verdict is Verdict.MAX_FOUND
        assert cell.passed

    def test_duplicate_query_name_rejected(self, campaign):
        campaign.add_max_query(
            "q", unit_region(), OutputObjective.single(0)
        )
        with pytest.raises(CertificationError):
            campaign.add_property(prop("q", 1.0))

    def test_invalid_kind_rejected(self):
        from repro.core.campaign import CampaignQuery

        with pytest.raises(CertificationError):
            CampaignQuery(
                name="q",
                region=unit_region(),
                objective=OutputObjective.single(0),
                kind="minimize",
            )


def infeasible_region(dim=4):
    from repro.core.properties import LinearInputConstraint

    region = unit_region(dim)
    region.add_constraint(LinearInputConstraint({0: 1.0}, rhs=-2.0))
    return region


def matrix_campaign(num_nets=3):
    from repro.core.encoder import EncoderOptions

    c = VerificationCampaign(
        EncoderOptions(bound_mode="interval"),
        MILPOptions(time_limit=60.0),
    )
    for s in range(num_nets):
        c.add_network(
            FeedForwardNetwork.mlp(
                4, [5], 2, rng=np.random.default_rng(s)
            ),
            f"net{s}",
        )
    c.add_property(prop("loose", 1000.0))
    c.add_property(prop("tight", -1000.0, output=1))
    c.add_max_query("max0", unit_region(), OutputObjective.single(0))
    return c


def cell_tuples(report):
    return [
        (c.network_id, c.property_name, c.result.verdict)
        for c in report.cells
    ]


class TestParallel:
    def test_serial_parallel_equivalence(self):
        serial = matrix_campaign().run()
        parallel = matrix_campaign().run(jobs=2)
        assert cell_tuples(serial) == cell_tuples(parallel)
        assert parallel.jobs == 2
        for s, p in zip(serial.cells, parallel.cells):
            if not np.isnan(s.result.value):
                assert p.result.value == pytest.approx(s.result.value)

    def test_parallel_reproduces_serial_bit_for_bit(self):
        """jobs=2 reproduces the serial verdicts, values and node counts
        exactly."""
        def build():
            c = VerificationCampaign(
                EncoderOptions(bound_mode="interval"),
                MILPOptions(time_limit=60.0),
            )
            for seed in (0, 1):
                c.add_network(FeedForwardNetwork.mlp(
                    3, [4 + seed], 2, rng=np.random.default_rng(seed),
                ))
            for k in range(2):
                c.add_max_query(
                    f"q{k}", unit_region(3), OutputObjective.single(k)
                )
            return c

        serial = build().run()
        parallel = build().run(jobs=2)
        assert len(serial.cells) == len(parallel.cells) == 4
        for cell in serial.cells:
            twin = parallel.cell(cell.network_id, cell.property_name)
            assert twin.result.verdict is cell.result.verdict
            assert twin.result.value == cell.result.value  # bit-for-bit
            assert twin.result.nodes == cell.result.nodes

    def test_jobs_zero_means_cpu_count(self):
        from repro.core.campaign import resolve_jobs

        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        with pytest.raises(CertificationError):
            resolve_jobs(-1)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_infeasible_query_isolated(self, jobs):
        c = matrix_campaign()
        c.add_max_query(
            "empty", infeasible_region(), OutputObjective.single(0)
        )
        report = c.run(jobs=jobs)
        errors = report.errors()
        assert len(errors) == 3
        assert all(e.property_name == "empty" for e in errors)
        assert all(
            "infeasible" in e.result.description for e in errors
        )
        healthy = [
            c for c in report.cells if c.property_name != "empty"
        ]
        assert all(
            c.result.verdict is not Verdict.ERROR for c in healthy
        )

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_poisoned_network_isolated(self, jobs):
        """A network the bound stage rejects only errors its own row."""
        c = matrix_campaign()
        c.add_network(
            FeedForwardNetwork.mlp(
                3, [5], 2, rng=np.random.default_rng(9)
            ),
            "poison",
        )
        report = c.run(jobs=jobs)
        poison = [
            cell for cell in report.cells
            if cell.network_id == "poison"
        ]
        assert len(poison) == 3
        for cell in poison:
            assert cell.result.verdict is Verdict.ERROR
            assert cell.traceback is not None
            assert "EncodingError" in cell.traceback
        rest = [
            cell for cell in report.cells
            if cell.network_id != "poison"
        ]
        assert all(
            cell.result.verdict is not Verdict.ERROR for cell in rest
        )

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_progress_hook(self, jobs):
        events = []
        report = matrix_campaign(num_nets=2).run(
            jobs=jobs,
            progress=lambda done, total, cell: events.append(
                (done, total, cell.property_name)
            ),
        )
        assert len(events) == len(report.cells) == 6
        assert [e[0] for e in events] == list(range(1, 7))
        assert all(e[1] == 6 for e in events)

    def test_cell_budget_overrun_times_out(self):
        c = matrix_campaign(num_nets=1)
        c.cell_time_limit = 1e-4
        report = c.run()
        assert all(
            cell.result.verdict is Verdict.TIMEOUT
            for cell in report.cells
        )

    def test_parallel_shares_bounds_per_geometry(self):
        """Stage 1 runs one computation per unique (net, geometry) pair:
        equal-but-distinct regions collapse onto one content key."""
        c = matrix_campaign(num_nets=2)  # 2 nets x 3 queries, 1 geometry
        tasks = c._build_tasks()
        assert len(tasks) == 6
        assert len({t.bounds_key for t in tasks}) == 2
        report = c.run(jobs=2)
        assert len(report.cells) == 6


class TestDegenerateAccounting:
    """Empty reports and broken clocks must not flatter the campaign."""

    def test_empty_report_is_not_a_certificate(self):
        from repro.core.campaign import CampaignReport

        report = CampaignReport([])
        assert report.all_passed is False
        assert report.pass_rate == 0.0
        assert report.total_cell_time == 0.0
        assert report.speedup == 1.0  # nothing ran, nothing gained
        assert "empty" in report.summary()

    def test_zero_wall_with_cell_time_is_unbounded_not_parity(self):
        """Regression: nonzero cell time against a zero wall clock used
        to report speedup 1.0 — parity — instead of unbounded."""
        import math

        from repro.core.campaign import CampaignReport

        report = CampaignReport(
            [make_cell("a", "q", Verdict.MAX_FOUND, wall=3.0)],
            wall_time=0.0,
        )
        assert math.isinf(report.speedup)

    def test_zero_wall_zero_cell_time_is_parity(self):
        from repro.core.campaign import CampaignReport

        report = CampaignReport(
            [make_cell("a", "q", Verdict.MAX_FOUND, wall=0.0)],
            wall_time=0.0,
        )
        assert report.speedup == 1.0


# -- worker-crash fault isolation -----------------------------------------

#: Crash tests hard-kill forked workers running classes defined here;
#: only the fork start method inherits those definitions.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-crash tests need the fork start method",
)


def _armed(obj):
    """True when ``obj`` is evaluated outside the pid that armed it."""
    return os.getpid() != obj.__dict__.get("_home_pid", os.getpid())


class BombNetwork(FeedForwardNetwork):
    """Hard-kills any *worker* process that evaluates it."""

    def forward(self, x, train=False):
        if _armed(self):
            os._exit(13)
        return super().forward(x, train=train)


class BombRegion(InputRegion):
    """Hard-kills any *worker* process that reads its bounds."""

    @property
    def bounds(self):
        if _armed(self):
            os._exit(17)
        return self.__dict__["_bounds_arr"]

    @bounds.setter
    def bounds(self, value):
        self.__dict__["_bounds_arr"] = value


def bomb_network(seed=7):
    net = BombNetwork(
        FeedForwardNetwork.mlp(
            4, [5], 2, rng=np.random.default_rng(seed)
        ).layers
    )
    net._home_pid = os.getpid()
    return net


def bomb_region(dim=4):
    # Geometry distinct from unit_region(): a shared bounds/verdict
    # cache entry would otherwise answer without touching a worker.
    region = BombRegion(np.array([[-0.9, 0.9]] * dim))
    region._home_pid = os.getpid()
    return region


@needs_fork
class TestWorkerCrashIsolation:
    """A killed worker costs exactly its in-flight job, nothing else."""

    def test_mid_cell_crash_confined_to_the_bomb_network(self):
        baseline = matrix_campaign(num_nets=2).run()
        c = matrix_campaign(num_nets=2)
        c.add_network(bomb_network(), "bomb")
        report = c.run(jobs=2)
        # The bomb's max query forces an in-worker forward() replay.
        boom = report.cell("bomb", "max0")
        assert boom.result.verdict is Verdict.ERROR
        assert "worker process died" in boom.result.description
        # Every error is the bomb's; no healthy cell was collateral.
        assert all(e.network_id == "bomb" for e in report.errors())
        # Survivors match a bomb-free serial run bit-for-bit.
        healthy = [t for t in cell_tuples(report) if t[0] != "bomb"]
        assert healthy == cell_tuples(baseline)
        survivors = [c for c in report.cells if c.network_id != "bomb"]
        for s, p in zip(baseline.cells, survivors):
            if not np.isnan(s.result.value):
                assert p.result.value == s.result.value

    def test_mid_bounds_crash_confined_to_the_region_key(self):
        baseline = matrix_campaign(num_nets=2).run()
        c = matrix_campaign(num_nets=2)
        c.add_max_query("boom", bomb_region(), OutputObjective.single(0))
        report = c.run(jobs=2)
        boom = [
            cell for cell in report.cells
            if cell.property_name == "boom"
        ]
        assert len(boom) == 2
        for cell in boom:
            assert cell.result.verdict is Verdict.ERROR
            assert (
                "bound computation failed" in cell.result.description
            )
            assert "worker process died" in (cell.traceback or "")
        healthy = [t for t in cell_tuples(report) if t[1] != "boom"]
        assert healthy == cell_tuples(baseline)


class TestAttachedPool:
    """Campaigns sharing one pool share its workers and caches."""

    def test_pool_workers_decide_the_fanout(self):
        from repro.core.pool import VerificationPool

        with VerificationPool(workers=2) as pool:
            report = matrix_campaign().run(pool=pool)
            assert report.jobs == 2
            assert cell_tuples(report) == cell_tuples(
                matrix_campaign().run()
            )

    def test_second_run_is_all_verdict_cache_hits(self):
        from repro.core.pool import VerificationPool

        with VerificationPool(workers=2) as pool:
            first = matrix_campaign().run(pool=pool)
            hits_before = pool.verdict_cache.hits
            second = matrix_campaign().run(pool=pool)
            assert cell_tuples(second) == cell_tuples(first)
            for a, b in zip(first.cells, second.cells):
                if not np.isnan(a.result.value):
                    assert b.result.value == a.result.value
            hits = pool.verdict_cache.hits - hits_before
            assert hits == len(second.cells)
            assert all(
                cell.result.metrics.get("verdict_cache_hit") == 1.0
                for cell in second.cells
            )

    def test_serial_run_shares_the_pool_caches(self):
        from repro.core.pool import VerificationPool

        with VerificationPool(workers=1) as pool:
            matrix_campaign().run(pool=pool)  # workers=1: serial path
            report = matrix_campaign().run(pool=pool)
            assert all(
                cell.result.metrics.get("verdict_cache_hit") == 1.0
                for cell in report.cells
            )
            # No worker was ever needed for the cached runs.
            assert pool.stats()["verdict_cache.hits"] >= len(
                report.cells
            )


class TestInProcessPool:
    """Serial runs are the in-process pool: same engine, no fork."""

    def test_serial_campaign_never_forks(self, monkeypatch):
        from multiprocessing.process import BaseProcess

        def no_fork(self):
            raise AssertionError("serial campaign started a process")

        # Relative to what is alive before, so a process another test
        # left behind cannot fail this one.
        before = set(multiprocessing.active_children())
        monkeypatch.setattr(BaseProcess, "start", no_fork)
        report = matrix_campaign().run()
        assert report.jobs == 1
        assert len(report.cells) == 9
        assert set(multiprocessing.active_children()) <= before

    def test_prewarm_never_forks(self, monkeypatch):
        from multiprocessing.process import BaseProcess

        from repro.core.pool import InProcessPool

        def no_fork(self):
            raise AssertionError("in-process pool started a process")

        monkeypatch.setattr(BaseProcess, "start", no_fork)
        with InProcessPool() as pool:
            assert pool.prewarm() == 0
            job = pool.submit_task("ping", None)
            assert [done.id for done in pool.wait()] == [job.id]
            assert job.result == os.getpid()
