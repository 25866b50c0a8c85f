"""VerificationPool tests: caches, job API, crash recovery, durability,
and the health plane (heartbeats, stall detection, degraded dashboards).
"""

import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.campaign import CampaignQuery
from repro.core.encoder import EncoderOptions
from repro.core.pool import (
    CACHEABLE_VERDICTS,
    VerdictCache,
    VerificationPool,
)
from repro.core.properties import InputRegion, OutputObjective
from repro.core.verifier import (
    VerificationResult,
    Verdict,
    Verifier,
    result_from_dict,
    result_to_dict,
    verdict_fingerprint,
)
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork

#: The crash tests hard-kill forked workers running classes defined in
#: this module; only the fork start method inherits those definitions.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-crash tests need the fork start method",
)

ENC = EncoderOptions(bound_mode="interval")
MILP = MILPOptions(time_limit=60.0)


def unit_region(dim=3):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


def make_net(seed=0):
    return FeedForwardNetwork.mlp(
        3, [5], 2, rng=np.random.default_rng(seed)
    )


def max_query(name="q", region=None, output=0):
    return CampaignQuery(
        name=name,
        region=region or unit_region(),
        objective=OutputObjective.single(output),
        kind="max",
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


class SlowNetwork(FeedForwardNetwork):
    """Sleeps inside any *worker* process that evaluates it."""

    def forward(self, x, train=False):
        if _armed(self):
            time.sleep(self.__dict__.get("_delay", 1.0))
        return super().forward(x, train=train)


def bomb_network(seed=99):
    net = BombNetwork(make_net(seed).layers)
    net._home_pid = os.getpid()
    return net


def slow_network(delay=1.5, seed=7):
    net = SlowNetwork(make_net(seed).layers)
    net._home_pid = os.getpid()
    net._delay = delay
    return net


def bomb_region(dim=3):
    region = BombRegion(np.array([[-0.9, 0.9]] * dim))
    region._home_pid = os.getpid()
    return region


def a_result(verdict=Verdict.MAX_FOUND, value=1.25):
    return VerificationResult(
        verdict=verdict,
        value=value,
        best_bound=value,
        counterexample=np.array([0.1, -0.2, 0.3]),
        network_value=value,
        wall_time=0.5,
        nodes=7,
        num_binaries=4,
        description="unit",
        lp_iterations=42,
        metrics={"warm_start_hits": 3.0},
    )


class TestVerdictCache:
    def test_roundtrip_preserves_verdict_and_optimum(self):
        cache = VerdictCache()
        stored = a_result()
        assert cache.put("fp", stored)
        got = cache.get("fp")
        assert got.verdict is stored.verdict
        assert got.value == stored.value  # bit-for-bit
        assert got.metrics["verdict_cache_hit"] == 1.0
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counted(self):
        cache = VerdictCache()
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_nondeterministic_verdicts_refused(self):
        cache = VerdictCache()
        for verdict in (Verdict.TIMEOUT, Verdict.ERROR):
            assert verdict not in CACHEABLE_VERDICTS
            assert not cache.put("fp", a_result(verdict=verdict))
        assert len(cache) == 0

    def test_hit_is_a_defensive_copy(self):
        cache = VerdictCache()
        cache.put("fp", a_result())
        first = cache.get("fp")
        first.counterexample[0] = 99.0
        first.metrics["warm_start_hits"] = -1.0
        second = cache.get("fp")
        assert second.counterexample[0] == 0.1
        assert second.metrics["warm_start_hits"] == 3.0

    def test_spill_reloads_across_instances(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        VerdictCache(spill_path=path).put("fp", a_result())
        reborn = VerdictCache(spill_path=path)
        assert len(reborn) == 1
        got = reborn.get("fp")
        assert got.value == 1.25
        assert got.nodes == 7

    def test_result_dict_roundtrip_exact(self):
        stored = a_result()
        back = result_from_dict(result_to_dict(stored))
        assert back.verdict is stored.verdict
        assert back.value == stored.value
        assert back.best_bound == stored.best_bound
        assert np.array_equal(back.counterexample, stored.counterexample)
        assert back.metrics == stored.metrics

    def test_result_dict_handles_nans_and_none(self):
        sparse = VerificationResult(verdict=Verdict.ERROR)
        back = result_from_dict(result_to_dict(sparse))
        assert back.verdict is Verdict.ERROR
        assert math.isnan(back.value)
        assert back.counterexample is None


class TestVerdictFingerprint:
    def base(self, **overrides):
        params = dict(
            network=make_net(),
            region=unit_region(),
            objective=OutputObjective.single(0),
            kind="max",
            threshold=0.0,
            encoder_options=ENC,
            milp_options=MILP,
        )
        params.update(overrides)
        return verdict_fingerprint(**params)

    def test_equal_inputs_equal_fingerprint(self):
        assert self.base() == self.base()

    def test_region_name_excluded(self):
        renamed = unit_region()
        renamed.name = "other-name"
        assert self.base() == self.base(region=renamed)

    @pytest.mark.parametrize("change", [
        dict(network=make_net(seed=1)),
        dict(region=InputRegion(np.array([[-0.5, 0.5]] * 3))),
        dict(objective=OutputObjective.single(1)),
        dict(kind="prove"),
        dict(threshold=2.0),
        dict(encoder_options=EncoderOptions(bound_mode="lp")),
        dict(encoder_options=EncoderOptions(bound_mode="alpha")),
        dict(milp_options=MILPOptions(time_limit=30.0)),
        dict(milp_options=MILPOptions(time_limit=60.0, warm_start=False)),
        dict(milp_options=MILPOptions(
            time_limit=60.0, lp_backend="revised",
        )),
    ])
    def test_any_input_change_changes_fingerprint(self, change):
        assert self.base() != self.base(**change)

    def test_alpha_tuning_changes_fingerprint(self):
        """Two alpha runs with different optimiser settings produce
        different bounds, so they must never share a cached verdict."""
        base = self.base(
            encoder_options=EncoderOptions(bound_mode="alpha")
        )
        retuned = self.base(
            encoder_options=EncoderOptions(
                bound_mode="alpha", alpha_iters=5
            )
        )
        relearned = self.base(
            encoder_options=EncoderOptions(
                bound_mode="alpha", alpha_lr=0.1
            )
        )
        assert len({base, retuned, relearned}) == 3

    def test_alpha_tuning_changes_bounds_cache_key(self):
        from repro.core.bounds import (
            bounds_cache_key,
            decode_bound_mode,
            encode_bound_mode,
        )

        net = make_net()
        region = unit_region()
        keys = {
            bounds_cache_key(net, region, encode_bound_mode(*cfg))
            for cfg in [
                ("symbolic", None, None),
                ("alpha", None, None),
                ("alpha", 5, None),
                ("alpha", None, 0.1),
            ]
        }
        assert len(keys) == 4
        # Plain modes keep their bare token so pre-existing cache
        # spills stay valid; alpha tokens round-trip their tuning.
        assert encode_bound_mode("symbolic", None, None) == "symbolic"
        token = encode_bound_mode("alpha", 5, 0.1)
        assert decode_bound_mode(token) == ("alpha", 5, 0.1)


class TestJobAPI:
    def test_submit_fetch_matches_in_process_solve(self):
        net = make_net()
        expected = Verifier(net, ENC, MILP).maximize(
            unit_region(), OutputObjective.single(0),
            raise_on_infeasible=False,
        )
        with VerificationPool(workers=1) as pool:
            ticket = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            assert not ticket.cached
            result = pool.fetch(ticket, timeout=120)
        assert result.verdict is expected.verdict
        assert result.value == expected.value  # bit-for-bit

    def test_repeat_submission_answered_from_cache(self):
        net = make_net()
        with VerificationPool(workers=1) as pool:
            first = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            got = pool.fetch(first, timeout=120)
            second = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            assert second.cached
            assert second.fingerprint == first.fingerprint
            cached = pool.fetch(second)
            assert cached.verdict is got.verdict
            assert cached.value == got.value
            assert cached.metrics["verdict_cache_hit"] == 1.0
            stats = pool.stats()
            assert stats["verdict_cache.hits"] >= 1

    def test_stream_relays_trace_records_live(self):
        net = make_net()
        with VerificationPool(workers=1) as pool:
            ticket = pool.submit(
                net, max_query(), encoder_options=ENC,
                milp_options=MILP, stream=True,
            )
            records = list(pool.stream(ticket))
            result = pool.fetch(ticket, timeout=120)
        assert result.verdict is Verdict.MAX_FOUND
        names = {r.get("name") for r in records}
        assert "cell" in names  # the worker's cell span came through

    def test_poll_reaches_done(self):
        net = make_net()
        with VerificationPool(workers=1) as pool:
            ticket = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            deadline = 120
            import time as _time

            t0 = _time.monotonic()
            while pool.poll(ticket) != "done":
                assert _time.monotonic() - t0 < deadline
                pool.wait(timeout=0.1)
            assert pool.fetch(ticket).verdict is Verdict.MAX_FOUND

    def test_prewarm_spawns_full_complement(self):
        with VerificationPool(workers=2) as pool:
            assert pool.prewarm() == 2
            assert pool.stats()["pool.workers"] == 2

    def test_shutdown_is_idempotent_and_final(self):
        from repro.errors import CertificationError

        pool = VerificationPool(workers=1)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(CertificationError):
            pool.submit_task("ping", None)


class TestDurability:
    def test_verdicts_survive_pool_restart(self, tmp_path):
        net = make_net()
        cache_dir = str(tmp_path / "cache")
        with VerificationPool(workers=1, cache_dir=cache_dir) as pool:
            ticket = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            first = pool.fetch(ticket, timeout=120)
        assert os.path.exists(os.path.join(cache_dir, "verdicts.jsonl"))
        # A fresh pool over the same directory answers without workers.
        with VerificationPool(workers=1, cache_dir=cache_dir) as pool:
            ticket = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            assert ticket.cached
            again = pool.fetch(ticket)
        assert again.verdict is first.verdict
        assert again.value == first.value  # bit-for-bit through JSONL

    def test_bounds_cache_spill_roundtrip(self, tmp_path):
        from repro.core.bounds import BoundsCache

        net = make_net()
        path = str(tmp_path / "bounds.jsonl")
        cache = BoundsCache(spill_path=path)
        bounds, error = cache.lookup(net, unit_region(), "interval")
        assert error is None
        reborn = BoundsCache(spill_path=path)
        assert len(reborn) == 1
        entry = reborn.peek(
            (net.fingerprint(), unit_region().fingerprint(), "interval")
        )
        assert entry is not None
        shared, err = entry
        assert err is None
        for fresh, orig in zip(shared, bounds):
            np.testing.assert_array_equal(fresh.lower, orig.lower)
            np.testing.assert_array_equal(fresh.upper, orig.upper)
            assert not fresh.lower.flags.writeable


@needs_fork
class TestCrashRecovery:
    def test_mid_cell_crash_degrades_to_error_result(self):
        bomb = bomb_network()
        with VerificationPool(workers=1) as pool:
            ticket = pool.submit(
                bomb, max_query(), encoder_options=ENC, milp_options=MILP
            )
            result = pool.fetch(ticket, timeout=120)
            assert result.verdict is Verdict.ERROR
            assert "worker" in result.description
            # The pool respawned: the next (healthy) job completes.
            good = pool.submit(
                make_net(), max_query(),
                encoder_options=ENC, milp_options=MILP,
            )
            assert pool.fetch(good, timeout=120).verdict is (
                Verdict.MAX_FOUND
            )
            assert pool.stats()["pool.worker_crashes"] >= 1

    def test_crash_not_memoised(self):
        """A crashed job must never poison the verdict cache."""
        bomb = bomb_network()
        with VerificationPool(workers=1) as pool:
            ticket = pool.submit(
                bomb, max_query(), encoder_options=ENC, milp_options=MILP
            )
            pool.fetch(ticket, timeout=120)
            retry = pool.submit(
                bomb, max_query(), encoder_options=ENC, milp_options=MILP
            )
            assert not retry.cached
            pool.fetch(retry, timeout=120)

    def test_queued_jobs_survive_a_crash(self):
        """One worker, bomb first in line: the queue keeps draining."""
        with VerificationPool(workers=1) as pool:
            bad = pool.submit(
                bomb_network(), max_query(),
                encoder_options=ENC, milp_options=MILP,
            )
            good = pool.submit(
                make_net(), max_query("q2", output=1),
                encoder_options=ENC, milp_options=MILP,
            )
            assert pool.fetch(bad, timeout=120).verdict is Verdict.ERROR
            assert pool.fetch(good, timeout=120).verdict is (
                Verdict.MAX_FOUND
            )


class TestStatsAndHealth:
    def test_stats_expose_queue_cache_and_worker_gauges(self):
        net = make_net()
        with VerificationPool(workers=1) as pool:
            first = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            pool.fetch(first, timeout=120)
            second = pool.submit(
                net, max_query(), encoder_options=ENC, milp_options=MILP
            )
            pool.fetch(second)
            stats = pool.stats()
        assert stats["pool.queue_depth"] == 0
        assert stats["pool.in_flight"] == 0
        assert stats["pool.jobs_done"] >= 1
        # One miss (first submit) then one hit (the repeat).
        assert stats["verdict_cache.hit_rate"] == 0.5
        assert 0.0 <= stats["bounds_cache.hit_rate"] <= 1.0
        assert stats["pool.worker1.alive"] == 1.0
        assert stats["pool.worker1.jobs_done"] >= 1
        assert stats["pool.worker1.job_age"] == 0.0
        # Completed jobs feed the wall-time histogram with quantiles.
        assert stats["pool.job_wall.count"] >= 1
        assert "pool.job_wall.p95" in stats

    def test_render_stats_mentions_queue_and_hit_rates(self):
        with VerificationPool(workers=1) as pool:
            text = pool.render_stats()
        assert "queued" in text
        assert text.count("hit rate") == 2

    def test_health_structure_for_an_idle_fleet(self):
        with VerificationPool(
            workers=1, heartbeat_interval=0.05
        ) as pool:
            pool.prewarm()
            time.sleep(0.15)
            pool.wait(timeout=0)  # drain idle heartbeats
            health = pool.health()
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["stalls"] == 0
        [worker] = health["workers"]
        assert worker["state"] == "idle"
        assert worker["job"] is None
        assert worker["last_heartbeat_age"] is not None
        assert worker["last_heartbeat_age"] < 5.0
        assert worker["uptime"] >= 0.0

    def test_heartbeats_can_be_disabled(self):
        with VerificationPool(
            workers=1, heartbeat_interval=None
        ) as pool:
            pool.prewarm()
            time.sleep(0.1)
            pool.wait(timeout=0)
            [worker] = pool.health()["workers"]
        assert worker["last_heartbeat_age"] is None


@needs_fork
class TestHealthPlaneUnderFailure:
    """The acceptance scenario: a degraded fleet must be *visible* —
    in per-worker gauges, in trace events, and on the ``repro top``
    dashboard — not just survivable."""

    @staticmethod
    def _top_record(pool):
        return {
            "schema": "repro-metrics/1",
            "t": time.time(),
            "source": "test",
            "metrics": pool.stats(),
            "health": pool.health(),
        }

    def test_stall_detection_is_visible(self):
        from repro.obs import RingBufferSink, Tracer
        from repro.obs.top import render_top

        sink = RingBufferSink()
        with VerificationPool(
            workers=1,
            tracer=Tracer([sink]),
            heartbeat_interval=0.05,
            stall_factor=0.5,
        ) as pool:
            # The solve finishes in milliseconds, well inside the 0.2s
            # budget; the worker then sleeps 1.5s in replay, blowing
            # past stall_factor * budget = 0.1s while still in-flight.
            ticket = pool.submit(
                slow_network(delay=1.5), max_query(),
                encoder_options=ENC,
                milp_options=MILPOptions(time_limit=0.2),
            )
            deadline = time.monotonic() + 60
            stalled_view = None
            while time.monotonic() < deadline:
                pool.wait(timeout=0.05)
                if pool.stats().get("pool.stalls", 0) >= 1:
                    stalled_view = self._top_record(pool)
                    break
            assert stalled_view is not None, "stall never flagged"
            [worker] = stalled_view["health"]["workers"]
            assert worker["state"] == "stalled"
            assert worker["job_age"] > 0.5 * worker["job_budget"]
            dashboard = render_top(stalled_view)
            assert "STALLED" in dashboard
            assert "ALERT: 1 worker(s) degraded" in dashboard
            # The job is flagged, not killed: it still completes.
            result = pool.fetch(ticket, timeout=120)
            assert result.verdict is Verdict.MAX_FOUND
        events = [r for r in sink.records if r.get("name") == "pool_stall"]
        assert len(events) == 1  # one event per job, not per check
        assert events[0]["attrs"]["job_kind"] == "cell"
        attrs = events[0]["attrs"]
        assert attrs["age"] > attrs["stall_factor"] * attrs["budget"]

    def test_killed_worker_mid_job_is_fully_observable(self):
        from repro.obs import RingBufferSink, Tracer
        from repro.obs.top import render_top

        sink = RingBufferSink()
        with VerificationPool(
            workers=1,
            tracer=Tracer([sink]),
            heartbeat_interval=0.05,
        ) as pool:
            ticket = pool.submit(
                slow_network(delay=60.0), max_query(),
                encoder_options=ENC, milp_options=MILP,
            )
            deadline = time.monotonic() + 60
            victim = None
            while time.monotonic() < deadline:
                pool.wait(timeout=0.05)
                busy = [
                    w for w in pool.health()["workers"]
                    if w["job"] is not None
                ]
                if busy:
                    victim = busy[0]
                    break
            assert victim is not None, "job never reached a worker"
            os.kill(victim["pid"], signal.SIGKILL)
            # Observe the corpse *before* the pool reaps it: the dead
            # handle still holds the job, so dashboards show DEAD.
            deadline = time.monotonic() + 30
            dead_view = None
            while time.monotonic() < deadline:
                workers = pool.health()["workers"]
                if any(w["state"] == "dead" for w in workers):
                    dead_view = self._top_record(pool)
                    break
                time.sleep(0.02)
            assert dead_view is not None, "death never surfaced"
            index = victim["worker"]
            assert (
                dead_view["metrics"][f"pool.worker{index}.alive"] == 0.0
            )
            dashboard = render_top(dead_view)
            assert "DEAD" in dashboard
            assert "ALERT: 1 worker(s) degraded (dead)" in dashboard
            # Reap: the job degrades to ERROR, crash + respawn counted.
            result = pool.fetch(ticket, timeout=120)
            assert result.verdict is Verdict.ERROR
            assert "worker" in result.description
            good = pool.submit(
                make_net(), max_query("q2", output=1),
                encoder_options=ENC, milp_options=MILP,
            )
            assert pool.fetch(good, timeout=120).verdict is (
                Verdict.MAX_FOUND
            )
            stats = pool.stats()
            assert stats["pool.worker_crashes"] >= 1
            assert stats["pool.respawns"] >= 1
        crashes = [
            r for r in sink.records
            if r.get("name") == "pool_worker_crash"
        ]
        assert crashes
        assert crashes[0]["attrs"]["job_kind"] == "cell"
