"""VerificationPool tests: caches and their spills, durability, crash
recovery and accounting, driven through ``VerificationCampaign.run``.
"""

import logging
import math
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.bounds import BoundsCache
from repro.core.campaign import VerificationCampaign
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


def campaign(*networks, outputs=(0,)):
    """A max-query campaign over the unit box, one query per output."""
    c = VerificationCampaign(ENC, MILP)
    for i, net in enumerate(networks):
        c.add_network(net, f"n{i}")
    for output in outputs:
        c.add_max_query(
            f"max{output}", unit_region(), OutputObjective.single(output)
        )
    return c


def verdicts(report):
    return [
        (c.network_id, c.property_name, c.result.verdict, c.result.value)
        for c in report.cells
    ]


def tear_last_line(path):
    """Cut the file's last record in half, as a kill mid-append would."""
    with open(path, "rb") as fh:
        data = fh.read().rstrip(b"\n")
    start = data.rfind(b"\n") + 1
    with open(path, "wb") as fh:
        fh.write(data[: start + (len(data) - start) // 2])


def _armed(obj):
    """True when ``obj`` is evaluated outside the pid that armed it."""
    return os.getpid() != obj.__dict__.get("_home_pid", os.getpid())


class BombNetwork(FeedForwardNetwork):
    """Hard-kills any *worker* process that evaluates it."""

    def forward(self, x, train=False):
        if _armed(self):
            os._exit(13)
        return super().forward(x, train=train)


def bomb_network(seed=99):
    net = BombNetwork(make_net(seed).layers)
    net._home_pid = os.getpid()
    return net


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
        metrics={"split_cells": 3.0},
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
        first.metrics["split_cells"] = -1.0
        second = cache.get("fp")
        assert second.counterexample[0] == 0.1
        assert second.metrics["split_cells"] == 3.0

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
        dict(encoder_options=EncoderOptions(bound_mode="symbolic")),
        dict(milp_options=MILPOptions(time_limit=30.0)),
        dict(milp_options=MILPOptions(time_limit=60.0, node_limit=1000)),
        dict(encoder_options=EncoderOptions(bound_mode="interval", certify=True)),
    ])
    def test_any_input_change_changes_fingerprint(self, change):
        assert self.base() != self.base(**change)


def _pre_upgrade_fingerprint(network, region, objective, kind, threshold,
                             encoder_options, milp_options):
    """The verdict fingerprint as it was computed while the encoder
    options still carried the slope optimiser's two fields (at their
    defaults, 20 iterations and step 0.5)."""
    import dataclasses
    import hashlib

    def token(fields):
        return ";".join(f"{k}={fields[k]!r}" for k in sorted(fields))

    encoder = dataclasses.asdict(encoder_options)
    encoder.update(alpha_iters=20, alpha_lr=0.5)
    digest = hashlib.sha256()
    digest.update(network.fingerprint().encode())
    digest.update(region.fingerprint().encode())
    for idx in sorted(objective.coefficients):
        digest.update(f"{idx}:{objective.coefficients[idx]!r};".encode())
    digest.update(f"|{kind}|{threshold!r}|".encode())
    digest.update(token(encoder).encode())
    digest.update(b"|")
    digest.update(token(dataclasses.asdict(milp_options)).encode())
    return digest.hexdigest()


class TestCacheUpgrade:
    """Caches spilled before the slope optimiser was removed."""

    def test_old_alpha_options_token_misses(self, tmp_path):
        """A verdict cached under the old options token is never served:
        the two optimiser fields left the token, so every fingerprint
        changed and such a cell is solved afresh."""
        import dataclasses

        from repro.core.verifier import _options_token

        assert {f.name for f in dataclasses.fields(EncoderOptions)}.isdisjoint(
            {"alpha_iters", "alpha_lr"}
        )
        assert "alpha" not in _options_token(EncoderOptions())
        net, region = make_net(), unit_region()
        objective = OutputObjective.single(0)
        old = _pre_upgrade_fingerprint(
            net, region, objective, "max", 0.0, ENC, MILP
        )
        assert old != verdict_fingerprint(
            net, region, objective, "max", 0.0, ENC, MILP
        )
        stale = a_result(value=123.0)
        VerdictCache(spill_path=str(tmp_path / "verdicts.jsonl")).put(
            old, stale
        )
        from repro.core.pool import InProcessPool

        with InProcessPool(cache_dir=str(tmp_path)) as pool:
            campaign = VerificationCampaign(ENC, MILP)
            campaign.add_network(net)
            campaign.add_max_query("max0", region, objective)
            (cell,) = campaign.run(pool=pool).cells
        assert cell.result.verdict is Verdict.MAX_FOUND
        assert cell.result.value != 123.0
        assert "verdict_cache_hit" not in cell.result.metrics

    def test_alpha_bounds_spill_entry_loads_but_never_hits(self, tmp_path):
        """A ``bounds.jsonl`` line keyed by an alpha token still loads;
        no bound mode reaches it, and a bare ``lp`` line in the same
        file still hits."""
        import json

        from repro.core.bounds import bounds_cache_key, interval_bounds
        from repro.core.encoder import BOUND_MODES

        net, region = make_net(), unit_region()
        real = interval_bounds(net, region)

        def line(mode, shift):
            return json.dumps({
                "key": list(bounds_cache_key(net, region, mode)),
                "error": None,
                "layers": [
                    {
                        "lower": (b.lower - shift).tolist(),
                        "upper": (b.upper + shift).tolist(),
                    }
                    for b in real
                ],
            })

        path = tmp_path / "bounds.jsonl"
        path.write_text(
            line("alpha;iters=20;lr=0.5", 7.0) + "\n"
            + line("lp", 1.0) + "\n"
        )
        cache = BoundsCache(spill_path=str(path))
        assert len(cache) == 2
        got, error = cache.lookup(net, region, "lp")
        assert error is None and cache.hits == 1
        assert np.array_equal(got[0].lower, real[0].lower - 1.0)
        for mode in BOUND_MODES:
            got, _ = cache.lookup(net, region, mode)
            assert not np.array_equal(got[0].lower, real[0].lower - 7.0)
        assert cache.hits == 2  # only the two "lp" lookups
        assert cache.misses == 2  # interval and symbolic computed


class TestTornSpill:
    """A process killed mid-append leaves a torn last spill line: it
    must cost a cache miss, never the cache or a later append."""

    @pytest.fixture(autouse=True)
    def _propagate(self, monkeypatch):
        # CLI runs set propagate=False on the "repro" root logger;
        # caplog captures at the true root.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

    def test_torn_verdict_spill_is_skipped_and_appended_past(
        self, tmp_path, caplog
    ):
        path = str(tmp_path / "verdicts.jsonl")
        cache = VerdictCache(spill_path=path)
        cache.put("kept", a_result())
        cache.put("torn", a_result(value=2.0))
        tear_last_line(path)
        with caplog.at_level("WARNING", logger="repro.core.spill"):
            reborn = VerdictCache(spill_path=path)
        assert len(reborn) == 1
        assert reborn.get("kept").value == 1.25
        assert reborn.get("torn") is None  # a miss, not a wrong verdict
        assert any("skipped 1" in m for m in caplog.messages)
        # The next record starts on a fresh line and survives a reload.
        reborn.put("torn", a_result(value=2.0))
        again = VerdictCache(spill_path=path)
        assert len(again) == 2
        assert again.get("torn").value == 2.0

    def test_torn_bounds_spill_is_skipped_and_appended_past(
        self, tmp_path, caplog
    ):
        path = str(tmp_path / "bounds.jsonl")
        net = make_net()
        wide = InputRegion(np.array([[-2.0, 2.0]] * 3))
        cache = BoundsCache(spill_path=path)
        cache.lookup(net, unit_region(), "interval")
        cache.lookup(net, wide, "interval")
        tear_last_line(path)
        with caplog.at_level("WARNING", logger="repro.core.spill"):
            reborn = BoundsCache(spill_path=path)
        assert len(reborn) == 1
        assert any("skipped 1" in m for m in caplog.messages)
        bounds, error = reborn.lookup(net, wide, "interval")
        assert error is None and reborn.misses == 1
        again = BoundsCache(spill_path=path)
        assert len(again) == 2
        fresh, _ = BoundsCache().lookup(net, wide, "interval")
        for got, want in zip(
            again.lookup(net, wide, "interval")[0], fresh
        ):
            np.testing.assert_array_equal(got.lower, want.lower)
            np.testing.assert_array_equal(got.upper, want.upper)

    def test_campaign_over_torn_spills_matches_a_fresh_run(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        nets = (make_net(), make_net(seed=1))
        with VerificationPool(workers=1, cache_dir=cache_dir) as pool:
            campaign(*nets, outputs=(0, 1)).run(pool=pool)
        for name in ("verdicts.jsonl", "bounds.jsonl"):
            tear_last_line(os.path.join(cache_dir, name))
        with VerificationPool(workers=1, cache_dir=cache_dir) as pool:
            torn = campaign(*nets, outputs=(0, 1)).run(pool=pool)
            # Three verdicts survived the tear; the torn one re-ran.
            assert pool.verdict_cache.hits == 3
        fresh = campaign(*nets, outputs=(0, 1)).run()
        assert verdicts(torn) == verdicts(fresh)
        # The re-run verdict was appended on a line of its own.
        with VerificationPool(workers=1, cache_dir=cache_dir) as pool:
            assert len(pool.verdict_cache) == 4
            again = campaign(*nets, outputs=(0, 1)).run(pool=pool)
            assert pool.verdict_cache.hits == 4
        assert verdicts(again) == verdicts(fresh)


class TestLifecycle:
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
            first = campaign(net).run(pool=pool)
        assert os.path.exists(os.path.join(cache_dir, "verdicts.jsonl"))
        # A fresh pool over the same directory answers without workers.
        with VerificationPool(workers=1, cache_dir=cache_dir) as pool:
            again = campaign(net).run(pool=pool)
            assert pool.stats().get("pool.jobs", 0) == 0
        [cell] = again.cells
        assert cell.result.metrics["verdict_cache_hit"] == 1.0
        assert verdicts(again) == verdicts(first)  # bit-for-bit via JSONL

    def test_bounds_cache_spill_roundtrip(self, tmp_path):
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
        from repro.obs import RingBufferSink, Tracer

        sink = RingBufferSink()
        with VerificationPool(workers=1, tracer=Tracer([sink])) as pool:
            [cell] = campaign(bomb_network()).run(pool=pool).cells
            assert cell.result.verdict is Verdict.ERROR
            assert "worker process died" in cell.result.description
            # The pool respawned: the next (healthy) campaign completes.
            [good] = campaign(make_net()).run(pool=pool).cells
            assert good.result.verdict is Verdict.MAX_FOUND
            stats = pool.stats()
            assert stats["pool.worker_crashes"] == 1
            assert stats["pool.respawns"] >= 1
        [crash] = [
            r for r in sink.records if r.get("name") == "pool_worker_crash"
        ]
        assert crash["attrs"]["job_kind"] == "cell"

    def test_crash_not_memoised(self):
        """A crashed job must never poison the verdict cache."""
        bomb = bomb_network()
        with VerificationPool(workers=1) as pool:
            campaign(bomb).run(pool=pool)
            assert len(pool.verdict_cache) == 0
            [retry] = campaign(bomb).run(pool=pool).cells
            assert "verdict_cache_hit" not in retry.result.metrics
            assert retry.result.verdict is Verdict.ERROR
            assert pool.stats()["pool.worker_crashes"] == 2

    def test_queued_jobs_survive_a_crash(self):
        """One worker, bomb first in line: the queue keeps draining."""
        healthy = make_net()
        with VerificationPool(workers=1) as pool:
            report = campaign(bomb_network(), healthy).run(pool=pool)
        bad, good = report.cells
        assert bad.result.verdict is Verdict.ERROR
        assert good.result.verdict is Verdict.MAX_FOUND
        baseline = campaign(healthy).run()
        assert good.result.value == baseline.cells[0].result.value


class TestStats:
    def test_stats_expose_queue_and_cache_after_a_campaign(self):
        net = make_net()
        with VerificationPool(workers=1) as pool:
            campaign(net).run(pool=pool)
            campaign(net).run(pool=pool)
            stats = pool.stats()
        assert stats["pool.workers"] == 1
        assert stats["pool.queue_depth"] == 0
        assert stats["pool.in_flight"] == 0
        assert stats["pool.jobs_done"] >= 1
        # One miss (first run) then one hit (the repeat).
        assert stats["verdict_cache.hit_rate"] == 0.5
        assert 0.0 <= stats["bounds_cache.hit_rate"] <= 1.0
        # Completed jobs feed the wall-time histogram with quantiles.
        assert stats["pool.job_wall.count"] >= 1
        assert "pool.job_wall.p95" in stats

    def test_render_stats_mentions_queue_and_hit_rates(self):
        with VerificationPool(workers=1) as pool:
            campaign(make_net()).run(pool=pool)
            text = pool.render_stats()
        assert "queued" in text
        assert "0 crashes" in text
        assert text.count("hit rate") == 2
