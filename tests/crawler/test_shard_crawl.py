"""Shard-count invariance of the host-sharded crawl executor.

The headline guarantee of :mod:`repro.crawler.shard`: a sharded crawl
produces byte-identical merged artifacts at any shard count — same
corpus, linkdb, counters, attrition, simulated clock, and (when
attached) the same deterministic metrics export — including across
kill+resume of the whole topology or of one forked shard.  The
sharded schedule is its own deterministic schedule (per-host batching
and per-host clocks), so the reference here is ``--shards 1``, not the
single-coordinator crawl.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

import repro.workers as workers_module
from repro.crawler.checkpoint import result_to_dict
from repro.crawler.crawl import CrawlConfig
from repro.crawler.shard import (
    ShardCrashed, ShardCrawler, ShardedCrawl, shard_of,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.web.faults import FaultConfig
from repro.web.server import SimulatedClock, SimulatedWeb

MAX_PAGES = 120

SEEDS = [6, 21, 47]
FAULTS = {
    "none": lambda seed: None,
    "default": lambda seed: FaultConfig.preset("default", seed=seed + 1),
    "uniform": lambda seed: FaultConfig.uniform(0.25, seed=seed + 1),
}


def _factory(context, webgraph, n_shards, web_seed, fault_name,
             workers=1, metrics=False, tracer=False,
             **config_overrides):
    def build(shard_id: int) -> ShardCrawler:
        web = SimulatedWeb(webgraph, seed=web_seed,
                           faults=FAULTS[fault_name](web_seed))
        config = CrawlConfig(max_pages=MAX_PAGES, batch_size=25,
                             parallel_workers=workers,
                             **config_overrides)
        clock = SimulatedClock()
        return ShardCrawler(
            shard_id, n_shards, web, context.pipeline.classifier,
            context.build_filter_chain(), config, clock=clock,
            metrics=MetricsRegistry() if metrics else None,
            tracer=Tracer(clock=lambda: clock.now) if tracer else None)
    return build


def _run(context, webgraph, n_shards, web_seed, fault_name, **kwargs):
    driver_kwargs = {
        key: kwargs.pop(key)
        for key in ("processes", "checkpoint_path", "checkpoint_every")
        if key in kwargs}
    driver = ShardedCrawl(
        _factory(context, webgraph, n_shards, web_seed, fault_name,
                 **kwargs),
        n_shards, MAX_PAGES, host_quota=2, **driver_kwargs)
    result = driver.run(list(context.seed_batch("second").urls))
    return driver, result


def _state(result) -> dict:
    return {"result": result_to_dict(result),
            "attrition": result.filter_attrition,
            "clock": result.clock_seconds}


class TestShardCountInvariance:
    @pytest.mark.parametrize("web_seed", SEEDS)
    @pytest.mark.parametrize("fault_name", ["none", "default", "uniform"])
    def test_merged_results_identical_one_vs_three_shards(
            self, context, webgraph, web_seed, fault_name):
        _, one = _run(context, webgraph, 1, web_seed, fault_name)
        driver, three = _run(context, webgraph, 3, web_seed, fault_name)
        assert one.pages_fetched >= MAX_PAGES
        assert driver.supersteps > 1
        assert _state(three) == _state(one)

    def test_forked_mode_matches_inline(self, context, webgraph):
        _, inline = _run(context, webgraph, 2, 21, "default")
        _, forked = _run(context, webgraph, 2, 21, "default",
                         processes=True)
        assert _state(forked) == _state(inline)

    def test_worker_pool_inside_shards_is_invisible(self, context,
                                                    webgraph):
        _, sequential = _run(context, webgraph, 2, 21, "default",
                             workers=1)
        _, pooled = _run(context, webgraph, 2, 21, "default", workers=2)
        assert _state(pooled) == _state(sequential)


    def test_without_fork_processes_degrade_to_inline_shards(
            self, context, webgraph, monkeypatch):
        _, forked = _run(context, webgraph, 2, 21, "default",
                         processes=True)
        monkeypatch.setattr(workers_module, "fork_start_available",
                            lambda: False)
        with pytest.warns(RuntimeWarning, match="fork") as caught:
            driver, degraded = _run(context, webgraph, 2, 21, "default",
                                    processes=True)
        assert len(caught) == 1
        assert driver.child_pids == []
        assert _state(degraded) == _state(forked)


class TestShardMetricsInvariance:
    def test_metrics_exports_identical_across_shard_counts(
            self, context, webgraph):
        exports = []
        for n_shards in (1, 3):
            driver, _ = _run(context, webgraph, n_shards, 17, "default",
                             metrics=True)
            assert driver.metrics is not None
            exports.append(driver.metrics.export_lines())
        assert exports[0] == exports[1]
        assert any('"crawl.pages_fetched"' in line
                   for line in exports[0])
        assert any('"crawl.supersteps"' in line for line in exports[0])

    def test_results_identical_with_metrics_on_vs_off(self, context,
                                                      webgraph):
        _, bare = _run(context, webgraph, 3, 17, "default")
        _, observed = _run(context, webgraph, 3, 17, "default",
                           metrics=True)
        assert _state(observed) == _state(bare)


class TestShardKillResume:
    def test_inline_kill_resume_byte_identical(self, context, webgraph,
                                               tmp_path):
        reference_path = tmp_path / "ref.json"
        _, reference = _run(context, webgraph, 2, 21, "uniform",
                            checkpoint_path=reference_path)

        class Killed(RuntimeError):
            pass

        def kill_switch(total_pages):
            if total_pages >= 60:
                raise Killed

        path = tmp_path / "cp.json"
        killed = ShardedCrawl(
            _factory(context, webgraph, 2, 21, "uniform"), 2, MAX_PAGES,
            host_quota=2, checkpoint_path=path)
        with pytest.raises(Killed):
            killed.run(list(context.seed_batch("second").urls),
                       barrier_callback=kill_switch)
        assert path.exists()

        resumed_driver = ShardedCrawl(
            _factory(context, webgraph, 2, 21, "uniform"), 2, MAX_PAGES,
            host_quota=2, checkpoint_path=path)
        resumed = resumed_driver.run(
            list(context.seed_batch("second").urls), resume=True)
        assert _state(resumed) == _state(reference)
        # The final collective checkpoints must match byte for byte.
        assert path.read_bytes() == reference_path.read_bytes()

    def test_forked_kill_one_shard_resumes_identical(
            self, context, webgraph, tmp_path):
        _, reference = _run(context, webgraph, 2, 21, "default")

        path = tmp_path / "cp.json"
        killed = ShardedCrawl(
            _factory(context, webgraph, 2, 21, "default"), 2, MAX_PAGES,
            host_quota=2, checkpoint_path=path, processes=True)

        def kill_one_child(total_pages):
            os.kill(killed.child_pids[0], signal.SIGKILL)
            time.sleep(0.05)

        with pytest.raises(ShardCrashed):
            killed.run(list(context.seed_batch("second").urls),
                       barrier_callback=kill_one_child)
        assert path.exists()

        resumed = ShardedCrawl(
            _factory(context, webgraph, 2, 21, "default"), 2, MAX_PAGES,
            host_quota=2, checkpoint_path=path, processes=True,
        ).run(list(context.seed_batch("second").urls), resume=True)
        assert _state(resumed) == _state(reference)


class TestShardGuards:
    def test_tracer_rejected_in_sharded_mode(self, context, webgraph):
        driver = ShardedCrawl(
            _factory(context, webgraph, 2, 6, "none", tracer=True),
            2, MAX_PAGES, host_quota=2)
        with pytest.raises(ValueError, match="tracing"):
            driver.run(list(context.seed_batch("second").urls))

    def test_online_learning_rejected_in_sharded_mode(self, context,
                                                      webgraph):
        driver = ShardedCrawl(
            _factory(context, webgraph, 2, 6, "none",
                     online_learning=True),
            2, MAX_PAGES, host_quota=2)
        with pytest.raises(ValueError, match="online_learning"):
            driver.run(list(context.seed_batch("second").urls))

    def test_resume_rejects_shard_count_mismatch(self, context,
                                                 webgraph, tmp_path):
        path = tmp_path / "cp.json"
        _run(context, webgraph, 2, 6, "none", checkpoint_path=path)
        assert path.exists()
        driver = ShardedCrawl(
            _factory(context, webgraph, 3, 6, "none"), 3, MAX_PAGES,
            host_quota=2, checkpoint_path=path)
        with pytest.raises(ValueError, match="shard"):
            driver.run(list(context.seed_batch("second").urls),
                       resume=True)

    def test_seed_routing_is_total(self, context, webgraph):
        """Every seed lands on exactly one shard at any N, so no page
        is lost or fetched twice when the topology changes."""
        urls = context.seed_batch("second").urls
        for n_shards in (1, 2, 5):
            from repro.web.urls import host_of, normalize
            owners = [shard_of(host_of(normalize(url)), n_shards)
                      for url in urls]
            assert all(0 <= owner < n_shards for owner in owners)
