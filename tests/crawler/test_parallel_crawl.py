"""Sequential-vs-parallel crawl equivalence.

The parallel document stage must be invisible in every crawl output:
for any seed, fault preset, and kill/resume point, a crawl with
``parallel_workers=N`` produces byte-identical results to the
sequential loop — same corpus (documents, text, meta), same linkdb
edges, same counters and failure reasons, same filter attrition, same
frontier and crawler state, same simulated clock.  Only real
wall-clock time (and the ``stage_seconds`` observability) may differ.
"""

from __future__ import annotations

import warnings

import pytest

import repro.workers as workers_module
from repro.crawler.checkpoint import (
    ResumableCrawl, crawler_state_to_dict, frontier_to_dict,
    result_to_dict,
)
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.crawler.frontier import CrawlDb
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.web.faults import FaultConfig
from repro.web.server import SimulatedClock, SimulatedWeb

MAX_PAGES = 90

#: (web_seed, fault preset builder) — ≥ 5 seeds × ≥ 2 fault presets.
SEEDS = [6, 17, 21, 33, 47]
FAULTS = {
    "none": lambda seed: None,
    "default": lambda seed: FaultConfig.preset("default", seed=seed + 1),
    "uniform": lambda seed: FaultConfig.uniform(0.25, seed=seed + 1),
}


def _make_crawler(context, webgraph, web_seed, faults, workers,
                  observed=False, **config_overrides):
    web = SimulatedWeb(webgraph, seed=web_seed, faults=faults)
    config = CrawlConfig(max_pages=MAX_PAGES, batch_size=25,
                         parallel_workers=workers, **config_overrides)
    clock = SimulatedClock()
    metrics = tracer = None
    if observed:
        metrics = MetricsRegistry()
        tracer = Tracer(clock=lambda: clock.now)
    return FocusedCrawler(web, context.pipeline.classifier,
                          context.build_filter_chain(), config,
                          clock=clock, metrics=metrics, tracer=tracer)


def _run(context, webgraph, web_seed, fault_name, workers):
    crawler = _make_crawler(context, webgraph, web_seed,
                            FAULTS[fault_name](web_seed), workers)
    frontier = CrawlDb(
        host_fetch_list_cap=crawler.config.host_fetch_list_cap,
        max_urls_per_host=crawler.config.max_urls_per_host)
    frontier.add_seeds(context.seed_batch("second").urls)
    result = crawler.crawl(frontier=frontier)
    return _state(crawler, frontier, result)


def _state(crawler, frontier, result) -> dict:
    """Everything deterministic a crawl run leaves behind.

    ``result_to_dict`` covers the corpus (doc ids, text, raw bodies,
    meta), linkdb edges, counters, failure reasons, and the
    deterministic stage_pages; ``stage_seconds`` is wall-clock
    observability and deliberately not part of it.
    """
    return {
        "result": result_to_dict(result),
        "attrition": result.filter_attrition,
        "frontier": frontier_to_dict(frontier),
        "crawler": crawler_state_to_dict(crawler),
        "clock": crawler.clock.now,
    }


class TestSequentialParallelEquivalence:
    @pytest.mark.parametrize("web_seed", SEEDS)
    @pytest.mark.parametrize("fault_name", ["none", "default", "uniform"])
    def test_byte_identical_across_seeds_and_faults(
            self, context, webgraph, web_seed, fault_name):
        sequential = _run(context, webgraph, web_seed, fault_name,
                          workers=1)
        parallel = _run(context, webgraph, web_seed, fault_name,
                        workers=3)
        assert parallel == sequential

    def test_documents_carry_title_and_text(self, context, webgraph):
        crawler = _make_crawler(context, webgraph, 6, None, workers=2)
        result = crawler.crawl(context.seed_batch("second").urls)
        assert result.relevant
        titled = [d for d in result.relevant if d.meta.get("title")]
        assert titled, "shared-parse title extraction produced no titles"
        assert all(d.text for d in result.relevant)

    def test_stage_pages_deterministic_and_consistent(
            self, context, webgraph):
        sequential = _make_crawler(context, webgraph, 17, None, 1).crawl(
            context.seed_batch("second").urls)
        parallel = _make_crawler(context, webgraph, 17, None, 3).crawl(
            context.seed_batch("second").urls)
        assert parallel.stage_pages == sequential.stage_pages
        pages = sequential.stage_pages
        assert pages["fetch"] == sequential.pages_fetched
        # Every transcodable page is parsed exactly once and segmented
        # exactly once.
        assert pages["parse"] == pages["boilerplate"]
        assert pages["classify"] == (len(sequential.relevant)
                                     + len(sequential.irrelevant))
        # Both modes measured time for every stage they counted.
        assert set(sequential.stage_seconds) == set(pages)
        assert set(parallel.stage_seconds) == set(pages)


class TestKillResumeWithWorkers:
    def test_killed_parallel_crawl_resumes_byte_identical(
            self, context, webgraph, tmp_path):
        """Kill a 2-worker crawl mid-run; resume with 2 workers; the
        final state must match an uninterrupted *sequential* run."""
        seeds = context.seed_batch("second").urls
        faults = FaultConfig.uniform(0.2, seed=22)
        reference = _make_crawler(
            context, webgraph, 21, faults, workers=1).crawl(seeds)
        assert reference.pages_fetched > 45

        class Killed(RuntimeError):
            pass

        def kill_switch(partial):
            if partial.pages_fetched >= 45:
                raise Killed

        path = tmp_path / "cp.json"
        killed = ResumableCrawl(
            _make_crawler(context, webgraph, 21,
                          FaultConfig.uniform(0.2, seed=22), workers=2),
            path)
        with pytest.raises(Killed):
            killed.run(seeds, checkpoint_every=20,
                       page_callback=kill_switch)
        assert path.exists()

        resumed = ResumableCrawl(
            _make_crawler(context, webgraph, 21,
                          FaultConfig.uniform(0.2, seed=22), workers=2),
            path).run(resume=True, checkpoint_every=20)
        assert result_to_dict(resumed) == result_to_dict(reference)


class TestObservabilityDeterminism:
    """Attaching the observability subsystem must be invisible in the
    crawl results, and its own exports must be byte-identical at any
    worker count and across kill+resume (docs/observability.md)."""

    def _observed_run(self, context, webgraph, workers):
        faults = FaultConfig.preset("default", seed=18)
        crawler = _make_crawler(context, webgraph, 17, faults, workers,
                                observed=True)
        result = crawler.crawl(context.seed_batch("second").urls)
        return crawler, result

    def test_exports_byte_identical_across_worker_counts(
            self, context, webgraph):
        exports = []
        for workers in (1, 2, 4):
            crawler, _ = self._observed_run(context, webgraph, workers)
            exports.append((crawler.metrics.export_lines(),
                            crawler.tracer.export_lines()))
        assert exports[0] == exports[1] == exports[2]
        metrics_lines, trace_lines = exports[0]
        assert any('"crawl.pages_fetched"' in line
                   for line in metrics_lines)
        assert any('"crawl.fetch"' in line for line in trace_lines)

    def test_results_identical_with_metrics_on_vs_off(
            self, context, webgraph):
        for workers in (1, 3):
            faults = FaultConfig.preset("default", seed=18)
            plain = _make_crawler(context, webgraph, 17, faults, workers)
            bare = plain.crawl(context.seed_batch("second").urls)
            crawler, observed = self._observed_run(context, webgraph,
                                                   workers)
            assert result_to_dict(observed) == result_to_dict(bare)
            # The driver with no checkpoint path is a bare crawl().
            driven_crawler = _make_crawler(
                context, webgraph, 17, FaultConfig.preset("default",
                                                          seed=18),
                workers, observed=True)
            driven = ResumableCrawl(driven_crawler).run(
                context.seed_batch("second").urls)
            assert result_to_dict(driven) == result_to_dict(observed)
            assert (driven_crawler.metrics.export_lines()
                    == crawler.metrics.export_lines())

    def test_kill_resume_exports_byte_identical(self, context, webgraph,
                                                tmp_path):
        reference, _ = self._observed_run(context, webgraph, workers=2)
        assert reference.metrics.value_of("crawl.pages_fetched") > 45

        class Killed(RuntimeError):
            pass

        def kill_switch(partial):
            if partial.pages_fetched >= 45:
                raise Killed

        faults = FaultConfig.preset("default", seed=18)
        path = tmp_path / "cp.json"
        killed = _make_crawler(context, webgraph, 17, faults, workers=2,
                               observed=True)
        with pytest.raises(Killed):
            ResumableCrawl(killed, path).run(
                context.seed_batch("second").urls, checkpoint_every=20,
                page_callback=kill_switch)
        assert path.exists()

        resumed_crawler = _make_crawler(context, webgraph, 17,
                                        FaultConfig.preset("default",
                                                           seed=18),
                                        workers=2, observed=True)
        ResumableCrawl(resumed_crawler, path).run(resume=True,
                                                  checkpoint_every=20)
        assert resumed_crawler.metrics.export_lines() == \
            reference.metrics.export_lines()
        assert resumed_crawler.tracer.export_lines() == \
            reference.tracer.export_lines()


class TestParallelModeGuards:
    def test_spawn_only_platform_falls_back_to_sequential(
            self, context, webgraph, monkeypatch):
        monkeypatch.setattr(workers_module, "fork_start_available",
                            lambda: False)
        crawler = _make_crawler(context, webgraph, 6, None, workers=4)
        with pytest.warns(RuntimeWarning, match="fork"):
            fallback = crawler.crawl(context.seed_batch("second").urls)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sequential = _make_crawler(
                context, webgraph, 6, None, workers=1).crawl(
                    context.seed_batch("second").urls)
        assert result_to_dict(fallback) == result_to_dict(sequential)

    def test_online_learning_rejects_parallel_mode(self, context,
                                                   webgraph):
        import copy

        crawler = _make_crawler(context, webgraph, 6, None, workers=2,
                                online_learning=True)
        # The shared session classifier must not learn from this test.
        crawler.classifier = copy.deepcopy(crawler.classifier)
        with pytest.raises(ValueError, match="online_learning"):
            crawler.crawl(context.seed_batch("second").urls)

    def test_online_learning_still_works_sequentially(self, context,
                                                      webgraph):
        import copy

        crawler = _make_crawler(context, webgraph, 6, None, workers=1,
                                online_learning=True)
        crawler.classifier = copy.deepcopy(crawler.classifier)
        result = crawler.crawl(context.seed_batch("second").urls)
        assert result.pages_fetched > 0
