"""Pool-attribution counters under asynchronous chunk completion.

The pipelined pool dispatches chunks with ``apply_async`` and drains
them later, so chunk *completions* can land in any order.  The
attribution counters are therefore incremented on the coordinator at
dispatch/drain time — points that the crawl schedule fully determines
— and must come out exact (pages submitted, chunks planned) no matter
how the worker processes interleave.  They stay volatile: pool shape
is physical execution detail and must never leak into the
deterministic export (docs/observability.md).
"""

from __future__ import annotations

import gc

import pytest

from repro.crawler.parallel import (
    CrawlWorkerPool, ProcessingContext, page_rule,
)
from repro.html.boilerplate import BoilerplateDetector
from repro.obs.metrics import MetricsRegistry
from repro.workers import fork_start_available, frozen_heap

pytestmark = pytest.mark.skipif(not fork_start_available(),
                                reason="needs fork start method")

BODY = ("<html><head><title>t</title></head><body>"
        + "<p>alpha beta gamma delta epsilon</p>" * 40
        + "</body></html>")


def _tasks(count: int):
    return [(index, f"http://host-{index % 5}.example/p{index}",
             BODY, "text/html") for index in range(count)]


def _pool(context, workers: int, metrics: MetricsRegistry,
          batch_hint: int = 25) -> CrawlWorkerPool:
    processing = ProcessingContext(boilerplate=BoilerplateDetector(),
                                   filters=context.build_filter_chain(),
                                   classifier=context.pipeline.classifier)
    return CrawlWorkerPool(workers, processing, metrics=metrics,
                           batch_hint=batch_hint)


class TestPoolAttributionCounters:
    def test_counters_exact_under_async_completion(self, context):
        metrics = MetricsRegistry()
        pool = _pool(context, workers=2, metrics=metrics)
        tasks = _tasks(53)
        try:
            for task in tasks:
                pool.submit(task)
            outcomes = pool.drain()
        finally:
            pool.close()
        assert len(outcomes) == len(tasks)
        expected_chunks = len(page_rule(2, 25).bounds(
            [len(task[2]) for task in tasks]))
        assert metrics.value_of("crawl.pool_pages") == len(tasks)
        assert metrics.value_of("crawl.pool_chunks") == expected_chunks
        assert metrics.value_of("crawl.pool_dispatches") == \
            expected_chunks
        assert metrics.value_of("crawl.pool_workers") == 2
        assert metrics.value_of("crawl.pool_wall_seconds") > 0

    def test_counters_accumulate_across_batches(self, context):
        metrics = MetricsRegistry()
        pool = _pool(context, workers=2, metrics=metrics)
        try:
            for _round in range(3):
                for task in _tasks(17):
                    pool.submit(task)
                assert len(pool.drain()) == 17
        finally:
            pool.close()
        assert metrics.value_of("crawl.pool_pages") == 3 * 17

    def test_pool_counters_stay_out_of_deterministic_export(
            self, context):
        metrics = MetricsRegistry()
        pool = _pool(context, workers=2, metrics=metrics)
        try:
            for task in _tasks(20):
                pool.submit(task)
            pool.drain()
        finally:
            pool.close()
        deterministic = "\n".join(metrics.export_lines())
        assert "pool_" not in deterministic
        volatile = metrics.to_dict(include_volatile=True)
        assert any(entry["name"] == "crawl.pool_pages"
                   for entry in volatile["metrics"])


class TestPoolGcDiscipline:
    def test_close_leaves_an_enclosing_freeze_alone(self, context):
        """A pool inside a shard child, or beside a serve engine: its
        close() must not thaw a heap another holder still has frozen,
        and puts automatic gc back the way it found it."""
        was_enabled = gc.isenabled()
        with frozen_heap():
            pool = _pool(context, workers=2, metrics=MetricsRegistry())
            try:
                assert not gc.isenabled()
                assert len(pool.process_batch(_tasks(9))) == 9
            finally:
                pool.close()
            assert gc.get_freeze_count() > 0
            assert gc.isenabled() == was_enabled
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == was_enabled
