"""Tests for crash-safe crawl checkpointing and resumption."""

import json
import os

import pytest

from repro.crawler.checkpoint import (
    CheckpointError, ResumableCrawl, crawler_state_to_dict,
    frontier_from_dict, frontier_to_dict, load_checkpoint,
    restore_crawler_state, save_checkpoint,
)
from repro.crawler.crawl import CrawlConfig, CrawlResult, FocusedCrawler
from repro.crawler.frontier import CrawlDb


class TestFrontierSerialization:
    def test_round_trip(self):
        frontier = CrawlDb(host_fetch_list_cap=7, max_urls_per_host=9)
        frontier.add("http://a.com/1", depth=1)
        frontier.add("http://b.com/2", depth=2, irrelevant_steps=1)
        frontier.mark_seen("http://c.com/seen")
        restored = frontier_from_dict(frontier_to_dict(frontier))
        assert len(restored) == len(frontier)
        assert restored.host_fetch_list_cap == 7
        assert not restored.add("http://c.com/seen")  # seen preserved
        entries = restored.next_batch(10)
        assert {e.url for e in entries} == {"http://a.com/1",
                                            "http://b.com/2"}
        by_url = {e.url: e for e in entries}
        assert by_url["http://b.com/2"].irrelevant_steps == 1


class TestCheckpointFile:
    def test_save_and_load(self, tmp_path):
        frontier = CrawlDb()
        frontier.add("http://a.com/1")
        result = CrawlResult(pages_fetched=5, stop_reason="leg_budget",
                             retries=2)
        result.record_failure("timeout")
        result.linkdb.add_edges("http://a.com/1", ["http://b.com/2"])
        path = save_checkpoint(tmp_path / "cp.json", frontier, result,
                               clock_now=12.5)
        state = load_checkpoint(path)
        assert state.clock_now == 12.5
        assert len(state.frontier) == 1
        assert state.result.pages_fetched == 5
        assert state.result.linkdb.n_edges == 1
        assert state.result.failure_reasons == {"timeout": 1}
        assert state.result.retries == 2

    def test_write_is_atomic(self, tmp_path):
        """No tmp residue, and the payload lands via os.replace."""
        path = tmp_path / "cp.json"
        save_checkpoint(path, CrawlDb(), CrawlResult(), clock_now=0.0)
        first = path.read_text()
        save_checkpoint(path, CrawlDb(), CrawlResult(pages_fetched=9),
                        clock_now=3.0)
        assert os.listdir(tmp_path) == ["cp.json"]  # tmp file gone
        assert path.read_text() != first

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(path, CrawlDb(), CrawlResult(), clock_now=1.0)
        whole = path.read_text()
        path.write_text(whole[:len(whole) // 2])  # torn write
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.json")

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"version": 2, "clock_now": 0.0,
                                    "frontier": {}}))
        with pytest.raises(CheckpointError, match="result"):
            load_checkpoint(path)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_v1_payload_still_loads(self, tmp_path):
        """Old checkpoints (no failure_reasons/raw/crawler) restore
        with defaults."""
        path = tmp_path / "cp.json"
        frontier = CrawlDb()
        frontier.add("http://a.com/1")
        payload = {
            "version": 1,
            "clock_now": 2.0,
            "frontier": frontier_to_dict(frontier),
            "result": {
                "relevant": [{"doc_id": "http://a.com/1", "text": "t",
                              "meta": {}}],
                "irrelevant": [], "outlinks": {}, "pages_fetched": 1,
                "fetch_failures": 0, "robots_denied": 0,
                "filtered_out": 0, "clock_seconds": 2.0,
                "stop_reason": "leg_budget",
            },
        }
        path.write_text(json.dumps(payload))
        state = load_checkpoint(path)
        assert state.result.failure_reasons == {}
        assert state.result.relevant[0].raw == ""
        assert state.crawler_state is None


class TestCrawlerStateSerialization:
    def test_round_trip(self, context):
        crawler = FocusedCrawler(context.web, context.pipeline.classifier,
                                 context.build_filter_chain(),
                                 CrawlConfig(max_pages=30))
        crawler.crawl(context.seed_batch("second").urls)
        state = crawler_state_to_dict(crawler)
        fresh = FocusedCrawler(context.web, context.pipeline.classifier,
                               context.build_filter_chain(),
                               CrawlConfig(max_pages=30))
        restore_crawler_state(fresh, state)
        assert fresh._host_ready == crawler._host_ready
        assert set(fresh._robots_cache) == set(crawler._robots_cache)
        for host, policy in crawler._robots_cache.items():
            assert fresh._robots_cache[host].disallow == policy.disallow
            assert fresh._robots_cache[host].crawl_delay == \
                policy.crawl_delay
        assert fresh.filters.attrition_report() == \
            crawler.filters.attrition_report()

    def test_state_is_json_clean(self, context):
        crawler = FocusedCrawler(context.web, context.pipeline.classifier,
                                 context.build_filter_chain(),
                                 CrawlConfig(max_pages=20))
        crawler.crawl(context.seed_batch("second").urls)
        payload = crawler_state_to_dict(crawler)
        assert json.loads(json.dumps(payload)) == payload


class TestResumableCrawl:
    def _crawler(self, context):
        return FocusedCrawler(context.web, context.pipeline.classifier,
                              context.build_filter_chain(),
                              CrawlConfig(max_pages=10_000))

    def test_run_requires_seeds_without_checkpoint(self, context, tmp_path):
        resumable = ResumableCrawl(self._crawler(context),
                                   tmp_path / "missing.json")
        with pytest.raises(ValueError, match="seeds"):
            resumable.run(None, resume=True)


class TestVersioning:
    def test_future_version_is_a_downgrade_error(self, tmp_path):
        """A checkpoint from a newer build must fail with a clear
        refusal, not a KeyError deep in payload parsing."""
        path = tmp_path / "cp.json"
        save_checkpoint(path, CrawlDb(), CrawlResult(), clock_now=0.0)
        payload = json.loads(path.read_text())
        payload["version"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="refusing"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="downgrade"):
            load_checkpoint(path)

    def test_nonsense_version_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"version": "banana"}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_clock_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(path, CrawlDb(), CrawlResult(), clock_now=0.0)
        payload = json.loads(path.read_text())
        del payload["clock_now"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="clock_now"):
            load_checkpoint(path)


class TestRecrawlStateSerialization:
    def test_recrawl_sections_round_trip(self, context, web):
        from repro.crawler.recrawl import (
            PageMemory, PageRecord, RecrawlScheduler,
            content_fingerprint, revision_signature,
        )
        from repro.html.neardup import NearDuplicateFilter

        crawler = FocusedCrawler(
            web, context.pipeline.classifier,
            context.build_filter_chain(), CrawlConfig(max_pages=10),
            memory=PageMemory(), scheduler=RecrawlScheduler(seed=4),
            neardup=NearDuplicateFilter())
        body = "alpha beta gamma delta"
        crawler.memory.put("http://h.org/p", PageRecord(
            final_url="http://h.org/p", version=1,
            fingerprint=content_fingerprint(body),
            signature=revision_signature(body),
            outcome=(True, True, "net", "t", (), "", True, {}),
            body=body, content_type="text/html", last_round=1))
        crawler.scheduler.observe("h.org", changed=False)
        crawler.scheduler.begin_round(1)
        crawler.neardup.is_duplicate(body)
        crawler.round = 1
        state = crawler_state_to_dict(crawler)
        assert json.loads(json.dumps(state)) == state  # JSON-clean
        restored = FocusedCrawler(
            web, context.pipeline.classifier,
            context.build_filter_chain(), CrawlConfig(max_pages=10),
            memory=PageMemory(), scheduler=RecrawlScheduler(),
            neardup=NearDuplicateFilter())
        restore_crawler_state(restored, state)
        assert restored.round == 1
        assert crawler_state_to_dict(restored) == state

    def test_cold_crawler_state_has_no_recrawl_section(self, context,
                                                       web):
        crawler = FocusedCrawler(
            web, context.pipeline.classifier,
            context.build_filter_chain(), CrawlConfig(max_pages=10))
        state = crawler_state_to_dict(crawler)
        assert "recrawl" not in state
        assert "neardup" not in state
