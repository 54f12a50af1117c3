"""Incremental recrawl: change detection, scheduling, and replay.

The guarantees under test:

* **Replay is invisible.**  A warm recrawl round over an unchanged
  web (churn 0) produces a corpus byte-identical to its cold round
  while fetching bodies it already knows and replaying every stored
  outcome (no reparse, no reclassify).
* **Warm equals cold under churn.**  With change detection keyed on
  *exact* content, a warm round over an evolved web produces the same
  corpus as a cold crawl of that same epoch (no scheduler skips, no
  faults — the two knobs that intentionally trade freshness/clock for
  cost).
* **Topology invariance survives rounds.**  Multi-round results and
  metric exports are byte-identical at any worker count and any shard
  count, including kill+resume mid-round.
"""

from __future__ import annotations

import pytest

from repro.crawler.checkpoint import (
    CheckpointError, ResumableCrawl, crawler_state_to_dict,
    result_to_dict,
)
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.crawler.recrawl import (
    PageMemory, PageRecord, RecrawlScheduler,
    SchedulerConfig, content_fingerprint, near_unchanged,
    revision_signature,
)
from repro.crawler.shard import ShardCrawler, ShardedCrawl
from repro.obs.metrics import MetricsRegistry
from repro.web.server import SimulatedClock, SimulatedWeb

MAX_PAGES = 80


# -- unit level ----------------------------------------------------------------

class TestChangeDetection:
    def test_fingerprint_is_content_addressed(self):
        assert content_fingerprint("abc") == content_fingerprint("abc")
        assert content_fingerprint("abc") != content_fingerprint("abd")

    def test_minor_edit_is_near_unchanged(self):
        text = " ".join(f"word{i}" for i in range(120))
        edited = text.replace("word5 word6", "word6 word5")
        old = revision_signature(text)
        assert near_unchanged(old, revision_signature(edited))
        assert not near_unchanged(old, revision_signature(
            " ".join(f"other{i}" for i in range(120))))

    def test_missing_or_mismatched_signature_is_changed(self):
        sig = revision_signature("some words here")
        assert not near_unchanged(None, sig)
        assert not near_unchanged(sig[:4], sig)


class TestScheduler:
    def test_new_hosts_are_always_due(self):
        scheduler = RecrawlScheduler()
        assert scheduler.due("never-seen.example.org")

    def test_stable_host_backs_off_and_change_snaps_back(self):
        config = SchedulerConfig(min_interval=1, max_interval=8,
                                 backoff=2)
        scheduler = RecrawlScheduler(config)
        scheduler.observe("h.org", changed=False)
        scheduler.begin_round(1)
        # Interval grew to 2 (+ jitter in {0, 1}): not due for at
        # least one round after the observation round.
        assert not scheduler.due("h.org")
        interval = scheduler._intervals["h.org"]
        assert interval == 2
        scheduler.observe("h.org", changed=True)
        scheduler.begin_round(2)
        assert scheduler._intervals["h.org"] == config.min_interval

    def test_round_may_not_move_backwards(self):
        scheduler = RecrawlScheduler()
        scheduler.begin_round(3)
        with pytest.raises(ValueError, match="backwards"):
            scheduler.begin_round(2)

    def test_state_round_trip(self):
        scheduler = RecrawlScheduler(seed=5)
        for host, changed in (("a.org", True), ("b.org", False)):
            scheduler.observe(host, changed)
        scheduler.begin_round(1)
        scheduler.observe("b.org", changed=False)
        restored = RecrawlScheduler(seed=5)
        restored.load_state(scheduler.state_dict())
        assert restored.state_dict() == scheduler.state_dict()
        restored.begin_round(2)
        scheduler.begin_round(2)
        assert restored.state_dict() == scheduler.state_dict()


class TestPageMemory:
    def _record(self) -> PageRecord:
        body = "gene alpha inhibits disease beta in trials"
        return PageRecord(
            final_url="http://h.org/p", version=2,
            fingerprint=content_fingerprint(body),
            signature=revision_signature(body),
            outcome=(True, True, "net", "t", ("http://h.org/q",),
                     "", True, {}),
            body=body, content_type="text/html", last_round=1)

    def test_round_trip(self):
        memory = PageMemory(context_key="k1")
        memory.put("http://h.org/p", self._record())
        restored = PageMemory(context_key="k1")
        restored.load_dict(memory.to_dict())
        assert restored.to_dict() == memory.to_dict()
        record = restored.get("http://h.org/p")
        assert record.outcome == self._record().outcome
        assert record.signature == self._record().signature

    def test_context_key_mismatch_refused(self):
        memory = PageMemory(context_key="pipeline-a")
        payload = memory.to_dict()
        other = PageMemory(context_key="pipeline-b")
        with pytest.raises(ValueError, match="different pipeline"):
            other.load_dict(payload)


# -- crawl integration ---------------------------------------------------------

def _crawler(context, webgraph, *, churn=0.0, workers=1, memory=True,
             scheduler=None, metrics=False, web_seed=11):
    web = SimulatedWeb(webgraph, seed=web_seed, churn_rate=churn)
    config = CrawlConfig(max_pages=MAX_PAGES, batch_size=25,
                         parallel_workers=workers)
    return FocusedCrawler(
        web, context.pipeline.classifier, context.build_filter_chain(),
        config, clock=SimulatedClock(),
        metrics=MetricsRegistry() if metrics else None,
        memory=PageMemory() if memory else None,
        scheduler=scheduler)


def _corpus(result) -> dict:
    """The change-sensitive slice of a crawl result: documents,
    link graph, classification counts (no clock, no stage timings —
    replay is *supposed* to collapse those)."""
    payload = result_to_dict(result)
    return {key: payload[key]
            for key in ("relevant", "irrelevant", "outlinks",
                        "failure_reasons")}


class TestReplay:
    def test_churn_zero_round_replays_everything(self, context,
                                                 webgraph):
        crawler = _crawler(context, webgraph, churn=0.0)
        seeds = context.seed_batch("second").urls
        driver = ResumableCrawl(crawler, rounds=2)
        final = driver.run(list(seeds))
        cold, warm = driver.round_reports
        assert cold["replay_hits"] == 0
        assert warm["replay_hits"] > 0
        # Static web: every successfully visited page replays; only
        # pages that failed in round 0 (never stored) refetch-and-fail
        # again.  Nothing reprocesses.
        assert warm["pages_changed"] == 0
        assert warm["replay_hits"] == (warm["pages_fetched"]
                                       + warm["fetches_skipped"]
                                       - final.fetch_failures)
        assert final.stage_pages.get("parse", 0) == 0
        assert final.stage_pages["replay"] == warm["replay_hits"]

    def test_warm_round_corpus_matches_cold_crawl_of_same_epoch(
            self, context, webgraph):
        """Replay keyed on exact content ⇒ a warm recrawl of epoch 1
        equals a cold crawl of epoch 1 (every host due, no faults)."""
        seeds = list(context.seed_batch("second").urls)
        warm_crawler = _crawler(context, webgraph, churn=0.3)
        driver = ResumableCrawl(warm_crawler, rounds=2)
        warm = driver.run(seeds)
        assert warm.replay_hits > 0, "churn 0.3 should leave replays"
        assert warm.pages_changed > 0, "churn 0.3 should change pages"
        cold_crawler = _crawler(context, webgraph, churn=0.3,
                                memory=False)
        cold_crawler.begin_round(1)
        cold = cold_crawler.crawl(seeds)
        assert _corpus(warm) == _corpus(cold)

    def test_worker_count_invariant_across_rounds(self, context,
                                                  webgraph):
        outputs = []
        for workers in (1, 3):
            crawler = _crawler(context, webgraph, churn=0.2,
                               workers=workers, metrics=True)
            driver = ResumableCrawl(crawler, rounds=3)
            result = driver.run(list(context.seed_batch("second").urls))
            outputs.append({
                "result": result_to_dict(result),
                "rounds": driver.round_reports,
                "crawler": crawler_state_to_dict(crawler),
                "metrics": crawler.metrics.export_lines(),
            })
        assert outputs[0] == outputs[1]

    def test_scheduler_skips_not_due_hosts(self, context, webgraph):
        scheduler = RecrawlScheduler(
            SchedulerConfig(min_interval=2, max_interval=8), seed=3)
        crawler = _crawler(context, webgraph, churn=0.0,
                           scheduler=scheduler)
        # Hosts are first *observed* (stable) in round 1 — the first
        # revisit — so the backoff starts skipping in round 2.
        driver = ResumableCrawl(crawler, rounds=3)
        final = driver.run(list(context.seed_batch("second").urls))
        warm = driver.round_reports[2]
        assert warm["fetches_skipped"] > 0
        assert final.fetches_skipped == warm["fetches_skipped"]
        # Skipped visits replay without touching the network, so the
        # round's clock cost collapses with its fetch count.
        assert warm["clock_seconds"] < driver.round_reports[0][
            "clock_seconds"]


class Killed(RuntimeError):
    """Stands in for SIGKILL: aborts the crawl mid-round."""


class TestKillResumeMidRound:
    def _run(self, context, webgraph, path, *, rounds=2, resume=False,
             kill_at=None):
        """A checkpointed crawl with a fresh crawler; raises
        :class:`Killed` once ``kill_at`` pages of round 1 are
        visited."""
        crawler = _crawler(context, webgraph, churn=0.2, metrics=True)

        def kill_switch(partial):
            if (crawler.round == 1 and kill_at is not None
                    and partial.pages_visited >= kill_at):
                raise Killed

        return ResumableCrawl(crawler, path, rounds=rounds).run(
            list(context.seed_batch("second").urls), checkpoint_every=20,
            resume=resume, page_callback=kill_switch)

    def test_resume_mid_warm_round_is_byte_identical(
            self, context, webgraph, tmp_path):
        reference = self._run(context, webgraph, tmp_path / "ref.json")
        with pytest.raises(Killed):
            self._run(context, webgraph, tmp_path / "resumed.json",
                      kill_at=30)
        resumed = self._run(context, webgraph, tmp_path / "resumed.json",
                            resume=True)
        assert result_to_dict(resumed) == result_to_dict(reference)
        finished = (tmp_path / "ref.json").read_bytes()
        assert (tmp_path / "resumed.json").read_bytes() == finished
        # Resuming the finished crawl re-takes the totals a checkpoint
        # does not store (filter attrition) and saves the same bytes.
        again = self._run(context, webgraph, tmp_path / "ref.json",
                          resume=True)
        assert result_to_dict(again) == result_to_dict(reference)
        assert reference.filter_attrition
        assert again.filter_attrition == reference.filter_attrition
        assert (tmp_path / "ref.json").read_bytes() == finished

    def test_recrawl_checkpoint_refused_by_fewer_rounds(
            self, context, webgraph, tmp_path):
        """A round-1 checkpoint resumed as a single-round crawl would
        finish round 1 against the epoch-0 web; it is refused."""
        path = tmp_path / "cp.json"
        with pytest.raises(Killed):
            self._run(context, webgraph, path, kill_at=60)
        with pytest.raises(CheckpointError, match=r"round 1.*rounds=1"):
            self._run(context, webgraph, path, rounds=1, resume=True)


class TestShardedRounds:
    def _run(self, context, webgraph, n_shards, checkpoint=None,
             barrier_callback=None, resume=False):
        def factory(shard_id: int) -> ShardCrawler:
            web = SimulatedWeb(webgraph, seed=11, churn_rate=0.2)
            config = CrawlConfig(max_pages=MAX_PAGES, batch_size=25)
            return ShardCrawler(
                shard_id, n_shards, web, context.pipeline.classifier,
                context.build_filter_chain(), config,
                clock=SimulatedClock(), metrics=MetricsRegistry(),
                memory=PageMemory(),
                scheduler=RecrawlScheduler(seed=3))

        driver = ShardedCrawl(factory, n_shards, MAX_PAGES,
                              host_quota=2, rounds=3,
                              checkpoint_path=checkpoint,
                              checkpoint_every=1 if checkpoint else 0)
        result = driver.run(list(context.seed_batch("second").urls),
                            resume=resume,
                            barrier_callback=barrier_callback)
        return result, driver

    def test_shard_count_invariant_across_rounds(self, context,
                                                 webgraph):
        states = []
        for n_shards in (1, 3):
            result, driver = self._run(context, webgraph, n_shards)
            states.append({
                "result": result_to_dict(result),
                "rounds": driver.round_reports,
                "metrics": driver.metrics.export_lines(),
            })
        assert states[0] == states[1]
        assert states[0]["rounds"][1]["replay_hits"] > 0

    def test_kill_resume_mid_round_sharded(self, context, webgraph,
                                           tmp_path):
        reference, ref_driver = self._run(
            context, webgraph, 2, checkpoint=tmp_path / "ref.json")

        class Killed(RuntimeError):
            pass

        barriers = {"count": 0}

        def kill(total):
            barriers["count"] += 1
            # Late enough to land inside a warm round.
            if barriers["count"] == ref_driver.supersteps - 1:
                raise Killed

        path = tmp_path / "cp.json"
        with pytest.raises(Killed):
            self._run(context, webgraph, 2, checkpoint=path,
                      barrier_callback=kill)
        resumed, driver = self._run(context, webgraph, 2,
                                    checkpoint=path, resume=True)
        assert result_to_dict(resumed) == result_to_dict(reference)
        assert driver.metrics.export_lines() \
            == ref_driver.metrics.export_lines()
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_resume_of_finished_crawl_rebuilds_result(
            self, context, webgraph, tmp_path):
        path = tmp_path / "cp.json"
        reference, _ = self._run(context, webgraph, 2, checkpoint=path)
        rebuilt, driver = self._run(context, webgraph, 2,
                                    checkpoint=path, resume=True)
        assert result_to_dict(rebuilt) == result_to_dict(reference)
        assert rebuilt.stop_reason == reference.stop_reason

    def test_multi_round_requires_seeds(self, context, webgraph):
        driver = ShardedCrawl(lambda sid: None, 1, 10, rounds=2)
        with pytest.raises(ValueError, match="seeds"):
            driver.run(None)
