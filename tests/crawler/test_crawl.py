"""Tests for the focused crawl loop."""

import pytest

from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.web import strip_redirect


@pytest.fixture(scope="module")
def crawl_result(context):
    return context.crawl()


class TestCrawlOutcome:
    def test_fetches_pages(self, crawl_result):
        assert crawl_result.pages_fetched > 50

    def test_harvest_rate_in_paper_band(self, crawl_result):
        """The paper reports 38 %; typical focused crawlers 25-45 %."""
        assert 0.2 < crawl_result.harvest_rate < 0.7

    def test_download_rate_matches_paper(self, crawl_result):
        """3-4 documents/s due to filtering and classification."""
        assert 2.0 < crawl_result.download_rate < 7.0

    def test_filter_attrition_bands(self, crawl_result):
        attrition = crawl_result.filter_attrition
        assert 0.01 < attrition["mime"] < 0.25
        assert 0.05 < attrition["language"] < 0.30
        assert 0.05 < attrition["length"] < 0.35

    def test_relevant_docs_have_net_text(self, crawl_result):
        for document in crawl_result.relevant[:10]:
            assert document.text
            assert document.meta["relevant"] is True
            assert "<div" not in document.text

    def test_linkdb_populated(self, crawl_result):
        assert crawl_result.linkdb.n_edges > 100

    def test_biomedical_link_structure_navigational(self, crawl_result,
                                                    context):
        """Section 4.1: most outgoing links of biomedical pages are
        navigational (same host)."""
        graph = context.webgraph

        def is_bio(url):
            page = graph.page(strip_redirect(url))
            return bool(page and page.biomedical)
        fraction = crawl_result.linkdb.navigational_fraction(is_bio)
        assert fraction > 0.5


class TestCrawlMechanics:
    def test_robots_respected(self, context):
        crawler = FocusedCrawler(
            context.web, context.pipeline.classifier,
            context.build_filter_chain(),
            CrawlConfig(max_pages=150))
        restricted = [u for u, p in context.webgraph.pages.items()
                      if "/private/" in u]
        result = crawler.crawl(restricted[:20] or
                               list(context.webgraph.pages)[:20])
        if restricted:
            assert result.robots_denied >= 0  # counted, never crashes
            fetched_private = [d for d in
                               result.relevant + result.irrelevant
                               if "/private/" in d.doc_id]
            # Hosts with robots disallow must not appear.
            for document in fetched_private:
                host = document.doc_id.split("/")[2]
                robots = context.webgraph.host_robots(host)
                assert robots.allows(document.doc_id)

    def test_spider_trap_bounded(self, context):
        """A crawl seeded inside a trap must terminate."""
        trap_host = next((h for h, s in context.webgraph.hosts.items()
                          if s.kind == "trap"), None)
        if trap_host is None:
            pytest.skip("no trap host in graph")
        crawler = FocusedCrawler(
            context.web, context.pipeline.classifier,
            context.build_filter_chain(),
            CrawlConfig(max_pages=300, max_urls_per_host=50))
        result = crawler.crawl([f"http://{trap_host}/calendar?page=1"])
        assert result.pages_fetched <= 60

    def test_follow_irrelevant_steps_increases_coverage(self, context):
        seeds = context.seed_batch("first").urls
        stop = context.run_crawl(max_pages=400, seeds=seeds,
                                 follow_irrelevant_steps=0)
        follow = context.run_crawl(max_pages=400, seeds=seeds,
                                   follow_irrelevant_steps=1)
        assert follow.pages_fetched >= stop.pages_fetched

    def test_empty_seed_list(self, context):
        result = context.run_crawl(max_pages=10, seeds=[])
        assert result.pages_fetched == 0
        assert result.stop_reason == "frontier_empty"

    def test_page_budget_stops_crawl(self, context):
        result = context.run_crawl(max_pages=30)
        assert result.pages_fetched == 30
        assert result.stop_reason == "page_budget"


class TestOnlineLearning:
    def test_online_learning_updates_model(self, context):
        import copy

        classifier = copy.deepcopy(context.pipeline.classifier)
        vocab_before = len(classifier._vocabulary)
        crawler = FocusedCrawler(
            context.web, classifier, context.build_filter_chain(),
            CrawlConfig(max_pages=120, online_learning=True,
                        online_confidence=0.9))
        crawler.crawl(context.seed_batch("second").urls)
        assert len(classifier._vocabulary) > vocab_before

    def test_disabled_by_default(self, context):
        import copy

        classifier = copy.deepcopy(context.pipeline.classifier)
        counts_before = dict(classifier._class_docs)
        crawler = FocusedCrawler(
            context.web, classifier, context.build_filter_chain(),
            CrawlConfig(max_pages=60))
        crawler.crawl(context.seed_batch("second").urls)
        assert dict(classifier._class_docs) == counts_before
