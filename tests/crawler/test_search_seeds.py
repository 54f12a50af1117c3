"""Tests for simulated search engines and seed generation."""

import hashlib
from collections import Counter

import pytest

from repro.corpora.vocabulary import GENERAL_BIOMED_TERMS
from repro.crawler.search import (
    QueryQuotaExceeded, SimulatedSearchEngine, TermIndex,
    build_search_engines,
)
from repro.crawler.seeds import PAPER_TERM_COUNTS, SeedGenerator


@pytest.fixture(scope="module")
def engines(webgraph):
    return build_search_engines(webgraph, result_limit=15)


@pytest.fixture(scope="module")
def generator(engines, webgraph):
    return SeedGenerator(engines, webgraph.vocabulary)


class TestSearchEngine:
    def test_specific_term_returns_articles(self, engines, webgraph):
        term = webgraph.vocabulary.diseases[0].canonical
        results = engines[0].query(term)
        if results:  # term must occur somewhere in the graph
            kinds = {webgraph.pages[u].kind for u in results}
            assert "article" in kinds

    def test_general_term_prefers_portals(self, engines, webgraph):
        results = engines[0].query("cancer")
        assert results
        top = webgraph.pages[results[0]]
        host = webgraph.hosts[top.host]
        assert top.kind == "front"
        assert host.kind in ("authority", "portal")

    def test_result_limit_respected(self, engines):
        for term in ("cancer", "therapy", "treatment"):
            assert len(engines[0].query(term)) <= engines[0].result_limit

    def test_multiword_query_requires_all_words(self, engines):
        results = engines[0].query("zzzz cancer")
        assert results == []

    def test_publisher_engine_restricted_to_its_hosts(self, engines,
                                                      webgraph):
        arxiv = next(e for e in engines if e.name == "arxiv")
        for term in ("cancer", "treatment"):
            for url in arxiv.query(term):
                assert "arxiv" in url

    def test_quota_enforced(self, webgraph):
        engine = SimulatedSearchEngine("tiny", webgraph, query_quota=2)
        engine.query("a")
        engine.query("b")
        with pytest.raises(QueryQuotaExceeded):
            engine.query("c")

    def test_five_engines(self, engines):
        assert len(engines) == 5
        assert {e.name for e in engines} == {
            "bing", "google", "arxiv", "nature", "nature-blogs"}


class TestSharedIndex:
    """The five engines read one :class:`TermIndex`; each must answer
    exactly as an engine with a private index of its own slice."""

    def test_views_answer_like_private_indexes(self, webgraph):
        shared = build_search_engines(webgraph, result_limit=15)
        private = [SimulatedSearchEngine(e.name, webgraph, e.host_filter,
                                         e.result_limit)
                   for e in shared]
        batch = SeedGenerator(shared, webgraph.vocabulary).second_round(
            scale=20)
        terms = [term for category in batch.terms_by_category.values()
                 for term in category]
        terms += list(GENERAL_BIOMED_TERMS)
        terms += ["cancer therapy", "patients treatment", "zzzz cancer",
                  "health article", "", "--"]
        answered = 0
        for view, own in zip(shared, private):
            for term in terms:
                results = view.query(term)
                assert results == own.query(term), (view.name, term)
                answered += bool(results)
        assert answered

    def test_each_page_tokenized_once(self, webgraph, monkeypatch):
        calls = Counter()
        page_terms = TermIndex._page_terms

        def counting(self, url, page, host):
            calls[url] += 1
            return page_terms(self, url, page, host)

        monkeypatch.setattr(TermIndex, "_page_terms", counting)
        engines = build_search_engines(webgraph)
        for engine in engines:
            engine.query("cancer")
            engine.query("treatment")
        indexable = {url for url, page in webgraph.pages.items()
                     if not page.content_type.startswith("application/")}
        assert set(calls) == indexable
        assert set(calls.values()) == {1}

    def test_quotas_are_per_engine(self, webgraph):
        engines = build_search_engines(webgraph, query_quota=2)
        engines[0].query("cancer")
        engines[0].query("therapy")
        with pytest.raises(QueryQuotaExceeded):
            engines[0].query("treatment")
        for engine in engines[1:]:
            engine.query("cancer")
            assert engine.queries_issued == 1

    def test_seed_list_unchanged(self, webgraph):
        # Seed URLs of the test web before the engines shared an index.
        generator = SeedGenerator(build_search_engines(webgraph),
                                  webgraph.vocabulary)
        batch = generator.second_round(scale=20)
        assert (batch.queries_issued, batch.n_seeds) == (4000, 195)
        assert hashlib.sha256("\n".join(batch.urls).encode()).hexdigest() \
            == ("9addee6a9930c8216b69a5c531870d10"
                "a0263873e60092249065e7d92aabd4ce")


class TestSeedGeneration:
    def test_four_categories(self, generator):
        batch = generator.generate({"general": 3, "disease": 4,
                                    "drug": 4, "gene": 4})
        assert set(batch.terms_by_category) == {"general", "disease",
                                                "drug", "gene"}

    def test_urls_deduplicated(self, generator):
        batch = generator.generate({"disease": 10})
        assert len(batch.urls) == len(set(batch.urls))

    def test_second_round_larger_than_first(self, generator):
        first = generator.first_round(scale=20)
        second = generator.second_round(scale=20)
        total_first = sum(len(t) for t in first.terms_by_category.values())
        total_second = sum(len(t) for t in second.terms_by_category.values())
        assert total_second > total_first
        assert second.n_seeds >= first.n_seeds

    def test_table1_rows(self, generator):
        batch = generator.generate({"general": 3, "disease": 4,
                                    "drug": 2, "gene": 2})
        rows = batch.table1_rows()
        assert len(rows) == 4
        for _category, count, examples in rows:
            assert count >= 2
            assert examples

    def test_paper_term_counts_recorded(self):
        assert PAPER_TERM_COUNTS["gene"] == (6500, 246)
        assert PAPER_TERM_COUNTS["general"] == (500, 166)
