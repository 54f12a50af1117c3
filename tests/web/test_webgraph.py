"""Tests for the synthetic web graph."""

import gc
import weakref

from repro.web.webgraph import (
    AUTHORITY_HOSTS_BIO, WebGraph, WebGraphConfig, is_trap_url,
    _next_trap_url,
)


class TestConstruction:
    def test_deterministic(self):
        a = WebGraph(WebGraphConfig(n_hosts=25, seed=3))
        b = WebGraph(WebGraphConfig(n_hosts=25, seed=3))
        assert list(a.pages) == list(b.pages)
        assert a.pages[next(iter(a.pages))].outlinks == \
            b.pages[next(iter(b.pages))].outlinks

    def test_authority_hosts_always_present(self, webgraph):
        for host in AUTHORITY_HOSTS_BIO:
            assert host in webgraph.hosts

    def test_every_host_has_front_page(self, webgraph):
        for host in webgraph.hosts:
            assert f"http://{host}/" in webgraph.pages

    def test_outlinks_point_to_real_or_trap_urls(self, webgraph):
        for page in webgraph.pages.values():
            for url in page.outlinks:
                assert url in webgraph.pages or is_trap_url(url)

    def test_noise_class_fractions(self, webgraph):
        articles = [p for p in webgraph.pages.values()
                    if p.kind == "article"]
        binary = sum(1 for p in articles
                     if p.content_type.startswith("application/"))
        foreign = sum(1 for p in articles if p.language != "en")
        assert 0.03 < binary / len(articles) < 0.2
        assert 0.05 < foreign / len(articles) < 0.25

    def test_biomedical_weakly_linked(self, webgraph):
        """Bio pages carry fewer cross-host links than general pages."""
        def cross_host_links(page):
            return sum(1 for u in page.outlinks
                       if not u.startswith(f"http://{page.host}"))
        bio = [cross_host_links(p) for p in webgraph.pages.values()
               if p.biomedical and p.kind == "article"]
        general = [cross_host_links(p) for p in webgraph.pages.values()
                   if not p.biomedical and p.kind == "article"]
        assert sum(bio) / max(1, len(bio)) \
            < sum(general) / max(1, len(general))


class TestContent:
    def test_body_text_cached_and_stable(self, webgraph):
        url = next(u for u, p in webgraph.pages.items()
                   if p.kind == "article" and p.language == "en"
                   and not p.content_type.startswith("application/"))
        first = webgraph.body_text(url)
        assert webgraph.body_text(url) == first
        assert webgraph.body_text(url) is first

    def test_dropped_graph_is_collected(self):
        """The text cache lives on the graph, so it keeps no graph
        alive after its last reference goes."""
        graph = WebGraph(WebGraphConfig(n_hosts=20, seed=8))
        graph.body_text(next(iter(graph.pages)))
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_foreign_pages_get_foreign_text(self, webgraph):
        page = next((p for p in webgraph.pages.values()
                     if p.language == "de"), None)
        if page is None:
            return  # graph too small to include German pages
        text = webgraph.body_text(page.url)
        assert any(w in text for w in ("der", "die", "und", "nicht"))

    def test_front_page_text_is_short(self, webgraph):
        front = next(p for p in webgraph.pages.values()
                     if p.kind == "front")
        assert len(webgraph.body_text(front.url)) < 400

    def test_short_pages_truncated(self, webgraph):
        short = [p for p in webgraph.pages.values()
                 if p.length_class == "short"]
        for page in short[:5]:
            assert len(webgraph.body_text(page.url)) <= 150

    def test_long_pages_inflated(self, webgraph):
        long_pages = [p for p in webgraph.pages.values()
                      if p.length_class == "long"]
        for page in long_pages[:2]:
            assert len(webgraph.body_text(page.url)) >= 25_000

    def test_gold_document_offsets(self, webgraph):
        url = next(u for u, p in webgraph.pages.items()
                   if p.kind == "article" and p.language == "en"
                   and p.length_class == "normal"
                   and not p.content_type.startswith("application/"))
        gold = webgraph.gold_document(url)
        for sentence in gold.sentences:
            assert gold.text[sentence.start:sentence.end] == sentence.text


class TestTraps:
    def test_next_trap_url_increments(self):
        assert _next_trap_url("http://t/calendar?page=7") == \
            "http://t/calendar?page=8"

    def test_is_trap_url(self):
        assert is_trap_url("http://t/calendar?page=1")
        assert not is_trap_url("http://t/articles/item1.html")
