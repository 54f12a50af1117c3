"""Simulated search engines for seed generation.

Five engines (as in the paper: Bing, Google, Arxiv, Nature, Nature
blogs) indexing different slices of the synthetic web, each with a
per-query result cap and a total query quota — the API limits that
force seed generation to issue thousands of queries.

Ranking reproduces the behaviour that sank the paper's first seed
round: for *general* terms, engines rank authoritative portal front
pages highest — pages that are link hubs with little topical text, so
the focused crawler immediately classifies them irrelevant.

The five engines of :func:`build_search_engines` read one shared
:class:`TermIndex`; each is a view that applies its own host filter,
result cap and quota, so every page is tokenized once per web.
"""

from __future__ import annotations

import re
from collections import defaultdict

from repro.corpora.vocabulary import GENERAL_BIOMED_TERMS
from repro.util import seeded_rng
from repro.web.webgraph import WebGraph

_WORD_RE = re.compile(r"[a-z0-9][a-z0-9'-]*")


class QueryQuotaExceeded(RuntimeError):
    """The engine's API quota is exhausted."""


class TermIndex:
    """Term → ``{url: term count}`` postings and each page's authority
    bonus over the indexable pages of a web (every page, or those whose
    host passes ``host_filter``).  Built on first use."""

    def __init__(self, graph: WebGraph, host_filter=None,
                 seed: int = 67) -> None:
        self.graph = graph
        self.host_filter = host_filter
        self._seed = seed
        self._postings: dict[str, dict[str, int]] | None = None
        self.authority_bonus: dict[str, float] = {}

    def postings(self) -> dict[str, dict[str, int]]:
        if self._postings is None:
            index: dict[str, dict[str, int]] = defaultdict(dict)
            for url, page in self.graph.pages.items():
                if (self.host_filter is not None
                        and not self.host_filter(page.host)):
                    continue
                if page.content_type.startswith("application/"):
                    continue
                host = self.graph.hosts[page.host]
                bonus = 0.0
                if page.kind == "front":
                    bonus = (5.0 if host.kind in ("authority", "portal")
                             else 1.0)
                self.authority_bonus[url] = bonus
                for term, count in self._page_terms(url, page, host).items():
                    index[term][url] = count
            self._postings = dict(index)
        return self._postings

    def _page_terms(self, url: str, page, host) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for token in _WORD_RE.findall(self.graph.title_of(url).lower()):
            counts[token] += 3
        if page.kind == "front":
            # Portal front pages advertise general topics: engines
            # consider them authoritative for broad keywords.
            if host.biomedical and host.kind in ("authority", "portal"):
                rng = seeded_rng(self._seed, "frontterms", host.name)
                for term in rng.sample(GENERAL_BIOMED_TERMS,
                                       k=min(10, len(GENERAL_BIOMED_TERMS))):
                    for token in _WORD_RE.findall(term.lower()):
                        counts[token] += 5
            for token in _WORD_RE.findall(
                    self.graph.body_text(url).lower()):
                counts[token] += 1
            return counts
        if page.kind == "article" and page.language == "en":
            for token in _WORD_RE.findall(self.graph.body_text(url).lower()):
                counts[token] += 1
        return counts


class SimulatedSearchEngine:
    """A search API over (a slice of) the synthetic web.

    Built directly, an engine owns a private :class:`TermIndex` of the
    pages its ``host_filter`` accepts; :meth:`over` makes an engine
    that reads a shared one.
    """

    def __init__(self, name: str, graph: WebGraph,
                 host_filter=None, result_limit: int = 20,
                 query_quota: int = 100_000, seed: int = 67) -> None:
        self.name = name
        self.graph = graph
        self.host_filter = host_filter
        self.result_limit = result_limit
        self.query_quota = query_quota
        self.queries_issued = 0
        self._index = TermIndex(graph, host_filter, seed)
        #: URLs this engine may return from its index (None: all).
        self._allowed: frozenset[str] | None = None

    @classmethod
    def over(cls, index: TermIndex, name: str, host_filter=None,
             result_limit: int = 20,
             query_quota: int = 100_000) -> "SimulatedSearchEngine":
        """An engine answering from the shared, unfiltered ``index``,
        restricted to the pages ``host_filter`` accepts."""
        engine = cls(name, index.graph, host_filter, result_limit,
                     query_quota)
        engine._index = index
        if host_filter is not None:
            engine._allowed = frozenset(
                url for url, page in index.graph.pages.items()
                if host_filter(page.host))
        return engine

    # -- querying --------------------------------------------------------------

    def query(self, term: str) -> list[str]:
        """Top URLs for a (possibly multi-word) keyword query.

        Raises :class:`QueryQuotaExceeded` past the API quota; results
        are capped at ``result_limit`` per query.
        """
        if self.queries_issued >= self.query_quota:
            raise QueryQuotaExceeded(
                f"{self.name}: quota of {self.query_quota} queries exhausted")
        self.queries_issued += 1
        postings = self._index.postings()
        words = _WORD_RE.findall(term.lower())
        if not words:
            return []
        candidate_sets = [postings.get(word, {}) for word in words]
        if not all(candidate_sets):
            return []
        base = min(candidate_sets, key=len)
        if self._allowed is not None:
            base = self._allowed.intersection(base)
        bonus = self._index.authority_bonus
        scores: dict[str, float] = {}
        for url in base:
            if all(url in s for s in candidate_sets):
                tf = sum(s[url] for s in candidate_sets)
                scores[url] = tf + 10.0 * bonus.get(url, 0.0)
        ranked = sorted(scores, key=lambda u: (-scores[u], u))
        return ranked[: self.result_limit]


def build_search_engines(graph: WebGraph,
                         result_limit: int = 20,
                         query_quota: int = 100_000,
                         ) -> list[SimulatedSearchEngine]:
    """The paper's five engines over the synthetic web, sharing one
    :class:`TermIndex`.

    Two general-purpose engines index everything; three publisher
    engines only return content from their own domains (the paper
    notes arxiv.org / nature.com rank high in the crawl precisely
    because their APIs only return their own pages).
    """
    def hosted_on(*fragments: str):
        def accept(host: str) -> bool:
            return any(fragment in host for fragment in fragments)
        return accept

    index = TermIndex(graph)
    return [
        SimulatedSearchEngine.over(index, name, host_filter, result_limit,
                                   query_quota)
        for name, host_filter in (
            ("bing", None), ("google", None),
            ("arxiv", hosted_on("arxiv")), ("nature", hosted_on("nature")),
            ("nature-blogs", hosted_on("nature-blogs")))
    ]
