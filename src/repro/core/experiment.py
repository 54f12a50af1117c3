"""Shared experiment context.

Building the pipeline (CRF training) and analyzing four corpora is the
expensive part of every benchmark; :func:`default_context` memoizes a
fully-built :class:`ReproductionContext` per configuration so the
benchmark suite pays it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.annotations import Document
from repro.core.analysis import CorpusStats, analyze_corpus
from repro.core.pipeline import TextAnalyticsPipeline
from repro.corpora.goldstandard import build_classifier_gold
from repro.corpora.medline import MedlineCorpusBuilder
from repro.corpora.pmc import PmcCorpusBuilder
from repro.corpora.profiles import IRRELEVANT, RELEVANT, PROFILES
from repro.corpora.textgen import DocumentGenerator, GoldDocument
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.crawler.crawl import CrawlConfig, CrawlResult, FocusedCrawler
from repro.crawler.filters import (
    FilterChain, LanguageFilter, LengthFilter, MimeFilter,
)
from repro.crawler.search import build_search_engines
from repro.crawler.seeds import SeedBatch, SeedGenerator
from repro.web.server import SimulatedWeb
from repro.web.webgraph import WebGraph, WebGraphConfig


@dataclass(frozen=True)
class ContextConfig:
    """Reproduction-scale sizes (small enough for CI, large enough for
    stable statistics)."""

    seed: int = 19
    #: Documents generated per corpus for the content analysis.
    corpus_docs: int = 40
    #: Medline-gold documents used to train the HMM and CRFs.
    n_training_docs: int = 50
    crf_iterations: int = 40
    n_hosts: int = 60
    crawl_pages: int = 800
    seed_scale: int = 20
    #: Directory for the persistent dictionary-automaton cache
    #: (None disables caching; see repro.ner.cache).
    dictionary_cache_dir: str | None = None


class ReproductionContext:
    """Lazily builds and caches every experiment ingredient."""

    def __init__(self, config: ContextConfig | None = None) -> None:
        self.config = config or ContextConfig()
        self._vocabulary: BiomedicalVocabulary | None = None
        self._pipeline: TextAnalyticsPipeline | None = None
        self._corpora: dict[str, list[GoldDocument]] | None = None
        self._stats: dict[str, CorpusStats] | None = None
        self._webgraph: WebGraph | None = None
        self._web: SimulatedWeb | None = None
        self._crawl: CrawlResult | None = None
        self._seed_batches: dict[str, SeedBatch] = {}

    # -- ingredients --------------------------------------------------------

    @property
    def vocabulary(self) -> BiomedicalVocabulary:
        if self._vocabulary is None:
            self._vocabulary = BiomedicalVocabulary(seed=self.config.seed)
        return self._vocabulary

    @property
    def pipeline(self) -> TextAnalyticsPipeline:
        if self._pipeline is None:
            self._pipeline = TextAnalyticsPipeline.build(
                self.vocabulary, seed=self.config.seed,
                n_training_docs=self.config.n_training_docs,
                crf_iterations=self.config.crf_iterations,
                dictionary_cache=self.config.dictionary_cache_dir)
        return self._pipeline

    def corpora(self) -> dict[str, list[GoldDocument]]:
        """The four corpora of Section 4.3, gold-annotated."""
        if self._corpora is None:
            config = self.config
            n = config.corpus_docs
            medline = MedlineCorpusBuilder(self.vocabulary,
                                           seed=config.seed + 5)
            pmc = PmcCorpusBuilder(self.vocabulary, seed=config.seed + 6)
            relevant = DocumentGenerator(self.vocabulary, RELEVANT,
                                         seed=config.seed + 7)
            irrelevant = DocumentGenerator(self.vocabulary, IRRELEVANT,
                                           seed=config.seed + 8)
            self._corpora = {
                "relevant": relevant.documents(n),
                "irrelevant": [irrelevant.document(i)
                               for i in range(2 * n)],
                "medline": medline.build(2 * n),
                "pmc": pmc.build(max(10, n // 2)),
            }
        return self._corpora

    def corpus_documents(self, name: str) -> list[Document]:
        """Fresh (un-annotated) Document copies of one corpus."""
        return [gold.document.copy_shallow() for gold in self.corpora()[name]]

    def corpus_stats(self) -> dict[str, CorpusStats]:
        """Analyzed statistics for all four corpora (cached)."""
        if self._stats is None:
            self._stats = {
                name: analyze_corpus(name, self.corpus_documents(name),
                                     self.pipeline)
                for name in self.corpora()
            }
        return self._stats

    # -- crawl world ---------------------------------------------------------------

    @property
    def webgraph(self) -> WebGraph:
        if self._webgraph is None:
            self._webgraph = WebGraph(
                WebGraphConfig(n_hosts=self.config.n_hosts,
                               seed=self.config.seed + 11),
                vocabulary=self.vocabulary)
        return self._webgraph

    @property
    def web(self) -> SimulatedWeb:
        if self._web is None:
            self._web = SimulatedWeb(self.webgraph,
                                     seed=self.config.seed + 12)
        return self._web

    def build_filter_chain(self) -> FilterChain:
        return FilterChain(MimeFilter(),
                           LanguageFilter(self.pipeline.identifier),
                           LengthFilter())

    def seed_batch(self, which: str = "second") -> SeedBatch:
        if which not in self._seed_batches:
            generator = SeedGenerator(build_search_engines(self.webgraph),
                                      self.vocabulary)
            if which == "first":
                batch = generator.first_round(scale=self.config.seed_scale)
            else:
                batch = generator.second_round(scale=self.config.seed_scale)
            self._seed_batches[which] = batch
        return self._seed_batches[which]

    def run_crawl(self, max_pages: int | None = None,
                  follow_irrelevant_steps: int = 0,
                  seeds: list[str] | None = None) -> CrawlResult:
        crawler = FocusedCrawler(
            self.web, self.pipeline.classifier, self.build_filter_chain(),
            CrawlConfig(max_pages=max_pages or self.config.crawl_pages,
                        follow_irrelevant_steps=follow_irrelevant_steps))
        return crawler.crawl(seeds if seeds is not None
                             else self.seed_batch("second").urls)

    def crawl(self) -> CrawlResult:
        """The canonical cached crawl (second seed round)."""
        if self._crawl is None:
            self._crawl = self.run_crawl()
        return self._crawl


_CONTEXTS: dict[ContextConfig, ReproductionContext] = {}


def default_context(**overrides) -> ReproductionContext:
    """Process-wide memoized context (one per configuration)."""
    config = replace(ContextConfig(), **overrides) if overrides \
        else ContextConfig()
    if config not in _CONTEXTS:
        _CONTEXTS[config] = ReproductionContext(config)
    return _CONTEXTS[config]
