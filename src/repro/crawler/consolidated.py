"""Consolidated crawling and text analytics (Section 5 future work).

The paper's closing challenge: "the result of the IE pipeline could
actually be a valuable input for the classifier during a crawl, as the
occurrence of gene names or disease names are strong indicators for
biomedical content … it would be a worthwhile undertaking to research
systems that would allow specifying crawling strategies,
classification, and domain-specific IE in a single framework."

This module implements that system:

* :class:`EntityAwareClassifier` — wraps the Naïve Bayes relevance
  model and shifts its log-odds by dictionary-NER evidence found in
  the page (entity mentions per 100 words, per type);
* :class:`TwoPhaseClassifier` — the other Section 5 alternative:
  crawl with a recall-geared threshold, then re-classify the corpus
  with a precision-geared threshold in a second pass.

Both plug into :class:`~repro.crawler.crawl.FocusedCrawler` unchanged
(they expose ``predict``), so a consolidated crawl *is* a focused
crawl with a richer relevance function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotations import Document
from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.ner.dictionary import DictionaryTagger, shared_dictionary


@dataclass
class EntityEvidence:
    """Per-type entity densities extracted from one page."""

    mentions_per_100_words: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.mentions_per_100_words.values())


class EntityAwareClassifier:
    """Relevance = Naïve Bayes log-odds + NER-evidence bonus.

    ``entity_weight`` is the log-odds boost per entity mention per 100
    words (summed over types); it lets pages at the lexical fringe be
    rescued by hard entity evidence — exactly the signal the paper
    says the two-stage architecture wastes.
    """

    def __init__(self, base: NaiveBayesClassifier,
                 taggers: dict[str, DictionaryTagger],
                 entity_weight: float = 2.0,
                 decision_threshold: float | None = None) -> None:
        self.base = base
        self.taggers = taggers
        self.dictionary = shared_dictionary(taggers.values())
        self.entity_weight = entity_weight
        self.decision_threshold = (decision_threshold
                                   if decision_threshold is not None
                                   else base.decision_threshold)

    def evidence(self, text: str) -> EntityEvidence:
        """Dictionary-NER densities for a text: every word-aligned
        match per type (before overlap resolution), from one pass over
        the shared automaton."""
        n_words = max(1, len(text.split()))
        matches = self.dictionary.matches(text)
        return EntityEvidence(mentions_per_100_words={
            entity_type: 100.0 * len(matches[entity_type]) / n_words
            for entity_type in self.taggers})

    def log_odds(self, text: str) -> float:
        base_odds = self.base.log_odds(text)
        return base_odds + self.entity_weight * self.evidence(text).total

    def probability(self, text: str) -> float:
        import math

        odds = self.log_odds(text)
        if odds > 500:
            return 1.0
        if odds < -500:
            return 0.0
        return 1.0 / (1.0 + math.exp(-odds))

    def predict(self, text: str) -> bool:
        return self.probability(text) >= self.decision_threshold


class TwoPhaseClassifier:
    """Recall-geared crawling plus precision-geared re-classification.

    Phase 1 (``predict``) accepts anything above the low threshold —
    used *during* the crawl, where rejecting a page kills its subtree.
    Phase 2 (:meth:`reclassify`) prunes the harvested corpus with the
    high threshold.
    """

    def __init__(self, base: NaiveBayesClassifier,
                 crawl_threshold: float = 0.2,
                 corpus_threshold: float = 0.95) -> None:
        self.base = base
        self.crawl_threshold = crawl_threshold
        self.corpus_threshold = corpus_threshold

    def predict(self, text: str) -> bool:
        return self.base.probability(text) >= self.crawl_threshold

    def reclassify(self, documents: list[Document],
                   ) -> tuple[list[Document], list[Document]]:
        """Split a phase-1 corpus into (kept, demoted) by the strict
        threshold."""
        kept, demoted = [], []
        for document in documents:
            if self.base.probability(document.text) >= self.corpus_threshold:
                kept.append(document)
            else:
                demoted.append(document)
        return kept, demoted
