"""Tests for consolidated crawling+IE and two-phase classification."""

import pytest

from repro.crawler.consolidated import (
    EntityAwareClassifier, TwoPhaseClassifier,
)


@pytest.fixture(scope="module")
def entity_aware(pipeline):
    return EntityAwareClassifier(pipeline.classifier,
                                 pipeline.dictionary_taggers,
                                 entity_weight=2.0)


class TestEntityAwareClassifier:
    def test_evidence_measures_density(self, entity_aware, pipeline):
        drug = pipeline.vocabulary.drugs[0].canonical
        disease = pipeline.vocabulary.diseases[0].canonical
        text = f"Patients took {drug} against {disease} yesterday."
        evidence = entity_aware.evidence(text)
        assert evidence.total > 0
        assert evidence.mentions_per_100_words["drug"] > 0

    #: ``evidence`` on the shared context's corpus documents, recorded
    #: when each type still scanned the page with its own automaton;
    #: the one-pass count must give the same numbers.
    PINNED_EVIDENCE = {
        ("medline", 0): {"disease": 1.1049723756906078, "drug": 0.0,
                         "gene": 1.1049723756906078},
        ("medline", 1): {"disease": 0.0, "drug": 0.9803921568627451,
                         "gene": 5.882352941176471},
        ("medline", 2): {"disease": 0.9950248756218906,
                         "drug": 0.4975124378109453,
                         "gene": 3.9800995024875623},
        ("relevant", 0): {"disease": 0.48859934853420195, "drug": 0.0,
                          "gene": 0.0},
        ("relevant", 1): {"disease": 0.2934272300469484,
                          "drug": 0.2347417840375587,
                          "gene": 0.6455399061032864},
        ("relevant", 2): {"disease": 0.9174311926605505,
                          "drug": 0.22935779816513763,
                          "gene": 0.3440366972477064},
        ("irrelevant", 0): {"disease": 0.0, "drug": 0.0, "gene": 0.0},
    }

    def test_evidence_values_pinned(self, entity_aware, context):
        for (corpus, index), expected in self.PINNED_EVIDENCE.items():
            text = context.corpus_documents(corpus)[index].text
            got = entity_aware.evidence(text).mentions_per_100_words
            assert got == expected, (corpus, index)

    def test_entity_evidence_raises_relevance(self, entity_aware,
                                              pipeline):
        fringe = ("The new big market improves each cheap game with "
                  "some local team in the sunny city.")
        drug = pipeline.vocabulary.drugs[1].canonical
        disease = pipeline.vocabulary.diseases[1].canonical
        enriched = fringe + f" {drug} treats {disease}."
        assert entity_aware.log_odds(enriched) > \
            entity_aware.log_odds(fringe)
        # The boost exceeds the base classifier's own shift.
        base_gain = (pipeline.classifier.log_odds(enriched)
                     - pipeline.classifier.log_odds(fringe))
        aware_gain = (entity_aware.log_odds(enriched)
                      - entity_aware.log_odds(fringe))
        assert aware_gain > base_gain

    def test_predict_interface(self, entity_aware, context):
        document = context.corpus_documents("medline")[0]
        assert entity_aware.predict(document.text) in (True, False)
        assert 0.0 <= entity_aware.probability(document.text) <= 1.0

    def test_pluggable_into_crawler(self, context, entity_aware):
        """A consolidated crawl is just a focused crawl with the
        entity-aware relevance function (the paper's single-framework
        vision)."""
        from repro.crawler.crawl import CrawlConfig, FocusedCrawler

        crawler = FocusedCrawler(context.web, entity_aware,
                                 context.build_filter_chain(),
                                 CrawlConfig(max_pages=120))
        result = crawler.crawl(context.seed_batch("second").urls)
        assert result.pages_fetched > 0
        assert result.relevant or result.irrelevant


class TestTwoPhaseClassifier:
    def test_crawl_phase_accepts_more(self, pipeline, context):
        two_phase = TwoPhaseClassifier(pipeline.classifier,
                                       crawl_threshold=0.1,
                                       corpus_threshold=0.95)
        texts = [d.text for d in context.corpus_documents("relevant")]
        texts += [d.text for d in context.corpus_documents("irrelevant")]
        accepted_phase1 = sum(two_phase.predict(t) for t in texts)
        accepted_strict = sum(
            pipeline.classifier.probability(t) >= 0.95 for t in texts)
        assert accepted_phase1 >= accepted_strict

    def test_reclassify_partitions(self, pipeline, context):
        two_phase = TwoPhaseClassifier(pipeline.classifier)
        documents = (context.corpus_documents("medline")[:5]
                     + context.corpus_documents("irrelevant")[:5])
        kept, demoted = two_phase.reclassify(documents)
        assert len(kept) + len(demoted) == len(documents)
        # Strict phase keeps mostly the biomedical documents.
        kept_biomedical = sum(d.meta.get("biomedical", False)
                              for d in kept)
        assert kept_biomedical >= len(kept) - 1
