"""Tests for the one scorer module, ``repro.evaluation``."""

import functools
import random
import sys
from pathlib import Path

import pytest

from repro.annotations import Document, EntityMention
from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.corpora.goldstandard import build_classifier_gold
from repro.corpora.textgen import GoldDocument, GoldEntity
from repro.evaluation import (
    Counts, cross_validate, mean_precision_recall, score_labels,
    score_mentions, score_pages, score_triples, score_words,
)

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gold(vocabulary):
    return build_classifier_gold(vocabulary, 60)


class TestCounts:
    def test_report_metrics(self):
        counts = Counts(tp=8, fp=2, fn=1, tn=9)
        assert counts.precision == 0.8
        assert counts.recall == pytest.approx(8 / 9)
        assert 0 < counts.f1 < 1
        assert counts.accuracy == 0.85

    def test_report_empty(self):
        counts = Counts()
        assert counts.precision == 0.0 and counts.recall == 0.0
        assert counts.f1 == 0.0 and counts.accuracy == 0.0

    def test_sum_over_folds(self):
        total = sum([Counts(1, 2, 3, 4), Counts(10, 20, 30, 40)], Counts())
        assert total == Counts(11, 22, 33, 44)


class TestScoreLabels:
    def test_precision_recall_builder(self):
        counts = score_labels([True, True, False], [True, False, False])
        assert counts == Counts(tp=1, fp=1, fn=0, tn=1)

    def test_precision_recall_length_mismatch(self):
        with pytest.raises(ValueError):
            score_labels([True], [True, False])


class TestCrossValidation:
    def test_cross_validation_stratified(self, gold):
        scores = cross_validate(NaiveBayesClassifier, gold[:40], folds=4)
        assert len(scores) == 4
        # Every fold's test set contains both classes.
        for counts in scores:
            assert counts.tp + counts.fn > 0 and counts.tn + counts.fp > 0

    def test_cross_validation_band_matches_paper(self, gold):
        """10-fold CV should land near the paper's P=98 % / R=83 %."""
        factory = functools.partial(NaiveBayesClassifier,
                                    decision_threshold=0.9)
        precision, recall = mean_precision_recall(
            cross_validate(factory, gold, folds=10))
        assert precision > 0.85
        assert 0.6 < recall < 1.0
        assert precision > recall  # the precision-geared shape

    def test_too_few_folds(self, gold):
        with pytest.raises(ValueError):
            cross_validate(NaiveBayesClassifier, gold, folds=1)

    def test_more_folds_than_examples(self, gold):
        with pytest.raises(ValueError):
            cross_validate(NaiveBayesClassifier, gold[:4], folds=10)


TEXT = "glossoma and arthritis were found near arthritis again"


def _gold(spans):
    """Gold document with disease mentions at (start, end) spans."""
    entities = [GoldEntity(
        mention=EntityMention(TEXT[s:e], s, e, "disease", method="gold"),
        in_dictionary=True, variant=False) for s, e in spans]
    return GoldDocument(document=Document("g", TEXT), entities=entities)


def _predictions(spans, entity_type="disease"):
    return [EntityMention(TEXT[s:e], s, e, entity_type, method="ml")
            for s, e in spans]


class TestScoreMentions:
    def test_perfect_match(self):
        counts = score_mentions(_predictions([(0, 8), (13, 22)]),
                                _gold([(0, 8), (13, 22)]), "disease")
        assert counts.precision == counts.recall == counts.f1 == 1.0

    def test_miss_counts_fn(self):
        counts = score_mentions(_predictions([(0, 8)]),
                                _gold([(0, 8), (13, 22)]), "disease")
        assert counts.fn == 1 and counts.recall == 0.5

    def test_spurious_counts_fp(self):
        counts = score_mentions(_predictions([(0, 8), (39, 48)]),
                                _gold([(0, 8)]), "disease")
        assert counts.fp == 1 and counts.precision == 0.5

    def test_partial_span_is_no_hit(self):
        counts = score_mentions(_predictions([(0, 6)]), _gold([(0, 8)]),
                                "disease")
        assert counts.tp == 0

    def test_other_types_ignored(self):
        counts = score_mentions(_predictions([(0, 8)], "gene"),
                                _gold([(0, 8)]), "disease")
        assert counts == Counts(fn=1)

    def test_duplicate_gold_spans_matched_once_each(self):
        counts = score_mentions(_predictions([(13, 22), (13, 22)]),
                                _gold([(13, 22), (39, 48)]), "disease")
        assert counts.tp == 1 and counts.fp == 1

    def test_dictionary_tagger_precision(self, pipeline, relevant_generator):
        tagger = pipeline.dictionary_taggers["drug"]
        total = Counts()
        for index in range(90, 100):
            gold = relevant_generator.document(index)
            predicted = tagger.annotate(gold.document.copy_shallow())
            total += score_mentions(predicted, gold, "drug")
        assert total.precision > 0.7


class TestScoreWords:
    def test_evaluate_extraction_bounds(self):
        counts = score_words("a b c", "a b d e")
        assert counts.precision == 2 / 3
        assert counts.recall == 0.5

    def test_evaluate_empty(self):
        assert score_words("", "gold text") == Counts(fn=2)
        assert mean_precision_recall([]) == (0.0, 0.0)


class TestScorePages:
    def test_redirected_and_unknown_urls(self, webgraph):
        bio = next(u for u, p in webgraph.pages.items() if p.biomedical)
        general = next(u for u, p in webgraph.pages.items()
                       if not p.biomedical)
        documents = [
            Document(bio + "?ref=r", "", meta={"relevant": True}),
            Document(general, "", meta={"relevant": True}),
            Document(bio, "", meta={"relevant": False}),
            Document("http://nowhere.invalid/", "",
                     meta={"relevant": True}),
        ]
        assert score_pages(webgraph, documents) == Counts(tp=1, fp=1, fn=1)


class TestHarnessParity:
    def test_triples_f1_equals_harness(self):
        """The set scorer gives the benchmark harness's ``quality_f1``
        and per-type F1 bit for bit, on random triples."""
        rng = random.Random(5)
        for _ in range(200):
            universe = [(f"u{rng.randrange(6)}",
                         rng.choice(workloads.ENTITY_TYPES),
                         f"a{rng.randrange(5)}") for _ in range(40)]
            predicted = set(rng.sample(universe, rng.randrange(20)))
            gold = set(rng.sample(universe, rng.randrange(20)))
            tallies = workloads.tally_entities(predicted, gold)
            scores = score_triples(predicted, gold, workloads.ENTITY_TYPES)
            assert scores.keys() == tallies.keys()
            for key, tally in tallies.items():
                assert scores[key].f1 == workloads.f1_of(tally)
