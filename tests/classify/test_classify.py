"""Tests for bag-of-words features and Naïve Bayes classification."""

import pytest

from repro.classify.features import STOPWORDS, BagOfWords
from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.corpora.goldstandard import build_classifier_gold


@pytest.fixture(scope="module")
def gold(vocabulary):
    return build_classifier_gold(vocabulary, 60)


@pytest.fixture(scope="module")
def trained(gold):
    return NaiveBayesClassifier().fit(gold)


class TestBagOfWords:
    def test_counts(self):
        vector = BagOfWords().vector("Tumor tumor growth")
        assert vector["tumor"] == 2
        assert vector["growth"] == 1

    def test_stopwords_removed(self):
        vector = BagOfWords().vector("the cat and the dog")
        assert "the" not in vector and "and" not in vector

    def test_stopwords_kept_when_disabled(self):
        vector = BagOfWords(use_stopwords=False).vector("the cat")
        assert "the" in vector

    def test_min_length(self):
        vector = BagOfWords(min_length=5).vector("tiny word longword")
        assert "longword" in vector and "word" not in vector and \
            "tiny" not in vector

    def test_stopword_list_plausible(self):
        assert {"the", "and", "of"} <= STOPWORDS


class TestNaiveBayes:
    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            NaiveBayesClassifier().predict("text")

    def test_one_class_only_raises(self):
        model = NaiveBayesClassifier()
        model.update("biomedical text", True)
        with pytest.raises(RuntimeError):
            model.predict("anything")

    def test_separates_classes(self, trained, gold):
        correct = sum(trained.predict(text) == label
                      for text, label in gold[:40])
        assert correct >= 32

    def test_probability_in_unit_interval(self, trained, gold):
        for text, _label in gold[:20]:
            assert 0.0 <= trained.probability(text) <= 1.0

    def test_incremental_update_shifts_model(self, gold):
        model = NaiveBayesClassifier().fit(gold[:40])
        text = gold[41][0]
        before = model.probability(text)
        for _ in range(25):
            model.update(text, not gold[41][1])
        after = model.probability(text)
        assert before != after

    def test_decision_threshold_gears_precision(self, gold):
        """Higher threshold => fewer accepted pages (the paper gears
        its crawler classifier toward precision this way)."""
        loose = NaiveBayesClassifier(decision_threshold=0.05).fit(gold)
        strict = NaiveBayesClassifier(decision_threshold=0.999).fit(gold)
        texts = [text for text, _l in gold]
        assert (sum(strict.predict(t) for t in texts)
                <= sum(loose.predict(t) for t in texts))

    def test_unknown_words_ignored(self, trained):
        # Scoring must not crash on entirely unseen vocabulary.
        assert 0.0 <= trained.probability("zzz qqq xxx") <= 1.0

    def test_log_odds_sign_matches_prediction(self, trained, gold):
        for text, _label in gold[:10]:
            odds = trained.log_odds(text)
            assert (odds >= 0) == (trained.probability(text) >= 0.5)

