"""Tests for the logistic-regression classifier."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.arms.logistic import LogisticTextClassifier
from repro.corpora.goldstandard import build_classifier_gold
from repro.evaluation import cross_validate, mean_precision_recall


#: Trains the arm with few buckets (so words share buckets) and prints
#: its probability for every training text.
_TRAIN = """
from benchmarks.arms.logistic import LogisticTextClassifier
from repro.corpora.goldstandard import build_classifier_gold
from repro.corpora.vocabulary import BiomedicalVocabulary
gold = build_classifier_gold(BiomedicalVocabulary(seed=7, n_genes=150,
                                                  n_diseases=80, n_drugs=80),
                             20)
model = LogisticTextClassifier(n_buckets=256, epochs=2).fit(gold)
print([model.probability(text) for text, _label in gold])
"""


@pytest.fixture(scope="module")
def gold(vocabulary):
    return build_classifier_gold(vocabulary, 60)


class TestLogistic:
    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            LogisticTextClassifier().predict("text")

    def test_separates_classes(self, gold):
        model = LogisticTextClassifier(epochs=4).fit(gold)
        correct = sum(model.predict(text) == label
                      for text, label in gold)
        assert correct / len(gold) > 0.8

    def test_probability_bounds(self, gold):
        model = LogisticTextClassifier(epochs=2).fit(gold[:40])
        for text, _label in gold[:10]:
            assert 0.0 <= model.probability(text) <= 1.0

    def test_online_update_moves_probability(self, gold):
        model = LogisticTextClassifier(epochs=1).fit(gold[:30])
        text = gold[31][0]
        before = model.probability(text)
        for _ in range(30):
            model.update(text, True)
        assert model.probability(text) > before

    def test_deterministic_fit(self, gold):
        a = LogisticTextClassifier(seed=3, epochs=2).fit(gold[:30])
        b = LogisticTextClassifier(seed=3, epochs=2).fit(gold[:30])
        assert a.probability(gold[0][0]) == b.probability(gold[0][0])

    def test_cross_validation_competitive_with_nb(self, gold):
        """Discriminative vs generative on the same gold set: logistic
        regression must reach a usable accuracy band (the comparison
        the paper's classifier-choice discussion implies)."""
        factory = functools.partial(LogisticTextClassifier, epochs=4)
        precision, recall = mean_precision_recall(
            cross_validate(factory, gold, folds=5))
        assert precision > 0.75
        assert recall > 0.6

    def test_usable_as_crawler_classifier(self, context, gold):
        from repro.crawler.crawl import CrawlConfig, FocusedCrawler

        model = LogisticTextClassifier(epochs=3,
                                       decision_threshold=0.7).fit(gold)
        crawler = FocusedCrawler(context.web, model,
                                 context.build_filter_chain(),
                                 CrawlConfig(max_pages=80))
        result = crawler.crawl(context.seed_batch("second").urls)
        assert result.pages_fetched > 0


def test_training_does_not_depend_on_the_hash_seed():
    """The arm trained under ``PYTHONHASHSEED=0`` and under ``=1``
    predicts the same probabilities: its feature buckets come from a
    stable hash, not ``hash()``."""
    root = Path(__file__).resolve().parents[2]
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(root), str(root / "src"),
                   os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _TRAIN], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(",") >= 39
