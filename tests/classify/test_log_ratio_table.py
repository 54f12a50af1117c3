"""The precomputed log-ratio table must be invisible.

``NaiveBayesClassifier.log_odds`` serves scores from a per-word
``log(p_pos) - log(p_neg)`` table rebuilt lazily after every model
change; ``classifier_oracle.log_odds_reference`` keeps the direct
computation.  The two must agree *bit for bit* — the crawler's
sequential/parallel equivalence guarantee leans on it — for randomized
texts and for any interleaving of online-learning updates.
"""

from __future__ import annotations

import random

import pytest

from repro.classify.naive_bayes import NaiveBayesClassifier
from tests.classify.classifier_oracle import log_odds_reference

_POSITIVE = ["gene", "tumor", "protein", "therapy", "receptor",
             "carcinoma", "kinase", "mutation", "pathway", "clinical"]
_NEGATIVE = ["football", "recipe", "holiday", "guitar", "election",
             "weather", "fashion", "gossip", "travel", "gardening"]
_SHARED = ["report", "study", "group", "result", "people", "year"]


def _text(rng: random.Random, pool: list[str], length: int) -> str:
    return " ".join(rng.choice(pool + _SHARED) for _ in range(length))


def _fitted(rng: random.Random, n: int = 30) -> NaiveBayesClassifier:
    examples = []
    for _ in range(n):
        examples.append((_text(rng, _POSITIVE, rng.randint(5, 40)), True))
        examples.append((_text(rng, _NEGATIVE, rng.randint(5, 40)), False))
    return NaiveBayesClassifier().fit(examples)


class TestLogRatioTable:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bit_identical_to_reference(self, seed):
        rng = random.Random(seed)
        model = _fitted(rng)
        for _ in range(50):
            pool = rng.choice([_POSITIVE, _NEGATIVE, _SHARED])
            text = _text(rng, pool, rng.randint(1, 60))
            assert model.log_odds(text) == log_odds_reference(model, text)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_interleaved_online_updates_invalidate_table(self, seed):
        """Score, update, score again: the table must track every
        incremental model change exactly."""
        rng = random.Random(seed)
        model = _fitted(rng, n=10)
        for _ in range(40):
            text = _text(rng, rng.choice([_POSITIVE, _NEGATIVE]),
                         rng.randint(3, 30))
            assert model.log_odds(text) == log_odds_reference(model, text)
            if rng.random() < 0.6:
                model.update(_text(rng, rng.choice([_POSITIVE, _NEGATIVE]),
                                   rng.randint(3, 30)),
                             rng.random() < 0.5)

    def test_unknown_words_ignored(self):
        rng = random.Random(99)
        model = _fitted(rng, n=5)
        prior_only = model.log_odds("zzzqx vvvwk")
        assert prior_only == log_odds_reference(model, "zzzqx vvvwk")
        assert prior_only == model.log_odds("")

    def test_precompute_is_idempotent_and_matches(self):
        rng = random.Random(7)
        model = _fitted(rng, n=8)
        text = _text(rng, _POSITIVE, 25)
        lazy = model.log_odds(text)
        model.precompute()
        model.precompute()
        assert model.log_odds(text) == lazy

    def test_precompute_on_untrained_model_is_noop(self):
        model = NaiveBayesClassifier()
        model.precompute()  # must not raise
        with pytest.raises(RuntimeError):
            model.log_odds("anything")
        with pytest.raises(RuntimeError):
            log_odds_reference(model, "anything")

    def test_predict_unchanged_by_table(self):
        rng = random.Random(5)
        model = _fitted(rng)
        positive = _text(rng, _POSITIVE, 30)
        negative = _text(rng, _NEGATIVE, 30)
        assert model.predict(positive) is True
        assert model.predict(negative) is False
