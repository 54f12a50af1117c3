"""Tests for the linear-chain CRF, including a brute-force check of
the partition function on tiny chains."""

import itertools
import math

import pytest
import numpy as np

import crf_oracle
from crf_oracle import log_likelihood, spans_to_bio
from repro.ner.crf import LABELS, LinearChainCrf, bio_to_spans


def _toy_training():
    """B/I on capitalized tokens, O elsewhere."""
    sentences = []
    data = [
        (["the", "Drug", "works"], ["O", "B", "O"]),
        (["take", "Big", "Pill", "now"], ["O", "B", "I", "O"]),
        (["no", "entities", "here"], ["O", "O", "O"]),
        (["Drug", "helps"], ["B", "O"]),
        (["we", "gave", "Big", "Pill"], ["O", "O", "B", "I"]),
        (["the", "end"], ["O", "O"]),
    ] * 4
    for words, labels in data:
        features = [[f"w={w.lower()}",
                     "cap" if w[0].isupper() else "lower", "bias"]
                    for w in words]
        sentences.append((features, labels))
    return sentences


@pytest.fixture(scope="module")
def toy_crf():
    return LinearChainCrf(l2=0.1, max_iterations=80).fit(_toy_training())


class TestBioSpans:
    def test_round_trip(self):
        labels = ["O", "B", "I", "O", "B", "O"]
        assert spans_to_bio(6, bio_to_spans(labels)) == labels

    def test_bio_to_spans(self):
        assert bio_to_spans(["B", "I", "O", "B"]) == [(0, 2), (3, 4)]

    def test_trailing_entity(self):
        assert bio_to_spans(["O", "B", "I"]) == [(1, 3)]

    def test_i_without_b_tolerated(self):
        assert bio_to_spans(["O", "I", "I"]) == [(1, 3)]

    def test_adjacent_entities(self):
        assert bio_to_spans(["B", "B"]) == [(0, 1), (1, 2)]

    def test_spans_to_bio_validates(self):
        with pytest.raises(ValueError):
            spans_to_bio(3, [(2, 5)])
        with pytest.raises(ValueError):
            spans_to_bio(3, [(2, 2)])


class TestTraining:
    def test_learns_toy_pattern(self, toy_crf):
        features = [[f"w={w.lower()}",
                     "cap" if w[0].isupper() else "lower", "bias"]
                    for w in ["use", "Big", "Pill", "today"]]
        assert toy_crf.predict(features) == ["O", "B", "I", "O"]

    def test_unknown_features_ignored(self, toy_crf):
        prediction = toy_crf.predict([["w=zzz", "lower", "bias"],
                                      ["totally-new-feature"]])
        assert len(prediction) == 2

    def test_untrained_predict_raises(self):
        with pytest.raises(RuntimeError):
            LinearChainCrf().predict([["bias"]])

    def test_empty_sentence(self, toy_crf):
        assert toy_crf.predict([]) == []

    def test_feature_index_built(self, toy_crf):
        assert toy_crf.n_features > 3
        assert toy_crf.trained

    def test_duplicate_features_deduplicated(self, toy_crf):
        once = toy_crf.predict([["cap", "bias"]])
        twice = toy_crf.predict([["cap", "cap", "bias", "bias"]])
        assert once == twice


class TestPartitionFunction:
    def _brute_force_log_z(self, crf, features):
        emissions = crf_oracle.model_emissions(crf, features)
        n = emissions.shape[0]
        total = -math.inf
        for labels in itertools.product(range(len(LABELS)), repeat=n):
            score = 0.0
            previous = None
            for t, label in enumerate(labels):
                score += emissions[t, label]
                if previous is not None:
                    score += crf.transitions[previous, label]
                previous = label
            total = np.logaddexp(total, score)
        return float(total)

    def _gold_score(self, crf, features, labels):
        emissions = crf_oracle.model_emissions(crf, features)
        ids = [LABELS.index(label) for label in labels]
        return (sum(emissions[t, label] for t, label in enumerate(ids))
                + sum(crf.transitions[a, b] for a, b in zip(ids, ids[1:])))

    def test_forward_matches_brute_force(self, toy_crf):
        """log Z read off the public API (gold score - log-likelihood)
        equals enumeration, and the oracle's forward pass agrees."""
        features = [["cap", "bias"], ["lower", "bias"], ["w=the", "bias"]]
        labels = ["B", "O", "O"]
        brute = self._brute_force_log_z(toy_crf, features)
        log_z = (self._gold_score(toy_crf, features, labels)
                 - log_likelihood(toy_crf, features, labels))
        assert log_z == pytest.approx(brute, abs=1e-8)
        assert crf_oracle.log_partition(toy_crf, features) == pytest.approx(
            brute, abs=1e-8)

    def test_log_likelihood_is_normalized(self, toy_crf):
        """Sum of P(y|x) over all label sequences must be 1."""
        features = [["cap", "bias"], ["lower", "bias"]]
        total = 0.0
        for labels in itertools.product(LABELS, repeat=2):
            total += math.exp(
                log_likelihood(toy_crf, features, list(labels)))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_viterbi_is_argmax(self, toy_crf):
        """Viterbi output scores at least as high as any enumeration."""
        features = [["cap", "bias"], ["cap", "bias"], ["lower", "bias"]]
        best = toy_crf.predict(features)
        best_ll = log_likelihood(toy_crf, features, best)
        for labels in itertools.product(LABELS, repeat=3):
            assert best_ll >= log_likelihood(
                toy_crf, features, list(labels)) - 1e-9
