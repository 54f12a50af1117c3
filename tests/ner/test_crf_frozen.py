"""Equivalence tests for the frozen (vectorized) CRF decoder.

``predict``/``predict_batch`` run on the dense frozen kernel;
``crf_oracle.predict_reference`` is the original per-position
implementation.
Both must produce identical label sequences on randomized seeded
models and inputs, including the degenerate shapes (empty sentence,
all-unknown features, empty feature positions).
"""

import random

import pytest
from crf_oracle import predict_reference

from repro.ner.crf import LinearChainCrf

FEATURES = [f"f{i}" for i in range(50)]


def _random_sentence(rng, length):
    labels = []
    state = "O"
    for _ in range(length):
        state = rng.choice(["O", "B", "I"] if state != "O" else ["O", "B"])
        labels.append(state)
    features = [sorted({rng.choice(FEATURES)
                        for _ in range(rng.randint(1, 5))})
                for _ in labels]
    return features, labels


def _train(seed, n_sentences=60, max_iterations=30):
    rng = random.Random(seed)
    training = [_random_sentence(rng, rng.randint(1, 10))
                for _ in range(n_sentences)]
    return LinearChainCrf(max_iterations=max_iterations).fit(training), rng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frozen_matches_reference_randomized(seed):
    crf, rng = _train(seed)
    tests = [_random_sentence(rng, rng.randint(0, 15))[0]
             for _ in range(80)]
    tests += [
        [],                                # empty sentence
        [["totally-unknown-feature"]],     # no known features at all
        [[], ["f1"], []],                  # empty feature positions
        [["f0"] * 4],                      # duplicated features
    ]
    reference = [predict_reference(crf, features) for features in tests]
    assert [crf.predict(features) for features in tests] == reference
    assert crf.predict_batch(tests) == reference


def test_fit_freezes_automatically():
    crf, _rng = _train(3, n_sentences=20, max_iterations=10)
    assert crf._frozen is not None


def test_predict_batch_empty():
    crf, _rng = _train(4, n_sentences=20, max_iterations=10)
    assert crf.predict_batch([]) == []


def test_untrained_predict_batch_raises():
    with pytest.raises(RuntimeError):
        LinearChainCrf().predict_batch([[["bias"]]])


def test_ml_tagger_fingerprint_is_model_content(medline_generator):
    """MlEntityTagger produces identical mentions cold and with its
    word-type table warm, and decoding leaves the model's content
    (weights, transitions, feature index) as training left it."""
    from crf_oracle import model_fingerprint

    from repro.ner.taggers import MlEntityTagger

    tagger = MlEntityTagger.train(
        "gene", [medline_generator.document(i) for i in range(12)],
        max_iterations=15)
    crf = tagger.crf
    fingerprint = model_fingerprint(crf)

    def annotate():
        mentions = []
        for i in range(12, 18):
            document = medline_generator.document(i).document.copy_shallow()
            mentions.append([(m.start, m.end, m.text)
                             for m in tagger.annotate(document)])
        return mentions

    crf.freeze()
    cold = annotate()
    assert annotate() == cold
    # Decoding filled the word-type table; the model did not move.
    assert crf._frozen.type_ids
    assert model_fingerprint(crf) == fingerprint
    assert model_fingerprint(crf.freeze()) == fingerprint
