"""Equivalence tests for the frozen (vectorized) CRF decoder.

``predict``/``predict_batch`` run on the dense frozen kernel;
``predict_reference`` is the original per-position implementation.
Both must produce identical label sequences on randomized seeded
models and inputs, including the degenerate shapes (empty sentence,
all-unknown features, empty feature positions).
"""

import random

import pytest

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
    reference = [crf.predict_reference(features) for features in tests]
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


def test_fingerprint_stable_across_freezes():
    crf, _rng = _train(5, n_sentences=20, max_iterations=10)
    first = crf.fingerprint()
    crf.freeze()
    assert crf.fingerprint() == first


def test_fingerprint_content_addressed():
    first, _ = _train(6, n_sentences=20, max_iterations=10)
    second, _ = _train(6, n_sentences=20, max_iterations=10)
    third, _ = _train(7, n_sentences=20, max_iterations=10)
    assert first.fingerprint() == second.fingerprint()
    assert first.fingerprint() != third.fingerprint()


def test_ml_tagger_cache_round_trip(tmp_path, medline_generator):
    """MlEntityTagger produces identical mentions cold, memory-warm,
    and disk-warm; the cache key space is the model's content (weights,
    transitions, feature names, labels) and nothing the decoder builds
    on top of it, so entries persisted by an earlier decoder stay
    valid."""
    import hashlib

    import numpy as np

    from repro.nlp.anno_cache import AnnotationCache
    from repro.ner.crf import LABELS
    from repro.ner.taggers import MlEntityTagger

    gold = [medline_generator.document(i) for i in range(12)]
    tagger = MlEntityTagger.train("gene", gold, max_iterations=15)
    crf = tagger.crf
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(crf.state_weights).tobytes())
    hasher.update(np.ascontiguousarray(crf.transitions).tobytes())
    hasher.update("\x00".join(sorted(crf.feature_index)).encode())
    hasher.update("|".join(LABELS).encode())
    fingerprint = f"ml:gene:q0:crf:{hasher.hexdigest()}"
    assert tagger.fingerprint() == fingerprint

    def annotate(cache):
        tagger.annotation_cache = cache
        mentions = []
        for i in range(12, 18):
            document = medline_generator.document(i).document.copy_shallow()
            mentions.append([(m.start, m.end, m.text)
                             for m in tagger.annotate(document)])
        return mentions

    cold_cache = AnnotationCache(tmp_path)
    cold = annotate(cold_cache)
    assert cold_cache.misses > 0 and cold_cache.hits == 0
    warm = annotate(cold_cache)
    assert warm == cold
    assert cold_cache.hits > 0
    cold_cache.flush()
    disk_cache = AnnotationCache(tmp_path)
    assert annotate(disk_cache) == cold
    assert disk_cache.misses == 0
    # Decoding filled the word-type table; the key space did not move.
    assert crf._frozen.type_ids
    assert f"ml:gene:q0:{crf.fingerprint()}" == fingerprint
    assert f"ml:gene:q0:{crf.freeze().fingerprint()}" == fingerprint
