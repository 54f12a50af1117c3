"""The batched CRF training kernel against the per-sentence oracle.

``repro.ner.crf`` trains with one batched forward-backward per
objective call; ``crf_oracle`` (this directory) is the per-sentence,
per-position objective it replaced.  The kernel is held to the oracle
at three levels — one objective call (loss and gradient), whole
training runs (weights), and what a pipeline sees (mentions) — and the
edge cases its time-major layout introduces are pinned.  Every numpy
``RuntimeWarning`` (a log of zero, an overflow in ``exp``, a reduction
over nothing) is an error here.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crf_oracle
from repro.corpora.goldstandard import build_ner_gold
from repro.corpora.profiles import MEDLINE
from repro.ner import crf as crf_module
from repro.ner import lbfgs
from repro.ner.crf import LABELS, LinearChainCrf, TrainingSet
from repro.ner.features import sentence_features
from repro.ner.taggers import (
    ENTITY_TYPES, MlEntityTagger, _bio_labels, build_ml_taggers,
    train_taggers,
)

pytestmark = pytest.mark.filterwarnings("error")

SRC = str(Path(__file__).resolve().parents[2] / "src")
#: Small on purpose: types repeat, so cutoffs bite and features are shared.
WORDS = ["the", "BRCA1", "gene", "p53", "Aspirin", "of", "x-ray", "TNF",
         "binds", "7", ",", "cells"]


def _objective(sentences, l2=0.2, feature_cutoff=1):
    training = TrainingSet.encode([features for features, _ in sentences],
                                  feature_cutoff)
    return training, crf_module._training_objective(
        training, [labels for _, labels in sentences], l2)


def _theta(training, seed, scale=0.5):
    n_params = len(LABELS) * (len(training.feature_index) + len(LABELS))
    return np.random.default_rng(seed).normal(scale=scale, size=n_params)


def _assert_same_objective(sentences, seed, l2=0.2, feature_cutoff=1):
    training, batched = _objective(sentences, l2, feature_cutoff)
    oracle = crf_oracle.make_objective(
        sentences, crf_oracle.build_feature_index(sentences, feature_cutoff),
        l2)
    theta = _theta(training, seed)
    loss, gradient = batched(theta)
    oracle_loss, oracle_gradient = oracle(theta)
    assert np.isfinite(loss) and np.isfinite(gradient).all()
    assert loss == pytest.approx(oracle_loss, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(
        gradient, oracle_gradient, rtol=1e-9,
        atol=1e-9 * max(1.0, np.abs(oracle_gradient).max()))


@st.composite
def ragged_batches(draw):
    """(features, labels) pairs of ragged lengths, empty ones included."""
    quadratic = draw(st.booleans())
    lengths = draw(st.lists(st.integers(0, 12), min_size=0, max_size=9))
    sentences = []
    for length in lengths:
        words = draw(st.lists(st.sampled_from(WORDS), min_size=length,
                              max_size=length))
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=length,
                               max_size=length))
        sentences.append((sentence_features(words, quadratic), labels))
    return sentences


class TestObjectiveMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(ragged_batches(), st.integers(0, 2**31), st.sampled_from([1, 2, 4]))
    def test_loss_and_gradient_on_ragged_batches(self, sentences, seed,
                                                 feature_cutoff):
        _assert_same_objective(sentences, seed,
                               feature_cutoff=feature_cutoff)

    def test_central_finite_differences(self):
        rng = np.random.default_rng(5)
        sentences = [
            (sentence_features(list(rng.choice(WORDS, size=n)), quadratic),
             list(rng.choice(LABELS, size=n)))
            for n, quadratic in [(5, False), (1, False), (9, True), (3, True)]]
        training, objective = _objective(sentences, l2=0.3)
        theta = _theta(training, seed=11)
        _loss, gradient = objective(theta)
        step = 1e-6
        for index in rng.choice(len(theta), size=40, replace=False):
            bump = np.zeros_like(theta)
            bump[index] = step
            numeric = (objective(theta + bump)[0]
                       - objective(theta - bump)[0]) / (2 * step)
            assert gradient[index] == pytest.approx(numeric, rel=1e-5,
                                                    abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(ragged_batches(), st.integers(0, 2**31))
    def test_feature_kernel_emissions_match_the_per_position_loop(
            self, sentences, seed):
        features = [position for sentence, _ in sentences
                    for position in sentence]
        index = crf_oracle.build_feature_index(sentences)
        weights = np.random.default_rng(seed).normal(
            size=(len(LABELS), len(index)))
        kernel = LinearChainCrf._emissions_of(features, index.get, weights.T)
        loop = crf_oracle.emissions(crf_oracle.encode(index, features),
                                    weights)
        np.testing.assert_allclose(kernel, loop, rtol=0, atol=1e-12)


def _position(word):
    return [f"w={word}", "bias"]


EDGE_CASES = {
    "no sentences": [],
    "only empty sentences": [([], []), ([], [])],
    "single-token sentences": [([_position("a")], ["B"]),
                               ([_position("b")], ["O"]),
                               ([_position("a")], ["I"])],
    "all of one length": [([_position(w) for w in "abc"], ["O", "B", "I"]),
                          ([_position(w) for w in "cab"], ["B", "O", "O"]),
                          ([_position(w) for w in "bbc"], ["O", "O", "B"])],
    "one very long among short": [
        ([_position(w) for w in "ab" * 150], ["O", "B"] * 150),
        ([_position("a")], ["B"]), ([], []),
        ([_position(w) for w in "ba"], ["O", "I"])],
    # With feature_cutoff=3 "w=rare*" never survives and "bias" does not
    # appear on those positions: rows with no features at all.
    "positions without features": [
        ([["w=rare1"], _position("a"), ["w=rare2"]], ["O", "B", "O"]),
        ([_position("a"), ["w=rare3"]], ["B", "I"]),
        ([_position("a")], ["O"])],
}


class TestLayoutEdgeCases:
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_objective_is_finite_and_matches_oracle(self, name):
        _assert_same_objective(EDGE_CASES[name], seed=3, feature_cutoff=3)
        _assert_same_objective(EDGE_CASES[name], seed=4, feature_cutoff=1)

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_fit_trains_and_decodes(self, name):
        crf = LinearChainCrf(l2=0.5, feature_cutoff=3,
                             max_iterations=15).fit(EDGE_CASES[name])
        assert np.isfinite(crf.state_weights).all()
        assert np.isfinite(crf.transitions).all()
        assert np.isfinite(crf.training_report.final_loss)
        probe = [_position("a"), ["w=rare1"], _position("zzz")]
        assert crf.predict(probe) == crf_oracle.predict_reference(crf, probe)
        assert np.isfinite(crf_oracle.log_likelihood(crf, probe,
                                                     ["B", "O", "O"]))
        assert np.isfinite(crf_oracle.log_likelihood(crf, probe[:1], ["I"]))

    def test_every_feature_cut_off(self):
        sentences = [([["once"], ["twice"]], ["O", "B"])]
        crf = LinearChainCrf(feature_cutoff=5, max_iterations=10).fit(sentences)
        assert crf.n_features == 0 and crf.state_weights.shape == (3, 0)
        assert crf.predict([["once"], ["never"]]) in (["O", "B"], ["O", "O"])

    def test_label_count_must_match_positions(self):
        with pytest.raises(ValueError, match="2 labels for 3 encoded"):
            LinearChainCrf().fit([([["a"], ["b"], ["c"]], ["O", "B"])])

    def test_layout_is_time_major_longest_first(self):
        sentences = [[["a"]], [], [["b"], ["c"], ["d"]], [["e"], ["f"]]]
        training = TrainingSet.encode(sentences)
        assert training.lengths.tolist() == [3, 2, 1]
        assert training.starts.tolist() == [0, 3, 5, 6]
        # Rows: b e a | c f | d — and each caller position's row.
        names = sorted(training.feature_index, key=training.feature_index.get)
        offsets = training.offsets.tolist()
        assert ["".join(names[i] for i in training.feature_ids[low:high])
                for low, high in zip(offsets, offsets[1:])] == list("beacfd")
        assert training.rows.tolist() == [2, 0, 3, 5, 1, 4]


@pytest.fixture(scope="module")
def training_documents(vocabulary):
    profile = dataclasses.replace(
        MEDLINE, disease_per_1000_sentences=600.0,
        drug_per_1000_sentences=600.0, gene_per_1000_sentences=800.0)
    return build_ner_gold(vocabulary, profile, 6, seed=23)


def _labelled(training_documents, entity_type, quadratic=False):
    return [(sentence_features(words, quadratic),
             _bio_labels(sentence, gold, entity_type))
            for gold in training_documents for sentence in gold.sentences
            if (words := [t.text for t in sentence.tokens])]


def _mentions(tagger, documents):
    return [[(m.start, m.end, m.text) for m in mentions]
            for mentions in tagger.annotate_many(
                [document.copy_shallow() for document in documents])]


#: Largest weight difference allowed after N L-BFGS iterations.  The
#: optimiser amplifies last-bit differences in its inputs: one ulp of
#: noise on the *oracle's own* gradient moves its weights by 7e-11 at
#: 25 iterations and 1.3e-8 at 40 on this training set (the kernel
#: measured 1e-12 / 1e-9 / 2e-8 at 8 / 25 / 40), so no second
#: implementation can be held to 1e-8 at 40.  Identical mentions is the
#: bound that matters and has no tolerance.
WEIGHT_TOLERANCE = {8: 1e-8, 25: 1e-8, 40: 1e-6}


class TestTrainedModelsMatchOracle:
    @pytest.mark.parametrize("iterations", sorted(WEIGHT_TOLERANCE))
    def test_weights_and_mentions(self, training_documents, context,
                                  iterations):
        documents = [gold.document for corpus in context.corpora().values()
                     for gold in corpus]
        assert len(context.corpora()) == 4
        taggers = train_taggers(
            training_documents, dict.fromkeys(ENTITY_TYPES, False),
            max_iterations=iterations)
        for entity_type, tagger in taggers.items():
            oracle = crf_oracle.fit(
                _labelled(training_documents, entity_type), l2=0.2,
                max_iterations=iterations)
            assert tagger.crf.feature_index == oracle.feature_index
            assert np.abs(tagger.crf.state_weights - oracle.state_weights
                          ).max() <= WEIGHT_TOLERANCE[iterations]
            assert np.abs(tagger.crf.transitions - oracle.transitions
                          ).max() <= WEIGHT_TOLERANCE[iterations]
            found = _mentions(tagger, documents)
            assert found == _mentions(
                MlEntityTagger(entity_type, oracle), documents)
            assert any(found)

    def test_quadratic_context_weights(self, training_documents):
        sentences = _labelled(training_documents[:4], "gene", quadratic=True)
        kernel = LinearChainCrf(l2=0.2, max_iterations=25).fit(sentences)
        oracle = crf_oracle.fit(sentences, l2=0.2, max_iterations=25)
        assert np.abs(kernel.state_weights
                      - oracle.state_weights).max() <= 1e-8
        assert np.abs(kernel.transitions - oracle.transitions).max() <= 1e-8


_FINGERPRINT_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from repro.corpora.goldstandard import build_ner_gold
from repro.corpora.profiles import MEDLINE
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.ner.taggers import build_ml_taggers
from crf_oracle import model_fingerprint
vocabulary = BiomedicalVocabulary(seed=7, n_genes=40, n_diseases=20,
                                  n_drugs=20)
gold = build_ner_gold(vocabulary, MEDLINE, 4, seed=2)
for name, tagger in sorted(build_ml_taggers(gold, max_iterations=6).items()):
    print(name, model_fingerprint(tagger.crf))
"""


class TestDeterminism:
    def test_two_fits_one_fingerprint(self, training_documents):
        sentences = _labelled(training_documents, "drug")
        first = LinearChainCrf(l2=0.2, max_iterations=12).fit(sentences)
        second = LinearChainCrf(l2=0.2, max_iterations=12).fit(sentences)
        fingerprint = crf_oracle.model_fingerprint
        assert fingerprint(first) == fingerprint(second)

    def test_fingerprints_do_not_depend_on_the_hash_seed(self):
        outputs = []
        for hash_seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-c", _FINGERPRINT_SCRIPT.format(
                    src=SRC, tests=str(Path(__file__).parent))],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3

    def test_shared_encoding_equals_separate_training(self,
                                                      training_documents):
        shared = train_taggers(
            training_documents,
            {"disease": False, "drug": False, "gene": True},
            max_iterations=10)
        for entity_type, tagger in shared.items():
            alone = MlEntityTagger.train(
                entity_type, training_documents,
                quadratic_context=tagger.quadratic_context,
                max_iterations=10)
            assert crf_oracle.model_fingerprint(alone.crf) \
                == crf_oracle.model_fingerprint(tagger.crf)
        # Two linear taggers share one index; neither owns the other's.
        assert shared["drug"].crf.feature_index \
            == shared["disease"].crf.feature_index
        assert shared["drug"].crf.feature_index \
            is not shared["disease"].crf.feature_index


class TestTrainingReport:
    def test_report_of_a_normal_fit(self, training_documents):
        crf = LinearChainCrf(l2=0.2, max_iterations=7).fit(
            _labelled(training_documents, "disease"))
        report = crf.training_report
        assert 1 <= report.iterations <= 7
        assert report.objective_calls >= report.iterations
        assert report.status in (0, 1) and report.message
        assert report.seconds > 0 and np.isfinite(report.final_loss)
        assert LinearChainCrf().training_report is None

    def test_abnormal_termination_warns_with_the_optimisers_message(
            self, monkeypatch):
        # The real objective's values with its gradient negated: every
        # "descent" direction climbs, so no line search can succeed.
        real = crf_module._training_objective

        def uphill(training, labels, l2):
            objective = real(training, labels, l2)

            def flipped(theta):
                loss, gradient = objective(theta)
                return loss, -gradient
            return flipped
        monkeypatch.setattr(crf_module, "_training_objective", uphill)
        with pytest.warns(RuntimeWarning,
                          match="ABNORMAL_TERMINATION_IN_LNSRCH"):
            crf = LinearChainCrf().fit(EDGE_CASES["all of one length"])
        report = crf.training_report
        assert (report.status, report.iterations) == (2, 0)
        assert report.objective_calls == 1 + lbfgs.MAX_TRIALS
        assert crf.trained and not crf.state_weights.any()
        probe = EDGE_CASES["all of one length"][0][0]
        assert crf.predict(probe) == crf_oracle.predict_reference(crf, probe)

    def test_build_ml_taggers_defaults_to_linear_gene_templates(
            self, training_documents):
        taggers = build_ml_taggers(training_documents[:3], max_iterations=3)
        assert [t.quadratic_context for t in taggers.values()] == [False] * 3
        assert all(t.crf.training_report.seconds > 0
                   for t in taggers.values())
        assert not any(hasattr(t, "train_seconds") for t in taggers.values())
