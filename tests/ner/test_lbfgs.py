"""The numpy L-BFGS that trains the CRFs, against scipy's L-BFGS-B.

:func:`repro.ner.lbfgs.minimize` is the unconstrained path of
L-BFGS-B with scipy's default settings, so on the real CRF objective
it must take the same number of iterations and objective calls and
reach the same weights up to rounding.  Its stopping rules are pinned
on textbook functions, its failure path on objectives whose gradients
disagree with their values, and the package is checked to run without
scipy.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.corpora.goldstandard import build_ner_gold
from repro.corpora.profiles import MEDLINE
from repro.ner import crf as crf_module
from repro.ner import lbfgs
from repro.ner.crf import TrainingSet
from repro.ner.features import sentence_features
from repro.ner.taggers import ENTITY_TYPES, _bio_labels

SRC = str(Path(__file__).resolve().parents[2] / "src")
#: Largest weight difference allowed after N iterations (the bounds
#: ``test_crf_training.py`` holds the kernel to the oracle with).
WEIGHT_TOLERANCE = {8: 1e-8, 25: 1e-8, 40: 1e-6}


def _scipy_minimize(objective, x0, max_iterations):
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                             options={"maxiter": max_iterations})


@pytest.fixture(scope="module")
def crf_objectives(vocabulary):
    """The training objective of each entity type's CRF."""
    profile = dataclasses.replace(
        MEDLINE, disease_per_1000_sentences=600.0,
        drug_per_1000_sentences=600.0, gene_per_1000_sentences=800.0)
    documents = build_ner_gold(vocabulary, profile, 6, seed=23)
    sentences = [(sentence, gold, words)
                 for gold in documents for sentence in gold.sentences
                 if (words := [t.text for t in sentence.tokens])]
    training = TrainingSet.encode(
        [sentence_features(words) for _s, _g, words in sentences])
    size = 3 * (len(training.feature_index) + 3)
    return {entity_type: (crf_module._training_objective(
        training, [_bio_labels(sentence, gold, entity_type)
                   for sentence, gold, _words in sentences], 0.2), size)
        for entity_type in ENTITY_TYPES}


@pytest.mark.parametrize("iterations", sorted(WEIGHT_TOLERANCE))
def test_crf_training_takes_scipys_steps(crf_objectives, iterations):
    for objective, size in crf_objectives.values():
        ours = lbfgs.minimize(objective, np.zeros(size), iterations)
        oracle = _scipy_minimize(objective, np.zeros(size), iterations)
        assert (ours.iterations, ours.calls, ours.status, ours.message) \
            == (oracle.nit, oracle.nfev, oracle.status, oracle.message)
        assert np.abs(ours.x - oracle.x).max() \
            <= WEIGHT_TOLERANCE[iterations]
        assert ours.fun == pytest.approx(oracle.fun, rel=1e-10)


def _rosenbrock(x):
    step = x[1:] - x[:-1] ** 2
    gradient = np.zeros_like(x)
    gradient[:-1] = -400.0 * x[:-1] * step - 2.0 * (1.0 - x[:-1])
    gradient[1:] += 200.0 * step
    return (float(np.sum(100.0 * step ** 2 + (1.0 - x[:-1]) ** 2)),
            gradient)


_CURVATURE = np.linspace(1.0, 50.0, 30)
_TARGET = np.random.default_rng(0).normal(size=30)


def _quadratic(x):
    gradient = _CURVATURE * x - _TARGET
    return (float(np.sum(0.5 * _CURVATURE * x * x - _TARGET * x)),
            gradient)


@pytest.mark.parametrize("objective, x0, minimum", [
    (_rosenbrock, np.array([-1.2, 1.0, -1.2, 1.0]), np.ones(4)),
    (_quadratic, np.zeros(30), _TARGET / _CURVATURE),
])
def test_converges_on_textbook_functions(objective, x0, minimum):
    result = lbfgs.minimize(objective, x0, 1000)
    assert (result.status, result.message) \
        == (0, lbfgs.CONVERGED_REDUCTION)
    assert np.abs(result.x - minimum).max() <= 1e-4
    oracle = _scipy_minimize(objective, x0, 1000)
    assert (result.iterations, result.calls, result.message) \
        == (oracle.nit, oracle.nfev, oracle.message)
    np.testing.assert_allclose(result.x, oracle.x, rtol=0, atol=1e-10)


def test_stationary_start_converges_without_a_step():
    result = lbfgs.minimize(_quadratic, _TARGET / _CURVATURE, 5)
    assert (result.iterations, result.calls, result.status,
            result.message) == (0, 1, 0, lbfgs.CONVERGED_GRADIENT)


def test_iteration_limit():
    result = lbfgs.minimize(_rosenbrock, np.array([-1.2, 1.0]), 5)
    assert (result.iterations, result.status, result.message) \
        == (5, 1, lbfgs.ITERATION_LIMIT)


def _uphill(x):
    """Values rise along every direction the gradient calls downhill."""
    return float(np.sqrt(np.sum(x * x))), -np.ones_like(x)


def test_line_search_failure_on_the_first_step():
    result = lbfgs.minimize(_uphill, np.zeros(4), 10)
    assert (result.iterations, result.calls, result.status,
            result.message) \
        == (0, 1 + lbfgs.MAX_TRIALS, 2, lbfgs.LINE_SEARCH_FAILED)
    assert not result.x.any() and result.fun == 0.0


def _misleading_below(level):
    """The quadratic, with its gradient negated wherever its value is
    at or below ``level``."""
    def objective(x):
        value, gradient = _quadratic(x)
        return value, gradient if value > level else -gradient
    return objective


def test_failed_search_restarts_from_steepest_descent_once():
    # Two steps (2 + 1 calls) land in the misleading region; the next
    # search fails, the memory is dropped, and the steepest-descent
    # retry fails too.
    objective = _misleading_below(-0.45)
    result = lbfgs.minimize(objective, np.zeros(30), 50)
    assert (result.iterations, result.calls, result.status,
            result.message) \
        == (2, 1 + 3 + 2 * lbfgs.MAX_TRIALS, 2, lbfgs.LINE_SEARCH_FAILED)
    assert result.fun == objective(result.x)[0] <= -0.45
    oracle = _scipy_minimize(objective, np.zeros(30), 50)
    assert (oracle.nit, oracle.nfev, oracle.status) \
        == (result.iterations, result.calls, 2)


_NO_SCIPY = f"""
import sys
sys.path.insert(0, {SRC!r})
import repro
from repro.annotations import Document
from repro.core import TextAnalyticsPipeline
pipeline = TextAnalyticsPipeline.build(n_training_docs=4, crf_iterations=2)
[document] = pipeline.analyze_batch(
    [Document("d0", "BRCA1 mutations raise the risk of breast cancer.")])
assert document.sentences
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))
print(loaded)
"""


def test_building_and_running_a_pipeline_loads_no_scipy():
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert done.stdout.strip() == "[]"
