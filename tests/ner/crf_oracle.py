"""Per-sentence CRF training objective and decoder — the test-only oracle.

This is the objective ``LinearChainCrf.fit`` ran before training was
batched: one sentence at a time, one position at a time, emissions
summed pairwise by ``weights[:, active].sum(axis=1)``.  It is kept
here, out of ``src/``, as the ground truth the batched kernel in
:mod:`repro.ner.crf` is held to (``tests/ner/test_crf_training.py``)
and as an emission/partition-function reference that shares no code
with the production module.  ``fit`` trains with scipy's L-BFGS-B,
the optimiser :mod:`repro.ner.lbfgs` reproduces.

:func:`predict_reference` is the per-position numpy Viterbi the frozen
decode kernels (``predict``, ``predict_batch``, ``predict_words``)
must match label for label; it shares the production feature kernel
(``LinearChainCrf._emissions_of``) and nothing else.
:func:`log_likelihood` drives the production forward sweep over a
batch of one sentence, so the brute-force partition tests in
``tests/ner/test_crf.py`` check the training kernel.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
from scipy.optimize import minimize

import repro.ner.crf as crf_module
from repro.ner.crf import LABELS, LinearChainCrf

N_LABELS = len(LABELS)
_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


def build_feature_index(sentences, feature_cutoff: int = 1) -> dict[str, int]:
    """Feature string -> dense id, over ``(features, labels)`` pairs."""
    counts: Counter = Counter()
    for features, _labels in sentences:
        for position_features in features:
            counts.update(position_features)
    kept = sorted(feature for feature, count in counts.items()
                  if count >= feature_cutoff)
    return {feature: index for index, feature in enumerate(kept)}


def encode(feature_index: dict[str, int], features) -> list[list[int]]:
    """Known feature ids per position, deduplicated and sorted."""
    return [sorted({feature_index[f] for f in position
                    if f in feature_index})
            for position in features]


def emissions(encoded: list[list[int]], weights: np.ndarray) -> np.ndarray:
    scores = np.zeros((len(encoded), N_LABELS))
    for t, active in enumerate(encoded):
        if active:
            scores[t] = weights[:, active].sum(axis=1)
    return scores


def forward(scores: np.ndarray,
            transitions: np.ndarray) -> tuple[np.ndarray, float]:
    alpha = np.empty_like(scores)
    alpha[0] = scores[0]
    for t in range(1, scores.shape[0]):
        alpha[t] = _logsumexp_axis0(alpha[t - 1][:, None]
                                    + transitions) + scores[t]
    return alpha, float(_logsumexp(alpha[-1]))


def backward(scores: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    beta = np.zeros_like(scores)
    for t in range(scores.shape[0] - 2, -1, -1):
        beta[t] = _logsumexp_axis1(
            transitions + (scores[t + 1] + beta[t + 1])[None, :])
    return beta


def accumulate(encoded: list[list[int]], labels: list[int],
               weights: np.ndarray, transitions: np.ndarray,
               grad_w: np.ndarray, grad_t: np.ndarray) -> float:
    """Add one sentence's negative log-likelihood and gradients."""
    scores = emissions(encoded, weights)
    n = scores.shape[0]
    alpha, log_z = forward(scores, transitions)
    beta = backward(scores, transitions)
    state_marginals = np.exp(alpha + beta - log_z)
    gold_score = 0.0
    previous = None
    for t, label in enumerate(labels):
        gold_score += scores[t, label]
        active = encoded[t]
        if active:
            grad_w[label, active] -= 1.0
        if previous is not None:
            gold_score += transitions[previous, label]
            grad_t[previous, label] -= 1.0
        previous = label
    for t, active in enumerate(encoded):
        if active:
            grad_w[:, active] += state_marginals[t][:, None]
    for t in range(1, n):
        pairwise = (alpha[t - 1][:, None] + transitions
                    + scores[t][None, :] + beta[t][None, :] - log_z)
        grad_t += np.exp(pairwise)
    return log_z - gold_score


def make_objective(sentences, feature_index: dict[str, int], l2: float):
    """``theta -> (loss, gradient)`` over ``(features, labels)`` pairs;
    sentences without labels are skipped, as ``fit`` always did."""
    encoded = [(encode(feature_index, features),
                [_LABEL_INDEX[label] for label in labels])
               for features, labels in sentences if len(labels)]
    n_features = len(feature_index)
    split = N_LABELS * n_features

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        weights = theta[:split].reshape(N_LABELS, n_features)
        transitions = theta[split:].reshape(N_LABELS, N_LABELS)
        loss = 0.0
        grad_w = np.zeros_like(weights)
        grad_t = np.zeros_like(transitions)
        for ids, labels in encoded:
            loss += accumulate(ids, labels, weights, transitions,
                               grad_w, grad_t)
        loss += 0.5 * l2 * float(theta @ theta)
        gradient = np.concatenate([grad_w.ravel(), grad_t.ravel()])
        gradient += l2 * theta
        return loss, gradient

    return objective


def fit(sentences, l2: float = 1.0, feature_cutoff: int = 1,
        max_iterations: int = 60) -> LinearChainCrf:
    """Train with the per-sentence objective and the production L-BFGS
    settings; returns a frozen ``LinearChainCrf`` carrying the result."""
    crf = LinearChainCrf(l2=l2, feature_cutoff=feature_cutoff,
                         max_iterations=max_iterations)
    crf.feature_index = build_feature_index(sentences, feature_cutoff)
    split = N_LABELS * crf.n_features
    result = minimize(make_objective(sentences, crf.feature_index, l2),
                      np.zeros(split + N_LABELS * N_LABELS), jac=True,
                      method="L-BFGS-B", options={"maxiter": max_iterations})
    crf.state_weights = result.x[:split].reshape(N_LABELS, crf.n_features)
    crf.transitions = result.x[split:].reshape(N_LABELS, N_LABELS)
    return crf.freeze()


def model_emissions(crf: LinearChainCrf, features) -> np.ndarray:
    """Emission rows of a trained model, by the per-position loop."""
    return emissions(encode(crf.feature_index, features), crf.state_weights)


def log_partition(crf: LinearChainCrf, features) -> float:
    """log Z of one sentence under a trained model."""
    return forward(model_emissions(crf, features), crf.transitions)[1]


def model_fingerprint(crf: LinearChainCrf) -> str:
    """Hash of what decides a trained CRF's labels: its weights,
    transitions and feature index (names and ids)."""
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(crf.state_weights).tobytes())
    hasher.update(np.ascontiguousarray(crf.transitions).tobytes())
    hasher.update(repr(sorted(crf.feature_index.items())).encode())
    return hasher.hexdigest()


def predict_reference(crf: LinearChainCrf, features) -> list[str]:
    """Viterbi-decode one sentence's features, one position at a time."""
    if not crf.trained:
        raise RuntimeError("CRF has not been trained")
    if not features:
        return []
    rows = crf._emissions_of(features, crf.feature_index.get,
                             crf.state_weights.T)
    transitions = crf.transitions
    n = rows.shape[0]
    scores = rows[0].copy()
    pointers = np.zeros((n, N_LABELS), dtype=np.int64)
    for t in range(1, n):
        candidate = scores[:, None] + transitions
        pointers[t] = candidate.argmax(axis=0)
        scores = candidate.max(axis=0) + rows[t]
    best = int(scores.argmax())
    path = [best]
    for t in range(n - 1, 0, -1):
        best = int(pointers[t, best])
        path.append(best)
    path.reverse()
    return [LABELS[i] for i in path]


def log_likelihood(crf: LinearChainCrf, features, labels) -> float:
    """log P(labels | features) under a trained model, by the
    production training kernel over a batch of one sentence."""
    if not crf.trained:
        raise RuntimeError("CRF has not been trained")
    rows = crf._emissions_of(features, crf.feature_index.get,
                             crf.state_weights.T)
    gold = np.asarray([_LABEL_INDEX[label] for label in labels],
                      dtype=np.intp)
    alpha = crf_module._forward_sweep(rows, crf.transitions,
                                      np.arange(len(gold) + 1))
    score = (rows[np.arange(len(gold)), gold].sum()
             + crf.transitions[gold[:-1], gold[1:]].sum())
    return float(score - crf_module._logsumexp(alpha[-1:], axis=1)[0])


def spans_to_bio(n_tokens: int, spans) -> list[str]:
    """Inverse of :func:`repro.ner.crf.bio_to_spans`."""
    labels = ["O"] * n_tokens
    for start, end in spans:
        if start < 0 or end > n_tokens or start >= end:
            raise ValueError(f"invalid span ({start}, {end})")
        labels[start] = "B"
        for i in range(start + 1, end):
            labels[i] = "I"
    return labels


def _logsumexp(values: np.ndarray) -> np.ndarray:
    peak = values.max()
    return peak + np.log(np.exp(values - peak).sum())


def _logsumexp_axis0(matrix: np.ndarray) -> np.ndarray:
    peak = matrix.max(axis=0)
    return peak + np.log(np.exp(matrix - peak[None, :]).sum(axis=0))


def _logsumexp_axis1(matrix: np.ndarray) -> np.ndarray:
    peak = matrix.max(axis=1)
    return peak + np.log(np.exp(matrix - peak[:, None]).sum(axis=1))
