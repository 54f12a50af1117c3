"""Logistic-regression text classifier (SGD).

An alternative relevance model to Naïve Bayes.  The paper justifies
NB by class-imbalance robustness and incremental updates; logistic
regression is the natural discriminative comparison — also trained
incrementally here (streaming SGD over hashed bag-of-words features),
so the crawl-time trade-off can be measured rather than argued.
"""

from __future__ import annotations

import hashlib
import math

from repro.classify.features import BagOfWords
from repro.util import seeded_rng


class LogisticTextClassifier:
    """Binary logistic regression over hashed bag-of-words features.

    Feature hashing keeps memory constant (BLAKE2b of the word, so the
    buckets do not change with ``PYTHONHASHSEED``); ``fit`` runs
    ``epochs`` passes of SGD with L2 regularization, and ``update``
    performs one online step (usable during a crawl like the NB model).
    """

    def __init__(self, features: BagOfWords | None = None,
                 n_buckets: int = 2 ** 16, learning_rate: float = 0.5,
                 l2: float = 1e-5, epochs: int = 3,
                 decision_threshold: float = 0.5, seed: int = 5) -> None:
        self.features = features or BagOfWords()
        self.n_buckets = n_buckets
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.decision_threshold = decision_threshold
        self.seed = seed
        self._weights = [0.0] * n_buckets
        self._bias = 0.0
        self._updates = 0

    # -- features -----------------------------------------------------------

    def _hashed(self, text: str) -> dict[int, float]:
        """Binary presence features, length-normalized.

        Presence indicators learn far faster than tf-normalized
        values on short texts; 1/sqrt(n) scaling keeps the score
        magnitude comparable across document lengths.
        """
        vector = self.features.vector(text)
        if not vector:
            return {}
        scale = 1.0 / math.sqrt(len(vector))
        hashed: dict[int, float] = {}
        for word in vector:
            digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8,
                                     person=b"lr").digest()
            hashed[int.from_bytes(digest, "little") % self.n_buckets] = scale
        return hashed

    # -- training -------------------------------------------------------------

    def update(self, text: str, relevant: bool) -> None:
        """One SGD step on a single labelled example."""
        hashed = self._hashed(text)
        target = 1.0 if relevant else 0.0
        prediction = self._probability(hashed)
        gradient = prediction - target
        rate = self.learning_rate / (1 + 1e-4 * self._updates)
        for bucket, value in hashed.items():
            weight = self._weights[bucket]
            self._weights[bucket] = (weight * (1 - rate * self.l2)
                                     - rate * gradient * value)
        self._bias -= rate * gradient
        self._updates += 1

    def fit(self, examples: list[tuple[str, bool]],
            ) -> "LogisticTextClassifier":
        rng = seeded_rng("logistic", self.seed)
        order = list(range(len(examples)))
        for _ in range(self.epochs):
            rng.shuffle(order)
            for index in order:
                text, label = examples[index]
                self.update(text, label)
        return self

    @property
    def trained(self) -> bool:
        return self._updates > 0

    # -- inference ---------------------------------------------------------------

    def _probability(self, hashed: dict[int, float]) -> float:
        score = self._bias + sum(self._weights[b] * v
                                 for b, v in hashed.items())
        if score > 500:
            return 1.0
        if score < -500:
            return 0.0
        return 1.0 / (1.0 + math.exp(-score))

    def probability(self, text: str) -> float:
        if not self.trained:
            raise RuntimeError("classifier has not been trained")
        return self._probability(self._hashed(text))

    def predict(self, text: str) -> bool:
        return self.probability(text) >= self.decision_threshold
