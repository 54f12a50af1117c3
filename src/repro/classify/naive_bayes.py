"""Multinomial Naïve Bayes with incremental updates.

The paper chooses Naïve Bayes for the focused crawler because it is
robust to class imbalance (no rational prior on the fraction of
biomedical pages in a crawl) and its model can be updated
incrementally (Section 2.1).  ``decision_threshold`` gears the model
toward precision or recall — the trade-off Section 5 discusses.

Scoring is served from a precomputed per-word log-ratio table
(``log(p_pos) - log(p_neg)``), rebuilt lazily whenever the model
changes, so classifying a document is one dict lookup and one multiply
per word instead of four counter lookups and two ``log`` calls — the
crawl loop classifies every fetched page, so this is on the crawler's
hot path.  ``tests/classify/classifier_oracle.py`` keeps the direct
computation for equivalence testing; the two are bit-identical by
construction (the table stores exactly the float the direct
computation makes per word, and both accumulate in the same order).
"""

from __future__ import annotations

import math
from collections import Counter

from repro.classify.features import BagOfWords


class NaiveBayesClassifier:
    """Binary multinomial NB over bag-of-words features.

    The positive class is "relevant".  ``decision_threshold`` is the
    posterior P(relevant | text) above which a document is accepted;
    values above 0.5 gear the classifier toward precision.
    """

    def __init__(self, features: BagOfWords | None = None,
                 smoothing: float = 1.0,
                 decision_threshold: float = 0.5) -> None:
        self.features = features or BagOfWords()
        self.smoothing = smoothing
        self.decision_threshold = decision_threshold
        self._word_counts = {True: Counter(), False: Counter()}
        self._class_docs = {True: 0, False: 0}
        self._class_words = {True: 0, False: 0}
        self._vocabulary: set[str] = set()
        #: Lazily-built scoring tables; None means stale (model changed
        #: since the last build).
        self._log_ratio: dict[str, float] | None = None
        self._log_prior: float = 0.0

    # -- training (incremental) ---------------------------------------------

    def update(self, text: str, relevant: bool) -> None:
        """Add one labelled document to the model (incremental)."""
        vector = self.features.vector(text)
        self._class_docs[relevant] += 1
        self._class_words[relevant] += sum(vector.values())
        self._word_counts[relevant].update(vector)
        self._vocabulary.update(vector)
        self._log_ratio = None

    def fit(self, examples: list[tuple[str, bool]]) -> "NaiveBayesClassifier":
        for text, relevant in examples:
            self.update(text, relevant)
        return self

    @property
    def trained(self) -> bool:
        return all(self._class_docs.values())

    # -- inference ------------------------------------------------------------

    def precompute(self) -> None:
        """Build the log-ratio scoring table now (no-op when fresh).

        Useful right before forking worker processes: the children
        inherit the finished table by copy-on-write instead of each
        rebuilding it on first use.
        """
        if self.trained:
            self._ensure_tables()

    def _ensure_tables(self) -> None:
        if self._log_ratio is not None:
            return
        vocab_size = max(1, len(self._vocabulary))
        total_docs = self._class_docs[True] + self._class_docs[False]
        self._log_prior = (math.log(self._class_docs[True] / total_docs)
                           - math.log(self._class_docs[False] / total_docs))
        pos_counts = self._word_counts[True]
        neg_counts = self._word_counts[False]
        pos_denominator = self._class_words[True] + self.smoothing * vocab_size
        neg_denominator = self._class_words[False] + self.smoothing * vocab_size
        # Per word, exactly the float the direct computation makes:
        # log((count+s)/denom_pos) - log((count+s)/denom_neg).
        self._log_ratio = {
            word: (math.log((pos_counts[word] + self.smoothing)
                            / pos_denominator)
                   - math.log((neg_counts[word] + self.smoothing)
                              / neg_denominator))
            for word in self._vocabulary}

    def log_odds(self, text: str) -> float:
        """log P(relevant | text) - log P(irrelevant | text)."""
        if not self.trained:
            raise RuntimeError("classifier needs examples of both classes")
        self._ensure_tables()
        ratios = self._log_ratio
        score = self._log_prior
        for word, count in self.features.vector(text).items():
            ratio = ratios.get(word)
            if ratio is not None:
                score += count * ratio
        return score

    def probability(self, text: str) -> float:
        """Posterior P(relevant | text) via the logistic of the odds."""
        odds = self.log_odds(text)
        if odds > 500:
            return 1.0
        if odds < -500:
            return 0.0
        return 1.0 / (1.0 + math.exp(-odds))

    def predict(self, text: str) -> bool:
        return self.probability(text) >= self.decision_threshold
