"""Precision and recall against gold: one scorer per kind of output.

The paper judges every stage so: the relevance classifier at P=98 % /
R=83 % in 10-fold cross-validation and 94 % / 90 % on a judged crawl
sample, Boilerpipe at 98 % / 72 % on crawled pages.  Every scorer
returns one :class:`Counts`, and ``+`` sums them over folds or
documents.  Benchmarks and tests import this module; the system itself
does not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, AbstractSet, Callable, Iterable, Protocol, Sequence,
)

from repro.web.server import strip_redirect

if TYPE_CHECKING:
    from repro.annotations import Document, EntityMention
    from repro.corpora.textgen import GoldDocument
    from repro.web.webgraph import WebGraph


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass(frozen=True)
class Counts:
    """Outcome counts of one scoring, with the derived metrics."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: Counts) -> Counts:
        return Counts(self.tp + other.tp, self.fp + other.fp,
                      self.fn + other.fn, self.tn + other.tn)

    @property
    def precision(self) -> float:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def accuracy(self) -> float:
        return _ratio(self.tp + self.tn,
                      self.tp + self.fp + self.fn + self.tn)


def score_sets(predicted: AbstractSet, gold: AbstractSet) -> Counts:
    """Predicted items found in gold are hits, the rest misses."""
    hits = len(predicted & gold)
    return Counts(tp=hits, fp=len(predicted) - hits, fn=len(gold) - hits)


def score_triples(predicted: AbstractSet, gold: AbstractSet,
                  entity_types: Iterable[str]) -> dict[str, Counts]:
    """``(key, entity_type, alias)`` triples scored overall (``"all"``)
    and per entity type."""
    scores = {"all": score_sets(predicted, gold)}
    for entity_type in entity_types:
        scores[entity_type] = score_sets(
            {item for item in predicted if item[1] == entity_type},
            {item for item in gold if item[1] == entity_type})
    return scores


def _score_multisets(predicted: Counter, gold: Counter) -> Counts:
    hits = (predicted & gold).total()
    return Counts(tp=hits, fp=predicted.total() - hits,
                  fn=gold.total() - hits)


def score_mentions(predicted: Iterable[EntityMention], gold: GoldDocument,
                   entity_type: str) -> Counts:
    """One document's mentions of ``entity_type`` against its gold
    mentions, on exact spans; each gold mention is hit at most once."""
    return _score_multisets(
        Counter((m.start, m.end) for m in predicted
                if m.entity_type == entity_type),
        Counter((g.mention.start, g.mention.end) for g in gold.entities
                if g.mention.entity_type == entity_type))


def score_words(extracted: str, gold: str) -> Counts:
    """Extracted vs. gold net text as word multisets."""
    return _score_multisets(Counter(extracted.split()),
                            Counter(gold.split()))


def score_labels(predictions: Sequence[bool],
                 labels: Sequence[bool]) -> Counts:
    """Parallel predicted and true binary labels."""
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels differ in length")
    outcomes = Counter((bool(predicted), bool(actual))
                       for predicted, actual in zip(predictions, labels))
    return Counts(tp=outcomes[True, True], fp=outcomes[True, False],
                  fn=outcomes[False, True], tn=outcomes[False, False])


def score_pages(graph: WebGraph, documents: Iterable[Document]) -> Counts:
    """Crawled documents' relevance decisions (``meta["relevant"]``)
    against the topic planted behind each URL.  A document with no
    planted page (a spider-trap URL) is not scored."""
    predictions, labels = [], []
    for document in documents:
        page = graph.page(strip_redirect(document.doc_id))
        if page is not None:
            predictions.append(document.meta["relevant"])
            labels.append(page.biomedical)
    return score_labels(predictions, labels)


class _Classifier(Protocol):
    def fit(self, examples: list[tuple[str, bool]]) -> object: ...
    def predict(self, text: str) -> bool: ...


def cross_validate(factory: Callable[[], _Classifier],
                   examples: Sequence[tuple[str, bool]],
                   folds: int = 10) -> list[Counts]:
    """Stratified k-fold cross-validation; returns one score per fold.

    Examples are assigned to folds round-robin *within each class*, so
    every fold's test set preserves the class balance regardless of
    the input ordering.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if len(examples) < folds:
        raise ValueError("fewer examples than folds")
    assignments: list[int] = []
    per_class_counter = {True: 0, False: 0}
    for _text, label in examples:
        assignments.append(per_class_counter[label] % folds)
        per_class_counter[label] += 1
    scores = []
    for fold in range(folds):
        train = [ex for ex, f in zip(examples, assignments) if f != fold]
        test = [ex for ex, f in zip(examples, assignments) if f == fold]
        model = factory()
        model.fit(train)
        scores.append(score_labels([model.predict(text) for text, _ in test],
                                   [label for _, label in test]))
    return scores


def mean_precision_recall(scores: Sequence[Counts]) -> tuple[float, float]:
    """Mean precision and recall over folds or documents."""
    if not scores:
        return 0.0, 0.0
    precision = sum(s.precision for s in scores) / len(scores)
    recall = sum(s.recall for s in scores) / len(scores)
    return precision, recall
