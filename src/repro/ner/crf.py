"""Linear-chain Conditional Random Fields.

A from-scratch CRF with BIO labels: log-space forward-backward for the
partition function and marginals, exact gradients, L2-regularized
L-BFGS training (:mod:`repro.ner.lbfgs`), and Viterbi decoding.  This
is the Mallet analog under all three ML entity taggers (BANNER,
ChemSpot, and the authors' disease tagger all build on Mallet CRFs).

Training is one batched kernel: a :class:`TrainingSet` lays the
sentences out longest-first and time-major, and every L-BFGS objective
call is one emission product, one forward and one backward sweep over
all sentences at once (``tests/ner/crf_oracle.py`` keeps the
per-sentence objective it replaced as the test oracle).

Decoding has two kernels over one trellis, both on the frozen model
(``fit()`` ends by calling :meth:`LinearChainCrf.freeze`, which caches
transposed C-contiguous weight arrays, a scalar transition table, and
the feature index's ``get``).  :meth:`LinearChainCrf.predict` /
:meth:`LinearChainCrf.predict_batch` take feature strings, computing
emissions for *all* positions of all sentences in one vectorized pass
and decoding the tiny 3-label trellis with scalar arithmetic.
:meth:`LinearChainCrf.predict_words` takes *words*: with the
context-window templates of :mod:`repro.ner.features` a position's
active features are the disjoint union of three groups that each read
one word, so ``emission[t] = S[w[t]] + P[w[t-1]] + N[w[t+1]]`` with
three ``L``-float rows per word type, held in a type table on the
frozen model and filled on first sight of a type.  A row is a pure function
of (word, model) — never of batch composition, table state, worker or
shard — and the table holds at most :data:`TYPE_TABLE_ROWS` rows;
types past the bound get rows computed by the same function for the
call and dropped after it.

Contract: both kernels return the labels of the per-position numpy
Viterbi that ``tests/ner/crf_oracle.py`` keeps as
``predict_reference``, the equivalence suites' ground truth.  Emission
*floats* are not part of it — the feature kernel (which that oracle
shares) sums a position's weights with ``reduceat``, the type table
adds three per-group partial sums in a fixed association — only the
decoded path is; the oracle's per-position emission loop shares no
code with either and ``tests/ner/test_crf_training.py`` holds the
feature kernel to it.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import Counter
from collections.abc import Sequence
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from repro.ner import lbfgs
from repro.ner.features import (
    next_features, previous_features, self_features,
)

LABELS = ("O", "B", "I")
#: Most rows the per-model word-type table keeps (row 0, the sentence
#: boundary, included).  Web text has unbounded types — numbers,
#: identifiers, typos — so the table stops admitting at this size
#: instead of growing with the crawl.  A full table retains ~12 MiB
#: per model (measured: 4.5 MiB of rows for three labels, the rest
#: the word -> row dict, its row ints and the key strings; ~20 MiB of
#: RSS with the doubling copies' slack), per tagger and per process —
#: forked workers fill their own copy — so three taggers top out at
#: ~36 MiB retained in each worker.
TYPE_TABLE_ROWS = 1 << 16
_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


@dataclass(frozen=True)
class TrainingReport:
    """How the last :meth:`LinearChainCrf.fit` went (``status`` and
    ``message`` are :func:`repro.ner.lbfgs.minimize`'s: 0 converged, 1
    iteration limit, 2 line search failed)."""

    iterations: int
    objective_calls: int
    final_loss: float
    seconds: float
    status: int
    message: str


@dataclass(frozen=True)
class TrainingSet:
    """The feature side of a training set, encoded once for every CRF
    trained on it (:meth:`LinearChainCrf.fit_encoded`).

    Sentences are ordered longest-first and their positions laid out
    time-major — every first token, then every second token, … — so
    the sentences still running at step ``t`` are the leading rows of
    step ``t``'s slice and the recurrences need neither padding nor
    masks.  Empty sentences have no rows.
    """

    feature_index: dict[str, int]
    #: Each row's known feature ids, sorted, concatenated row after row
    #: (the layout :meth:`LinearChainCrf._emissions_from_flat` reads).
    feature_ids: np.ndarray
    #: ``(rows + 1,)`` offset of each row's ids in ``feature_ids``.
    offsets: np.ndarray
    #: ``(T + 1,)`` first row of each step.
    starts: np.ndarray
    #: Sentence lengths, longest first (row ``starts[t] + r`` is
    #: position ``t`` of the ``r``-th longest sentence).
    lengths: np.ndarray
    #: Row of each position in the caller's sentence order.
    rows: np.ndarray

    @classmethod
    def encode(cls, sentences: Sequence[Sequence[Sequence[str]]],
               feature_cutoff: int = 1) -> "TrainingSet":
        """Index the feature strings seen at least ``feature_cutoff``
        times and lay the sentences' positions out."""
        counts: Counter = Counter()
        for features in sentences:
            for position in features:
                counts.update(position)
        index = {feature: i for i, feature in enumerate(sorted(
            f for f, count in counts.items() if count >= feature_cutoff))}
        sizes = [len(features) for features in sentences]
        order = sorted((i for i, size in enumerate(sizes) if size),
                       key=lambda i: -sizes[i])
        lengths = np.asarray([sizes[i] for i in order], dtype=np.intp)
        # Step t holds one row per sentence longer than t.
        running = np.bincount(lengths)[::-1].cumsum()[::-1][1:]
        starts = np.concatenate(([0], np.cumsum(running)))
        flat_ids, boundaries = _flatten(
            (sentences[i][t] for t, count in enumerate(running)
             for i in order[:count]), index.get)
        rank = {i: r for r, i in enumerate(order)}
        rows = [starts[:sizes[i]] + rank[i] for i in sorted(order)]
        return cls(index, np.asarray(flat_ids, dtype=np.intp),
                   np.asarray(boundaries, dtype=np.intp), starts, lengths,
                   np.concatenate(rows) if rows else starts[:0])


@dataclass
class _FrozenCrf:
    """Dense decode-time compilation of a trained CRF."""

    #: ``(F, L)`` transposed state weights, C-contiguous so gathering
    #: one row per active feature id is a cache-friendly copy.
    weights_t: np.ndarray
    #: ``(L, L)`` transition weights and their scalar twin for the
    #: small-trellis decode loop.
    transitions: np.ndarray
    transitions_list: list[list[float]]
    #: Bound ``feature_index.get`` — one dict probe per feature string.
    index_get: object
    #: ``(rows, 3, L)`` per-word-type emission parts — self, as-previous
    #: and as-next — with row 0 the sentence boundary (its self part is
    #: unused).  Rows ``1..len(type_ids)`` are filled; a writer replaces
    #: the array when it grows and never rewrites a published row, so a
    #: reader works lock-free on the array it captured.
    type_table: np.ndarray
    #: word -> row, published only after the row is written.
    type_ids: dict[str, int] = field(default_factory=dict)
    type_lock: threading.Lock = field(default_factory=threading.Lock)


class LinearChainCrf:
    """BIO linear-chain CRF over string features.

    ``feature_cutoff`` drops features seen fewer times in training;
    ``l2`` is the Gaussian prior strength.  Unknown features at
    prediction time are ignored.
    """

    def __init__(self, l2: float = 1.0, feature_cutoff: int = 1,
                 max_iterations: int = 60) -> None:
        self.l2 = l2
        self.feature_cutoff = feature_cutoff
        self.max_iterations = max_iterations
        self.feature_index: dict[str, int] = {}
        self.state_weights: np.ndarray | None = None  # (L, F)
        self.transitions: np.ndarray | None = None    # (L, L)
        self._frozen: _FrozenCrf | None = None
        #: Set by ``fit``; ``None`` for a model whose weights were set
        #: by hand.
        self.training_report: TrainingReport | None = None

    @property
    def n_labels(self) -> int:
        return len(LABELS)

    @property
    def n_features(self) -> int:
        return len(self.feature_index)

    @property
    def trained(self) -> bool:
        return self.state_weights is not None

    # -- training -------------------------------------------------------------

    def fit(self, sentences: Sequence[tuple[Sequence[Sequence[str]],
                                            Sequence[str]]]) -> "LinearChainCrf":
        """Train on (features_per_position, bio_labels) pairs."""
        return self.fit_encoded(
            TrainingSet.encode([features for features, _labels in sentences],
                               self.feature_cutoff),
            [labels for _features, labels in sentences])

    def fit_encoded(self, training: TrainingSet,
                    labels: Sequence[Sequence[str]]) -> "LinearChainCrf":
        """Train on an encoded training set and this model's own BIO
        labels, one sequence per sentence ``training`` was encoded
        from (taggers that share templates share one encoding)."""
        started = time.perf_counter()
        objective = _training_objective(training, labels, self.l2)
        self.feature_index = dict(training.feature_index)
        n_labels, n_features = self.n_labels, self.n_features
        split = n_labels * n_features
        result = lbfgs.minimize(
            objective, np.zeros(split + n_labels * n_labels),
            self.max_iterations)
        self.state_weights = result.x[:split].reshape(n_labels, n_features)
        self.transitions = result.x[split:].reshape(n_labels, n_labels)
        self.training_report = TrainingReport(
            result.iterations, result.calls, float(result.fun),
            time.perf_counter() - started, result.status, result.message)
        if result.status == 2:
            warnings.warn(f"CRF training stopped early: {result.message}",
                          RuntimeWarning, stacklevel=2)
        self.freeze()
        return self

    # -- freezing -----------------------------------------------------------------

    def freeze(self) -> "LinearChainCrf":
        """Compile the trained model for fast decoding.

        Caches the transposed weight matrix (C-contiguous), a scalar
        transition table and the feature index's lookup, and starts an
        empty word-type table (rows scored under earlier weights are
        dropped).  ``fit()`` calls this automatically; call it again
        only after mutating weights by hand.
        """
        if not self.trained:
            raise RuntimeError("CRF has not been trained")
        transitions = np.ascontiguousarray(self.transitions, dtype=float)
        weights_t = np.ascontiguousarray(self.state_weights.T, dtype=float)
        index_get = self.feature_index.get
        self._frozen = _FrozenCrf(
            weights_t=weights_t,
            transitions=transitions,
            transitions_list=transitions.tolist(),
            index_get=index_get,
            type_table=self._type_rows([None], index_get, weights_t))
        return self

    def _compiled(self) -> _FrozenCrf:
        """The frozen model, compiled on first use (raises if the CRF
        is untrained)."""
        if self._frozen is None:
            self.freeze()
        return self._frozen

    # -- prediction ---------------------------------------------------------------

    def predict(self, features: Sequence[Sequence[str]]) -> list[str]:
        """Viterbi-decode BIO labels for one sentence's features
        (frozen kernel)."""
        return self.predict_batch([features])[0]

    def predict_batch(self, sentences: Sequence[Sequence[Sequence[str]]],
                      ) -> list[list[str]]:
        """Decode many sentences at once.

        Feature encoding and emission computation run over the
        concatenated positions of *all* sentences in one vectorized
        pass; only the (tiny, 3-label) Viterbi recursion runs per
        sentence.
        """
        frozen = self._compiled()
        emissions = self._emissions_of(
            (position for features in sentences for position in features),
            frozen.index_get, frozen.weights_t)
        return self._decode_sentences(
            emissions, [len(features) for features in sentences],
            frozen.transitions_list)

    def predict_words(self, sentences: Sequence[Sequence[str]],
                      ) -> list[list[str]]:
        """Decode sentences given as word lists under the
        context-window templates
        (:func:`~repro.ner.features.sentence_features`); same labels as
        ``predict_batch`` over those features.

        One dict probe per token finds its type's row; emissions are
        three gathers and two adds in a fixed association, so they do
        not depend on what else is in the batch or already in the
        table.
        """
        frozen = self._compiled()
        flat_words = list(chain.from_iterable(sentences))
        if not flat_words:
            return [[] for _ in sentences]
        rows = list(map(frozen.type_ids.get, flat_words))
        # Captured after the probes: every id seen above was published
        # with its row already in the then-current array.
        table = frozen.type_table
        extra = None
        if None in rows:
            table, extra, fresh = self._admit_types(
                frozen, list(dict.fromkeys(
                    word for word, row in zip(flat_words, rows)
                    if row is None)))
            rows = [fresh[word] if row is None else row
                    for word, row in zip(flat_words, rows)]
        lengths = [len(words) for words in sentences]
        ends = np.cumsum([length for length in lengths if length])
        own = np.asarray(rows, dtype=np.intp)
        # Each token's neighbours' rows; row 0 across sentence edges.
        before = np.empty_like(own)
        before[1:] = own[:-1]
        before[0] = before[ends[:-1]] = 0
        after = np.empty_like(own)
        after[:-1] = own[1:]
        after[ends - 1] = 0
        emissions = (self._type_parts(table, extra, own, 0)
                     + self._type_parts(table, extra, before, 1))
        emissions += self._type_parts(table, extra, after, 2)
        return self._decode_sentences(emissions, lengths,
                                      frozen.transitions_list)

    @staticmethod
    def _type_parts(table: np.ndarray, extra: np.ndarray | None,
                    rows: np.ndarray, part: int) -> np.ndarray:
        """``(len(rows), L)`` gather of one emission part; rows at or
        past ``len(table)`` index the call-local ``extra`` rows."""
        if extra is None:
            return table[rows, part]
        local = rows >= len(table)
        parts = table[np.where(local, 0, rows), part]
        parts[local] = extra[rows[local] - len(table), part]
        return parts

    def _admit_types(self, frozen: _FrozenCrf, words: list[str],
                     ) -> tuple[np.ndarray, np.ndarray | None,
                                dict[str, int]]:
        """Rows for word types the probe missed: ``(table, extra, word
        -> row)``, valid together.

        Types are admitted to the shared table while it has room under
        :data:`TYPE_TABLE_ROWS`; the rest keep their rows in ``extra``
        (``None`` when everything fit), numbered from ``len(table)``
        and dropped with this call.  Rows are scored outside the
        lock (two racing threads may score a type twice; both get the
        same floats), written under it, and only then published in
        ``type_ids``.
        """
        scored = self._type_rows(words, frozen.index_get, frozen.weights_t)
        resolved: dict[str, int] = {}
        overflow: list[int] = []
        with frozen.type_lock:
            ids = frozen.type_ids
            table = frozen.type_table
            used = len(ids) + 1
            admitted: list[int] = []
            for index, word in enumerate(words):
                row = ids.get(word)
                if row is not None:
                    resolved[word] = row
                elif used + len(admitted) < TYPE_TABLE_ROWS:
                    admitted.append(index)
                else:
                    overflow.append(index)
            if admitted:
                needed = used + len(admitted)
                if needed > len(table):
                    grown = np.empty(
                        (min(max(needed, 2 * len(table)), TYPE_TABLE_ROWS),)
                        + table.shape[1:])
                    grown[:used] = table[:used]
                    table = grown
                table[used:needed] = scored[admitted]
                frozen.type_table = table
                for row, index in enumerate(admitted, used):
                    ids[words[index]] = resolved[words[index]] = row
        if not overflow:
            return table, None, resolved
        for row, index in enumerate(overflow, len(table)):
            resolved[words[index]] = row
        return table, scored[overflow], resolved

    @classmethod
    def _type_rows(cls, words: Sequence[str | None], index_get,
                   weights_t: np.ndarray) -> np.ndarray:
        """``(len(words), 3, L)`` emission parts of each word type —
        what it contributes as the focus token, as the previous token
        and as the next one (``None`` is the sentence boundary) —
        each group scored like one position of the feature kernel."""
        groups = (group for word in words for group in (
            self_features(word) if word is not None else (),
            previous_features(word), next_features(word)))
        return cls._emissions_of(groups, index_get, weights_t).reshape(
            len(words), 3, -1)

    @classmethod
    def _emissions_of(cls, positions, index_get,
                      weights_t: np.ndarray) -> np.ndarray:
        """One emission row per feature-string collection in
        ``positions``: its known feature ids, deduplicated and sorted,
        summed by a single :meth:`_emissions_from_flat` call."""
        flat_ids, boundaries = _flatten(positions, index_get)
        return cls._emissions_from_flat(flat_ids, boundaries, weights_t)

    @staticmethod
    def _emissions_from_flat(flat_ids: list[int], boundaries: list[int],
                             weights_t: np.ndarray) -> np.ndarray:
        """Per-position emission scores for concatenated positions.

        ``boundaries`` holds the prefix offsets of each position's ids
        within ``flat_ids``; positions with no known features get a
        zero row.
        """
        n_positions = len(boundaries) - 1
        emissions = np.zeros((n_positions, weights_t.shape[1]))
        if not flat_ids:
            return emissions
        starts = np.asarray(boundaries[:-1], dtype=np.intp)
        nonempty = np.diff(np.asarray(boundaries, dtype=np.intp)) > 0
        # reduceat over only the non-empty segment starts: empty
        # segments contribute no elements, so consecutive non-empty
        # starts bound exactly one position's ids.
        rows = weights_t[np.asarray(flat_ids, dtype=np.intp)]
        emissions[nonempty] = np.add.reduceat(rows, starts[nonempty],
                                              axis=0)
        return emissions

    @classmethod
    def _decode_sentences(cls, emissions: np.ndarray, lengths: list[int],
                          transitions: list[list[float]],
                          ) -> list[list[str]]:
        """Viterbi per sentence over concatenated emission rows."""
        labels: list[list[str]] = []
        offset = 0
        for length in lengths:
            if not length:
                labels.append([])
                continue
            labels.append(cls._decode_trellis(
                emissions[offset:offset + length], transitions))
            offset += length
        return labels

    @staticmethod
    def _decode_trellis(emissions: np.ndarray,
                        transitions: list[list[float]]) -> list[str]:
        """Viterbi over one sentence's emission rows with scalar
        arithmetic — faster than numpy for the 3-label label space,
        with the same first-maximum tie-breaking as ``argmax``."""
        rows = emissions.tolist()
        n_labels = len(rows[0])
        scores = rows[0]
        pointers: list[list[int]] = []
        if n_labels == 3:
            # Unrolled BIO lane: same additions in the same order and
            # the same strictly-greater (first-maximum) tie-breaking
            # as the generic loop below, minus all index arithmetic.
            (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = \
                transitions
            s0, s1, s2 = scores
            for row in rows[1:]:
                r0, r1, r2 = row
                v0 = s0 + t00
                v1 = s1 + t10
                v2 = s2 + t20
                if v1 > v0:
                    n0, p0 = (v2, 2) if v2 > v1 else (v1, 1)
                else:
                    n0, p0 = (v2, 2) if v2 > v0 else (v0, 0)
                v0 = s0 + t01
                v1 = s1 + t11
                v2 = s2 + t21
                if v1 > v0:
                    n1, p1 = (v2, 2) if v2 > v1 else (v1, 1)
                else:
                    n1, p1 = (v2, 2) if v2 > v0 else (v0, 0)
                v0 = s0 + t02
                v1 = s1 + t12
                v2 = s2 + t22
                if v1 > v0:
                    n2, p2 = (v2, 2) if v2 > v1 else (v1, 1)
                else:
                    n2, p2 = (v2, 2) if v2 > v0 else (v0, 0)
                s0 = n0 + r0
                s1 = n1 + r1
                s2 = n2 + r2
                pointers.append([p0, p1, p2])
            scores = [s0, s1, s2]
        else:
            for row in rows[1:]:
                next_scores = []
                step_pointers = []
                for label in range(n_labels):
                    best = scores[0] + transitions[0][label]
                    best_prev = 0
                    for prev in range(1, n_labels):
                        value = scores[prev] + transitions[prev][label]
                        if value > best:
                            best = value
                            best_prev = prev
                    next_scores.append(best + row[label])
                    step_pointers.append(best_prev)
                scores = next_scores
                pointers.append(step_pointers)
        best = 0
        for label in range(1, n_labels):
            if scores[label] > scores[best]:
                best = label
        path = [best]
        for step_pointers in reversed(pointers):
            best = step_pointers[best]
            path.append(best)
        path.reverse()
        return [LABELS[i] for i in path]


def bio_to_spans(labels: Sequence[str]) -> list[tuple[int, int]]:
    """Token-index spans ``[start, end)`` of B/I runs."""
    spans = []
    start = None
    for i, label in enumerate(labels):
        if label == "B":
            if start is not None:
                spans.append((start, i))
            start = i
        elif label == "I":
            if start is None:
                start = i  # tolerate I-without-B
        else:
            if start is not None:
                spans.append((start, i))
                start = None
    if start is not None:
        spans.append((start, len(labels)))
    return spans


def _training_objective(training: TrainingSet,
                        labels: Sequence[Sequence[str]], l2: float):
    """``theta -> (loss, gradient)``: the L2-regularised negative
    log-likelihood of ``labels`` over the whole training set.

    Each call is one emission gather over all rows, one forward and
    one backward sweep of ``T_max`` vectorised steps, and the
    marginals and gradient as whole-array expressions.  ``theta`` is
    the ``(L, F)`` state weights then the ``(L, L)`` transitions,
    raveled.
    """
    label_ids = [_LABEL_INDEX[label] for label in
                 chain.from_iterable(labels)]
    if len(label_ids) != len(training.rows):
        raise ValueError(f"{len(label_ids)} labels for "
                         f"{len(training.rows)} encoded positions")
    gold = np.empty(len(label_ids), dtype=np.intp)
    gold[training.rows] = label_ids
    n_labels, n_features = len(LABELS), len(training.feature_index)
    split = n_labels * n_features
    ids, starts = training.feature_ids, training.starts
    running = np.diff(starts)
    n_rows = len(gold)
    # The row of each entry of ``ids``.  ``_bin_sums`` adds a bin's
    # entries in entry order, so a row sums its features, and a feature
    # its rows, in ascending order: a sparse 0/1 product's sums, bit
    # for bit.
    entry_rows = np.repeat(np.arange(n_rows), np.diff(training.offsets))

    def feature_sums(values: np.ndarray) -> np.ndarray:
        """``(rows, L)`` -> per-label feature sums, raveled ``(L, F)``."""
        return np.concatenate([
            _bin_sums(ids, values[:, label].take(entry_rows), n_features)
            for label in range(n_labels)])

    # Sentence (by length rank) of each row; each sentence's last row;
    # for the rows past step 0 (``first`` on), the same sentence's row
    # one step earlier.
    sentence = np.arange(n_rows) - np.repeat(starts[:-1], running)
    last = starts[training.lengths - 1] + np.arange(len(training.lengths))
    first = int(running[0]) if n_rows else 0
    before = np.arange(first, n_rows) - np.repeat(running[:-1], running[1:])
    # Empirical counts never change: computed once, out here.
    one_hot = np.zeros((n_rows, n_labels))
    one_hot[np.arange(n_rows), gold] = 1.0
    empirical = np.concatenate([
        feature_sums(one_hot),
        np.bincount(gold[before] * n_labels + gold[first:],
                    minlength=n_labels * n_labels)])

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        weights = theta[:split].reshape(n_labels, n_features)
        transitions = theta[split:].reshape(n_labels, n_labels)
        emissions = np.stack([
            _bin_sums(entry_rows, weights[label].take(ids), n_rows)
            for label in range(n_labels)], axis=1)
        alpha = _forward_sweep(emissions, transitions, starts)
        beta = _backward_sweep(emissions, transitions, starts)
        log_z = _logsumexp(alpha[last], axis=1)
        # P(y_t = l | x) per row, and P(y_t-1 = k, y_t = l | x) summed
        # over rows.
        shift = log_z[sentence, None]
        state = np.exp(alpha + beta - shift)
        pairwise = np.exp(
            alpha[before][:, :, None] + transitions
            + (emissions + beta - shift)[first:, None, :]).sum(axis=0)
        gradient = np.concatenate([feature_sums(state), pairwise.ravel()])
        gradient += l2 * theta - empirical
        # np.sum, not ``@``: past 10,000 elements BLAS threads a dot
        # product, and the hand-off costs milliseconds a call.
        loss = (float(log_z.sum()) - float(np.sum(theta * empirical))
                + 0.5 * l2 * float(np.sum(theta * theta)))
        return loss, gradient

    return objective


def _bin_sums(bins: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Each bin's ``values`` summed in order (floats, even if empty)."""
    return np.bincount(bins, values, n).astype(float, copy=False)


def _flatten(positions, index_get) -> tuple[list[int], list[int]]:
    """Known feature ids of each feature-string collection in
    ``positions``, deduplicated and sorted, concatenated; plus each
    collection's offset (one more offset than collections)."""
    flat_ids: list[int] = []
    boundaries: list[int] = [0]
    for position in positions:
        ids = set(map(index_get, position))
        ids.discard(None)
        flat_ids.extend(sorted(ids))
        boundaries.append(len(flat_ids))
    return flat_ids, boundaries


def _forward_sweep(emissions: np.ndarray, transitions: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Log forward scores of time-major rows, one vectorised
    ``(B, L, L)`` step per position index."""
    alpha = emissions.copy()
    for t in range(1, len(starts) - 1):
        low, high = starts[t], starts[t + 1]
        previous = alpha[starts[t - 1]:starts[t - 1] + high - low]
        alpha[low:high] += _logsumexp(previous[:, :, None] + transitions,
                                      axis=1)
    return alpha


def _backward_sweep(emissions: np.ndarray, transitions: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """Log backward scores of time-major rows; a sentence's last row
    stays 0 because the shorter sentences sit past each step's
    successor rows."""
    beta = np.zeros_like(emissions)
    for t in range(len(starts) - 3, -1, -1):
        low, high = starts[t + 1], starts[t + 2]
        beta[starts[t]:starts[t] + high - low] = _logsumexp(
            transitions + (emissions[low:high] + beta[low:high])[:, None, :],
            axis=2)
    return beta


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = values.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(values - peak).sum(
        axis=axis, keepdims=True))).squeeze(axis)
