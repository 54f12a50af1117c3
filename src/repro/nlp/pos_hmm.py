"""Hidden-Markov-Model part-of-speech tagger (MedPost analog).

A trigram (order-3, like MedPost) HMM: transitions
``P(t_i | t_{i-2}, t_{i-1})`` with deleted-interpolation backoff to
bigram and unigram, add-k smoothed emissions, and shape/suffix-based
unknown-word handling.  Decoding is Viterbi over tag-pair states.

Two decoding kernels share the model:

* the **reference** kernel (:meth:`HmmPosTagger.tag_reference`) is the
  original dict-of-tuples Viterbi — easy to audit, kept as the ground
  truth the equivalence suite decodes against;
* the **frozen** kernel (:meth:`HmmPosTagger.freeze` +
  :class:`_FrozenHmm`) compiles the trained model into integer-indexed
  dense structures (a precomputed interpolated transition log-prob
  tensor over tag-pair states, per-word candidate-tag/emission arrays,
  a shape-emission table) and decodes over those.  It produces
  *identical* tag sequences (same floats, same tie-breaking) several
  times faster; ``tag()`` dispatches to it automatically once the
  model is frozen.

Operational quirks of the original are modelled explicitly: runtime is
linear in sentence length but fluctuates, and sentences beyond
``crash_token_limit`` raise :class:`TaggerCrash` — the behaviour the
paper observed on >2000-character pseudo-sentences from web pages.
Both kernels preserve these semantics exactly.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence

import numpy as np

_START = "<S>"
_UNK_SHAPES = (
    "suffix_ing", "suffix_ed", "suffix_s", "suffix_ly", "suffix_tion",
    "shape_allcaps", "shape_capitalized", "shape_number", "shape_mixed",
    "shape_punct", "shape_other",
)

#: Trellis-step size (|prev2| * |prev1| * |candidates| cells) below
#: which the frozen kernel uses scalar arithmetic over the compiled
#: lists instead of numpy — per-call overhead dwarfs vector wins on
#: the tiny steps that known words with few candidate tags produce.
_SMALL_STEP_CELLS = 192

#: Shared backpointer matrix for forced (single-cell) trellis steps;
#: read-only in backtrace, so one instance serves every step.
_ARG0 = [[0]]


class TaggerCrash(RuntimeError):
    """Raised when the tagger hits an input it cannot process
    (pathologically long sentences, like the original MedPost)."""


def _shape(word: str) -> str:
    if all(c in ".,;:!?()[]{}<>%&=+/*-'\"" for c in word):
        return "shape_punct"
    if word.isdigit() or word.replace(".", "").isdigit():
        return "shape_number"
    for suffix in ("ing", "tion", "ed", "ly", "s"):
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            return f"suffix_{suffix}"
    if word.isupper() and len(word) > 1:
        return "shape_allcaps"
    if word[:1].isupper():
        return "shape_capitalized"
    if any(c.isdigit() for c in word):
        return "shape_mixed"
    return "shape_other"


class _FrozenHmm:
    """Integer-indexed dense compilation of a trained tagger.

    Built by :meth:`HmmPosTagger.freeze`.  Tags (plus the synthetic
    start tag) are numbered in sorted-name order, so ascending ids ==
    lexicographic tag order — the exact iteration order the reference
    kernel visits states in, which makes numpy's first-maximum
    ``argmax`` reproduce its tie-breaking bit for bit.

    Frozen state:

    * ``trans`` — ``(E, E, E)`` tensor of interpolated transition
      log-probs ``log P(b | t2, t1)`` (and its nested-list twin for
      the scalar kernel), computed once from the reference
      :meth:`HmmPosTagger._transition_row`;
    * ``word_table`` — per known (lowercased) word: candidate tag ids
      and their precomputed emission log-probs;
    * ``shape_table`` — per unknown-word shape: the full real tagset
      and its shape-emission log-probs.
    """

    __slots__ = ("ext_tags", "start_id", "trans", "trans_list",
                 "word_table", "shape_table", "n_tags", "exact_table")

    def __init__(self, tagger: "HmmPosTagger") -> None:
        ext = sorted([*tagger.tags, _START])
        self.ext_tags = ext
        self.n_tags = len(tagger.tags)
        index = {tag: i for i, tag in enumerate(ext)}
        self.start_id = index[_START]
        n_ext = len(ext)
        trans = np.full((n_ext, n_ext, n_ext), -np.inf)
        for i2, t2 in enumerate(ext):
            for i1, t1 in enumerate(ext):
                row = tagger._transition_row(t2, t1)
                for tag, value in row.items():
                    trans[i2, i1, index[tag]] = value
        self.trans = trans
        self.trans_list = trans.tolist()
        self.word_table: dict[str, tuple] = {}
        for word, tags in tagger._word_tags.items():
            ids = np.array([index[t] for t in tags], dtype=np.intp)
            emis = np.array([tagger._log_emission(t, word) for t in tags])
            self.word_table[word] = self._entry(ids, emis)
        real_ids = np.array([index[t] for t in tagger.tags], dtype=np.intp)
        self.shape_table: dict[str, tuple] = {}
        vocab_shapes = len(_UNK_SHAPES)
        for shape in _UNK_SHAPES:
            emis = np.array([
                math.log((tagger._shape_emissions[tag][shape]
                          + tagger.emission_k)
                         / (tagger._shape_totals.get(tag, 0)
                            + tagger.emission_k * vocab_shapes))
                for tag in tagger.tags])
            self.shape_table[shape] = self._entry(real_ids, emis)
        #: Surface-form memo (exact case) in front of word/shape
        #: lookup; grows with distinct forms seen, which natural text
        #: bounds tightly (Heaps' law) relative to tokens decoded.
        self.exact_table: dict[str, tuple] = {}

    @staticmethod
    def _entry(ids: np.ndarray, emis: np.ndarray) -> tuple:
        """One lookup-table entry, with everything the decode loop
        would otherwise rebuild per step precomputed: plain-list ids
        and emissions, (id, emission) pairs, and a shared zero
        backpointer row."""
        ids_list = ids.tolist()
        emis_list = emis.tolist()
        return (ids, emis, ids_list, emis_list,
                list(zip(ids_list, emis_list)), [0] * len(ids_list))

    def decode(self, words: Sequence[str]) -> list[str]:
        """Viterbi over the dense structures; identical output to the
        reference kernel."""
        trans_list = self.trans_list
        word_table = self.word_table
        shape_table = self.shape_table
        exact_table = self.exact_table
        start = self.start_id
        pp_ids: list[int] = [start]
        p_ids: list[int] = [start]
        # Scores of states (t_prev2, t_prev1): list-of-lists in the
        # scalar kernel, ndarray in the vector kernel.
        scores: list | np.ndarray = [[0.0]]
        steps: list[tuple[list[int], list[int], object]] = []
        arg0 = _ARG0
        i = 0
        n = len(words)
        while i < n:
            if len(pp_ids) == 1 and len(p_ids) == 1:
                # Forced-run lane: while a single state chains into
                # single-candidate words the path is forced — no max,
                # no trellis matrices, just a scalar accumulator.
                # Most tokens land here (about 80 % of words have a
                # single observed tag), so this tight loop carries the
                # bulk of the throughput win.
                score = scores[0][0]
                if type(score) is not float:
                    score = float(score)
                pp0 = pp_ids[0]
                p0 = p_ids[0]
                run_start = i
                while i < n:
                    word = words[i]
                    entry = exact_table.get(word)
                    if entry is None:
                        entry = word_table.get(word.lower())
                        if entry is None:
                            entry = shape_table[_shape(word)]
                        exact_table[word] = entry
                    cand = entry[2]
                    if len(cand) != 1:
                        break
                    c0 = cand[0]
                    score = (score + trans_list[pp0][p0][c0]) + entry[3][0]
                    steps.append((p_ids, cand, arg0))
                    p_ids = cand
                    pp0, p0 = p0, c0
                    i += 1
                if i > run_start:
                    scores = [[score]]
                    pp_ids = [pp0]
                if i >= n:
                    break
                # ``entry`` holds the multi-candidate word that ended
                # the run; fall through to the trellis step for it.
            else:
                word = words[i]
                entry = exact_table.get(word)
                if entry is None:
                    entry = word_table.get(word.lower())
                    if entry is None:
                        entry = shape_table[_shape(word)]
                    exact_table[word] = entry
            cand_np, emis_np, cand, emis, pairs, zero_row = entry
            if not cand:
                raise TaggerCrash("no viable tag path (empty model?)")
            n_pp = len(pp_ids)
            cells = n_pp * len(p_ids) * len(cand)
            if cells <= _SMALL_STEP_CELLS:
                rows = scores if isinstance(scores, list) \
                    else scores.tolist()
                new_scores: list | np.ndarray = []
                args: object = []
                if n_pp == 1:
                    # One live prev2 state: the max degenerates, every
                    # backpointer is 0, and one transition row serves
                    # each prev1 tag.
                    trans_w0 = trans_list[pp_ids[0]]
                    for x, prior in zip(p_ids, rows[0]):
                        trans_x = trans_w0[x]
                        new_scores.append([(prior + trans_x[b]) + e
                                           for b, e in pairs])
                        args.append(zero_row)
                else:
                    trans_w = [trans_list[w] for w in pp_ids]
                    for x_idx, x in enumerate(p_ids):
                        trans_x = [rows_w[x] for rows_w in trans_w]
                        prior = [row[x_idx] for row in rows]
                        out_row = []
                        arg_row = []
                        for b_idx, b in enumerate(cand):
                            best = prior[0] + trans_x[0][b]
                            best_w = 0
                            for w_idx in range(1, n_pp):
                                score = prior[w_idx] + trans_x[w_idx][b]
                                if score > best:
                                    best = score
                                    best_w = w_idx
                            out_row.append(best + emis[b_idx])
                            arg_row.append(best_w)
                        new_scores.append(out_row)
                        args.append(arg_row)
            else:
                prior = scores if isinstance(scores, np.ndarray) \
                    else np.asarray(scores)
                expanded = prior[:, :, None] + self.trans[np.ix_(
                    np.asarray(pp_ids, dtype=np.intp),
                    np.asarray(p_ids, dtype=np.intp), cand_np)]
                args = expanded.argmax(axis=0)
                new_scores = expanded.max(axis=0) + emis_np
            steps.append((p_ids, cand, args))
            pp_ids, p_ids = p_ids, cand
            scores = new_scores
            i += 1
        return self._backtrace(scores, steps)

    def _backtrace(self, scores, steps) -> list[str]:
        # Final state: first maximum in (t_prev2, t_prev1) id order —
        # the order the reference's sorted-dict max() resolves ties in.
        if isinstance(scores, np.ndarray):
            flat_best = int(scores.argmax())
            x_idx, y_idx = divmod(flat_best, scores.shape[1])
        else:
            best = -math.inf
            x_idx = y_idx = 0
            for row_idx, row in enumerate(scores):
                for col_idx, value in enumerate(row):
                    if value > best:
                        best = value
                        x_idx, y_idx = row_idx, col_idx
        names = self.ext_tags
        n = len(steps)
        tags = [""] * n
        tags[n - 1] = names[steps[n - 1][1][y_idx]]
        for i in range(n - 1, 0, -1):
            p_ids, _cand, args = steps[i]
            tags[i - 1] = names[p_ids[x_idx]]
            x_idx, y_idx = int(args[x_idx][y_idx]), x_idx
        return tags


class HmmPosTagger:
    """Trainable trigram HMM tagger.

    Train with :meth:`train` on gold (word, tag) sequences, then tag
    token lists with :meth:`tag`.  Call :meth:`freeze` after training
    to compile the fast array kernel.
    """

    def __init__(self, emission_k: float = 0.05,
                 interpolation: tuple[float, float, float] = (0.6, 0.3, 0.1),
                 crash_token_limit: int | None = 600) -> None:
        self.emission_k = emission_k
        self.interpolation = interpolation
        self.crash_token_limit = crash_token_limit
        self.tags: list[str] = []
        self._trigram: dict[tuple[str, str], Counter] = defaultdict(Counter)
        self._bigram: dict[str, Counter] = defaultdict(Counter)
        self._unigram: Counter = Counter()
        self._emissions: dict[str, Counter] = defaultdict(Counter)
        self._shape_emissions: dict[str, Counter] = defaultdict(Counter)
        self._vocabulary: set[str] = set()
        self._word_tags: dict[str, tuple[str, ...]] = {}
        self._all_tags: tuple[str, ...] = ()
        self._transition_rows: dict[tuple[str, str], dict[str, float]] = {}
        self._emission_totals: dict[str, int] = {}
        self._shape_totals: dict[str, int] = {}
        self._trigram_totals: dict[tuple[str, str], int] = {}
        self._bigram_totals: dict[str, int] = {}
        self._unigram_total = 0
        self._trained = False
        self._frozen: _FrozenHmm | None = None
        self._fingerprint: str | None = None

    # -- training -----------------------------------------------------------

    def train(self, tagged_sentences: Iterable[Sequence[tuple[str, str]]]) -> None:
        """Accumulate counts from (word, tag) sequences (incremental)."""
        for sentence in tagged_sentences:
            t2, t1 = _START, _START
            for word, tag in sentence:
                self._trigram[(t2, t1)][tag] += 1
                self._bigram[t1][tag] += 1
                self._unigram[tag] += 1
                self._emissions[tag][word.lower()] += 1
                self._shape_emissions[tag][_shape(word)] += 1
                self._vocabulary.add(word.lower())
                t2, t1 = t1, tag
        self.tags = sorted(self._unigram)
        self._finalize()
        self._trained = True

    def _finalize(self) -> None:
        """Precompute totals and candidate-tag lists (called after
        every training round; training stays incremental).  Any new
        counts invalidate the frozen kernel and the model fingerprint."""
        self._transition_rows.clear()
        self._frozen = None
        self._fingerprint = None
        self._emission_totals = {tag: sum(c.values())
                                 for tag, c in self._emissions.items()}
        self._shape_totals = {tag: sum(c.values())
                              for tag, c in self._shape_emissions.items()}
        # Distribution totals, computed once instead of on every
        # _transition_row cache miss.
        self._trigram_totals = {context: sum(c.values())
                                for context, c in self._trigram.items()}
        self._bigram_totals = {tag: sum(c.values())
                               for tag, c in self._bigram.items()}
        self._unigram_total = sum(self._unigram.values())
        word_tags: dict[str, set[str]] = defaultdict(set)
        for tag, counts in self._emissions.items():
            for word in counts:
                word_tags[word].add(tag)
        self._word_tags = {w: tuple(sorted(tags))
                           for w, tags in word_tags.items()}
        self._all_tags = tuple(self.tags)

    # -- freezing ------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen is not None

    def freeze(self) -> "HmmPosTagger":
        """Compile the trained model into the dense array kernel.

        Further :meth:`train` calls drop the compiled form — re-freeze
        after incremental training.
        """
        if not self._trained:
            raise RuntimeError("tagger has not been trained")
        self._frozen = _FrozenHmm(self)
        return self

    def fingerprint(self) -> str:
        """Content hash of the trained model (parameters + counts).

        Any retraining changes the fingerprint, so a result keyed by
        it can never outlive the model that produced it.
        """
        if not self._trained:
            raise RuntimeError("tagger has not been trained")
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(repr((self.emission_k, self.interpolation,
                                self.crash_token_limit)).encode())
            for name, table in (("tri", self._trigram),
                                ("bi", self._bigram),
                                ("emit", self._emissions),
                                ("shape", self._shape_emissions)):
                for key in sorted(table):
                    counter = table[key]
                    hasher.update(
                        f"{name}:{key}:{sorted(counter.items())}".encode())
            hasher.update(f"uni:{sorted(self._unigram.items())}".encode())
            self._fingerprint = f"hmm:{hasher.hexdigest()}"
        return self._fingerprint

    # -- probabilities -----------------------------------------------------

    def _transition_row(self, t2: str, t1: str) -> dict[str, float]:
        """Cached log P(tag | t2, t1) for all tags, interpolated."""
        row = self._transition_rows.get((t2, t1))
        if row is not None:
            return row
        l3, l2, l1 = self.interpolation
        tri = self._trigram.get((t2, t1))
        tri_total = self._trigram_totals.get((t2, t1), 0)
        bi = self._bigram.get(t1)
        bi_total = self._bigram_totals.get(t1, 0)
        uni_total = self._unigram_total
        row = {}
        for tag in self.tags:
            p = 0.0
            if tri_total:
                p += l3 * tri[tag] / tri_total
            if bi_total:
                p += l2 * bi[tag] / bi_total
            if uni_total:
                p += l1 * self._unigram[tag] / uni_total
            row[tag] = math.log(p) if p > 0 else -50.0
        self._transition_rows[(t2, t1)] = row
        return row

    def _log_emission(self, tag: str, word: str) -> float:
        lowered = word.lower()
        vocab_size = max(1, len(self._vocabulary))
        if lowered in self._vocabulary:
            counts = self._emissions[tag]
            total = self._emission_totals.get(tag, 0)
            p = (counts[lowered] + self.emission_k) / (
                total + self.emission_k * vocab_size)
            return math.log(p)
        # Unknown word: back off to shape/suffix emission.
        shape_counts = self._shape_emissions[tag]
        shape_total = self._shape_totals.get(tag, 0)
        p = (shape_counts[_shape(word)] + self.emission_k) / (
            shape_total + self.emission_k * len(_UNK_SHAPES))
        return math.log(p)

    def _candidate_tags(self, word: str) -> tuple[str, ...]:
        """Tags worth considering for a word: observed tags for known
        words, the full tagset for unknown ones.  Always an immutable
        tuple — never a reference to mutable model state."""
        known = self._word_tags.get(word.lower())
        return known if known is not None else self._all_tags

    # -- decoding ------------------------------------------------------------

    def tag(self, words: Sequence[str]) -> list[str]:
        """Decode the most likely tag sequence for ``words``.

        Dispatches to the frozen array kernel when available (see
        :meth:`freeze`), otherwise to the reference dict kernel.
        """
        self._check_input(words)
        if not words:
            return []
        if self._frozen is not None:
            return self._frozen.decode(words)
        return self._tag_dict(words)

    def tag_batch(self, batch: Sequence[Sequence[str]],
                  ) -> list[list[str]]:
        """Decode many sentences at once, bit-identical to
        ``[tag(s) for s in batch]``.

        The entry point the one-pass engine feeds.  Sentences decode
        through the same kernel as :meth:`tag`; any over-limit
        sentence raises :class:`TaggerCrash` before any work is done,
        like mapping :meth:`tag` would on its first offender.
        """
        for words in batch:
            self._check_input(words)
        decode = (self._frozen.decode if self._frozen is not None
                  else self._tag_dict)
        return [decode(words) if words else [] for words in batch]

    def tag_reference(self, words: Sequence[str]) -> list[str]:
        """The original dict-of-tuples Viterbi, bypassing the frozen
        kernel (equivalence tests decode against this)."""
        self._check_input(words)
        if not words:
            return []
        return self._tag_dict(words)

    def _check_input(self, words: Sequence[str]) -> None:
        if not self._trained:
            raise RuntimeError("tagger has not been trained")
        if (self.crash_token_limit is not None
                and len(words) > self.crash_token_limit):
            raise TaggerCrash(
                f"sentence of {len(words)} tokens exceeds the tagger's "
                f"operational limit of {self.crash_token_limit}")

    def _tag_dict(self, words: Sequence[str]) -> list[str]:
        # State = (t_prev2, t_prev1); start state collapses to (_S, _S).
        # States are visited in sorted order so tie-breaking is
        # canonical (first maximum in lexicographic state order) —
        # the property the frozen kernel's argmax reproduces.
        scores: dict[tuple[str, str], float] = {(_START, _START): 0.0}
        backpointers: list[dict[tuple[str, str], tuple[str, str]]] = []
        for word in words:
            candidates = self._candidate_tags(word)
            emissions = {tag: self._log_emission(tag, word)
                         for tag in candidates}
            next_scores: dict[tuple[str, str], float] = {}
            pointers: dict[tuple[str, str], tuple[str, str]] = {}
            for (t2, t1), score in sorted(scores.items()):
                row = self._transition_row(t2, t1)
                for tag in candidates:
                    candidate = score + row[tag] + emissions[tag]
                    state = (t1, tag)
                    if candidate > next_scores.get(state, -math.inf):
                        next_scores[state] = candidate
                        pointers[state] = (t2, t1)
            if not next_scores:
                raise TaggerCrash("no viable tag path (empty model?)")
            scores = next_scores
            backpointers.append(pointers)
        best_state = max(sorted(scores), key=scores.get)
        sequence = [best_state[1]]
        state = best_state
        for pointers in reversed(backpointers[1:]):
            state = pointers[state]
            sequence.append(state[1])
        sequence.reverse()
        return sequence

    def tag_tokens(self, tokens: Sequence) -> list:
        """Tag :class:`~repro.annotations.Token` objects, returning
        copies with ``pos`` filled."""
        tags = self.tag([t.text for t in tokens])
        return [tok.with_pos(tag) for tok, tag in zip(tokens, tags)]

    def accuracy(self, tagged_sentences: Iterable[Sequence[tuple[str, str]]],
                 ) -> float:
        """Token-level tagging accuracy against gold sequences."""
        correct = total = 0
        for sentence in tagged_sentences:
            words = [w for w, _t in sentence]
            gold = [t for _w, t in sentence]
            try:
                predicted = self.tag(words)
            except TaggerCrash:
                total += len(gold)
                continue
            correct += sum(1 for p, g in zip(predicted, gold) if p == g)
            total += len(gold)
        return correct / total if total else 0.0
