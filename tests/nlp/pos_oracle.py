"""Dict-of-tuples Viterbi over a trained HMM — the test-only POS oracle.

This is the decoder ``HmmPosTagger`` ran before it compiled its model
into dense arrays: states are ``(t_prev2, t_prev1)`` tag pairs held in
dicts, visited in sorted order so ties resolve to the first maximum in
lexicographic state order.  The compiled kernel in
:mod:`repro.nlp.pos_hmm` numbers tags in sorted order to reproduce
exactly that tie-breaking; the equivalence suites
(``tests/nlp/test_pos_frozen.py``, ``test_pos_batch.py``) and the POS
rows of ``benchmarks/bench_fig3_tool_runtimes.py`` decode against it.

It reads the tagger's trained counts through the same probability
functions the compiler reads (``_transition_row``, ``_log_emission``)
and shares no decoding code with it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.nlp.pos_hmm import _START, HmmPosTagger, TaggerCrash


def candidate_tags(tagger: HmmPosTagger, word: str) -> tuple[str, ...]:
    """Tags worth considering for a word: observed tags for known
    words, the full tagset for unknown ones.  Always an immutable
    tuple — never a reference to mutable model state."""
    known = tagger._word_tags.get(word.lower())
    return known if known is not None else tuple(tagger.tags)


def tag_reference(tagger: HmmPosTagger, words: Sequence[str]) -> list[str]:
    """The most likely tag sequence for ``words``, with the tagger's
    input checks (untrained model, crash limit) applied first."""
    tagger._check_input(words)
    if not words:
        return []
    scores: dict[tuple[str, str], float] = {(_START, _START): 0.0}
    backpointers: list[dict[tuple[str, str], tuple[str, str]]] = []
    for word in words:
        candidates = candidate_tags(tagger, word)
        emissions = {tag: tagger._log_emission(tag, word)
                     for tag in candidates}
        next_scores: dict[tuple[str, str], float] = {}
        pointers: dict[tuple[str, str], tuple[str, str]] = {}
        for (t2, t1), score in sorted(scores.items()):
            row = tagger._transition_row(t2, t1)
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
