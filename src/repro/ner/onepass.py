"""One-pass annotation engine.

The reference entity-annotation chain scans each document many times:
the three dictionary taggers each scan the text and keep their own
type's mentions, the POS tagger and each CRF tagger rebuild the word
list per sentence.  :class:`OnePassAnnotator` runs the same logical
steps over shared state instead:

* sentences are split and tokenized once into an
  :class:`~repro.nlp.arena.AnnotatedText` arena;
* all dictionary types are matched in a single pass over the batch's
  texts by the pipeline's one
  :class:`~repro.ner.dictionary.MultiTypeDictionary` automaton, the one
  the dictionary taggers hold (overlap resolution stays per type);
* the POS decode is one cross-sentence ``tag_batch`` call with the
  reference path's per-sentence crash accounting;
* CRF taggers consume the arena's word lists directly and score them
  through their models' word-type tables, so no feature strings are
  built at decode time.

Outputs are byte-identical to running the elementary steps in order:
the same mentions in the same ``document.entities`` order and the
same ``sentence.tokens`` replacements.  The dataflow optimizer
substitutes this engine for the
``annotate_sentences → annotate_tokens → annotate_pos → taggers``
sub-chain (:func:`repro.dataflow.optimizer.fuse_annotation_stage`);
the batch form backs :meth:`TextAnalyticsPipeline.analyze_batch` and
the serve session's ``extract`` / ``annotate`` kernels, and the
streaming form
(:meth:`OnePassAnnotator.annotate_stream`, cut by
:func:`volume_chunks`) backs every whole-document caller — the fused
flow operator, store ingest, ``repro facts`` and corpus analysis.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.annotations import Document, Token
from repro.ner.dictionary import MultiTypeDictionary, shared_dictionary
from repro.nlp.arena import AnnotatedText, SentenceSlot
from repro.nlp.pos_hmm import TaggerCrash
from repro.nlp.sentence import SentenceSplitter

#: Text volume at which a chunk of whole documents closes.  Batch
#: kernels are saturated well below this (a few hundred sentences),
#: while the per-batch arenas and lattices grow with the
#: characters in flight: 16-32 whole pages a batch measured *slower*
#: and +27% peak RSS against 1-4 pages (docs/performance.md).
CHUNK_CHARS = 32_768
#: Backstop for streams of tiny or empty documents, which never reach
#: the volume budget.
CHUNK_DOCS = 64

#: The POS pass builds its tagged tokens from columns at C speed
#: (``Token`` is a named tuple).
_new_token = tuple.__new__
_start, _end = itemgetter(1), itemgetter(2)


def volume_chunks(documents: Iterable[Document],
                  ) -> Iterator[list[Document]]:
    """Cut a document stream into contiguous, order-preserving chunks
    of at most ``CHUNK_CHARS`` characters of text (and ``CHUNK_DOCS``
    documents); a single document above the budget is its own chunk.

    Consumes ``documents`` lazily — one chunk is in flight at a time —
    and the boundaries depend only on the text lengths seen so far, so
    streaming and offline cuts of the same sequence agree.
    """
    chunk: list[Document] = []
    chars = 0
    for document in documents:
        size = len(document.text)
        if chunk and chars + size > CHUNK_CHARS:
            yield chunk
            chunk, chars = [], 0
        chunk.append(document)
        chars += size
        if chars >= CHUNK_CHARS or len(chunk) >= CHUNK_DOCS:
            yield chunk
            chunk, chars = [], 0
    if chunk:
        yield chunk


class OnePassAnnotator:
    """Fused split/tokenize/POS/entity annotation over shared state.

    ``steps`` is the ordered tagger list — dictionary taggers
    (``method == "dictionary"``) and ML taggers (``method == "ml"``)
    interleaved exactly as the reference chain would run them; each
    document's ``entities`` list is extended in that order.  The
    dictionary steps must all hold one automaton (``ValueError``
    otherwise); building an engine builds nothing.
    """

    def __init__(self, steps: Sequence, *,
                 splitter: SentenceSplitter | None = None,
                 split: str = "never", retokenize: bool = False,
                 pos_tagger=None, skip_pos_crashes: bool = True) -> None:
        self.steps = list(steps)
        self.splitter = splitter
        self.split = split
        self.retokenize = retokenize
        self.pos_tagger = pos_tagger
        self.skip_pos_crashes = skip_pos_crashes
        self.merged: MultiTypeDictionary | None = shared_dictionary(
            step for step in self.steps if step.method == "dictionary")

    def startup_seconds(self) -> float:
        total = sum(step.startup_seconds() for step in self.steps)
        return total + (0.5 if self.pos_tagger is not None else 0.0)

    def annotate(self, document: Document) -> Document:
        """Fully annotate one document (the fused flow operator)."""
        self.annotate_batch([document])
        return document

    def annotate_batch(self, documents: Sequence[Document],
                       ) -> Sequence[Document]:
        """Annotate a batch; POS and CRF decodes span the whole batch.

        Per-document results are identical to :meth:`annotate` on each
        document in order — which in turn is identical to the
        elementary reference chain.
        """
        arenas = [AnnotatedText.build(document, splitter=self.splitter,
                                      split=self.split,
                                      retokenize=self.retokenize)
                  for document in documents]
        if self.pos_tagger is not None:
            self._pos_tag(arenas)
        # Pairs reference post-POS tokens.
        pairs_per_doc = [arena.pairs() for arena in arenas]
        scans: list[dict] | None = None
        for step in self.steps:
            if step.method == "dictionary":
                if scans is None:
                    scans = self.merged.scan(
                        [document.text for document in documents])
                for document, scan in zip(documents, scans):
                    document.entities.extend(scan[step.entity_type])
            else:
                step.annotate_many(documents, tokenized=pairs_per_doc)
        return documents

    def annotate_stream(self, documents: Iterable[Document],
                        ) -> Iterator[Document]:
        """Annotate a stream of whole documents, yielding them in
        input order: :meth:`annotate_batch` over each
        :func:`volume_chunks` chunk, so batch kernels engage while the
        state in flight stays bounded however long the stream is."""
        for chunk in volume_chunks(documents):
            yield from self.annotate_batch(chunk)

    def _pos_tag(self, arenas: list[AnnotatedText]) -> None:
        """Batched POS pass with the reference chain's crash behavior.

        Over-limit sentences are pre-filtered (counting into
        ``meta["pos_crashes"]``, as the per-sentence path's crash
        would); everything else decodes in one ``tag_batch`` call.  A
        batch-level crash (pathological model state) falls back to the
        per-sentence path so accounting stays identical.
        """
        tagger = self.pos_tagger
        if not self.skip_pos_crashes:
            # Reference semantics: raise on the first crashing sentence.
            for arena in arenas:
                for slot in arena.slots:
                    slot.sentence.tokens = tagger.tag_tokens(
                        slot.sentence.tokens)
            return
        limit = tagger.crash_token_limit
        jobs: list[tuple[Document, SentenceSlot]] = []
        for arena in arenas:
            document = arena.document
            for slot in arena.slots:
                if limit is not None and len(slot.words) > limit:
                    document.meta["pos_crashes"] = (
                        document.meta.get("pos_crashes", 0) + 1)
                else:
                    jobs.append((document, slot))
        if not jobs:
            return
        try:
            tag_lists = tagger.tag_batch(
                [slot.words for _document, slot in jobs])
        except TaggerCrash:
            for document, slot in jobs:
                try:
                    slot.sentence.tokens = tagger.tag_tokens(
                        slot.sentence.tokens)
                except TaggerCrash:
                    document.meta["pos_crashes"] = (
                        document.meta.get("pos_crashes", 0) + 1)
            return
        for (_document, slot), tags in zip(jobs, tag_lists):
            tokens = slot.sentence.tokens
            slot.sentence.tokens = list(map(
                _new_token, repeat(Token),
                zip(slot.words, map(_start, tokens), map(_end, tokens),
                    tags)))
