"""Shared text-annotation arena.

The reference annotation chain re-derives the same intermediate data
over and over: the token surface list (``[t.text for t in tokens]``)
is rebuilt by the POS tagger, by each of the three CRF taggers, and by
anything else that consumes words; documents arriving without sentence
boundaries are re-split per consumer.  :class:`AnnotatedText`
materializes that state once — sentences split once, each sentence
tokenized once with its flat surface list — and every downstream
kernel (HMM decode, CRF features, dictionary alignment) reads the same
arrays.

The arena mutates the document the same way the elementary operators
would (``document.sentences`` assigned, ``sentence.tokens`` assigned),
so documents leaving a one-pass stage are byte-identical to documents
leaving the reference operator chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.annotations import Document, Sentence
from repro.nlp.sentence import SentenceSplitter, split_sentences
from repro.nlp.tokenize import tokenize_with_surfaces

#: ``split`` modes: re-split unconditionally (the ``annotate_sentences``
#: operator's semantics), only when never computed (whole-document
#: analysis — ``None`` means never computed, ``[]`` means split came
#: back empty and is trusted), or use whatever is present.
SPLIT_MODES = ("always", "missing", "never")


@dataclass
class SentenceSlot:
    """One sentence plus its materialized word list.

    ``words`` is position-aligned with ``sentence.tokens`` and owned by
    the arena: id-keyed feature memos stay valid exactly as long as the
    arena is alive.
    """

    sentence: Sentence
    words: list[str]


@dataclass
class AnnotatedText:
    """Per-document shared analysis state for one annotation pass."""

    document: Document
    slots: list[SentenceSlot]

    @classmethod
    def build(cls, document: Document,
              splitter: SentenceSplitter | None = None,
              split: str = "never",
              retokenize: bool = False) -> "AnnotatedText":
        """Materialize the arena, mutating the document like the
        elementary operators would.

        ``split="always"`` re-splits unconditionally (the
        ``annotate_sentences`` operator); ``split="missing"`` splits
        only when ``document.sentences`` is ``None`` (never computed).
        ``retokenize=True`` re-tokenizes every sentence (the
        ``annotate_tokens`` operator); otherwise existing tokens are
        adopted and only ``None`` (never tokenized) sentences are
        tokenized.  A fresh split always tokenizes its new sentences.
        """
        if split not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {split!r}")
        fresh = (split == "always"
                 or (split == "missing" and document.sentences is None))
        if fresh:
            if splitter is not None:
                document.sentences = splitter.split(document.text)
            else:
                document.sentences = split_sentences(document.text)
        slots: list[SentenceSlot] = []
        for sentence in document.sentences or ():
            if retokenize or fresh or sentence.tokens is None:
                tokens, words = tokenize_with_surfaces(
                    sentence.text, base_offset=sentence.start)
                sentence.tokens = tokens
            else:
                words = [t.text for t in sentence.tokens]
            slots.append(SentenceSlot(sentence=sentence, words=words))
        return cls(document=document, slots=slots)

    def pairs(self) -> list[tuple[list, list[str]]]:
        """``(tokens, words)`` per non-empty sentence — the shape
        :meth:`~repro.ner.taggers.MlEntityTagger.annotate_many`
        consumes.  Read after any POS pass: POS tagging replaces
        ``sentence.tokens`` with tagged copies, and the pairs must
        reference the current token objects."""
        return [(slot.sentence.tokens, slot.words)
                for slot in self.slots if slot.words]
