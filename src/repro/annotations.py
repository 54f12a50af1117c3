"""Shared annotation data model.

Every stage of the pipeline (sentence detection, tokenization, POS
tagging, linguistic analysis, NER) communicates through these types.
Offsets are always character offsets into the *document* text, so
annotations produced by different tools compose without re-alignment —
this mirrors the Sopremo annotation scheme the paper's IE package uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple


@dataclass(frozen=True)
class Span:
    """Half-open character interval ``[start, end)`` in document text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


class Token(NamedTuple):
    """A token with its document offsets and (optional) POS tag.

    An immutable named tuple: one is built per token of every
    annotated sentence, and a tuple is built at C speed
    (``tuple.__new__`` over ready columns, see
    :func:`repro.nlp.tokenize.tokenize_with_surfaces`).
    """

    text: str
    start: int
    end: int
    pos: str = ""

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    def with_pos(self, pos: str) -> "Token":
        return Token(self.text, self.start, self.end, pos)


@dataclass(frozen=True)
class EntityMention:
    """A recognized entity mention.

    ``entity_type`` is one of ``gene``, ``drug``, ``disease``;
    ``method`` records which recognizer produced it (``dictionary`` or
    ``ml``); ``term_id`` links dictionary hits back to their entry.
    """

    text: str
    start: int
    end: int
    entity_type: str
    method: str = ""
    term_id: str = ""
    score: float = 1.0

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


@dataclass(frozen=True)
class LinguisticMention:
    """A linguistic phenomenon found by regex analysis.

    ``category`` is ``negation``, ``pronoun``, or ``parenthesis``;
    ``subtype`` refines it (e.g. the pronoun class).
    """

    text: str
    start: int
    end: int
    category: str
    subtype: str = ""


@dataclass
class Sentence:
    """A sentence span with its tokens and sentence-local annotations.

    ``tokens`` distinguishes *never tokenized* (``None``) from
    *tokenized, empty* (``[]``): consumers that lazily tokenize
    (:mod:`repro.ner.taggers`) only recompute in the ``None`` state,
    so a legitimately empty token list is never re-derived.
    """

    start: int
    end: int
    text: str
    tokens: list[Token] | None = None
    entities: list[EntityMention] = field(default_factory=list)

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class Document:
    """A document flowing through the pipeline.

    ``text`` is the (net) text being analyzed; ``raw`` optionally keeps
    the original payload (e.g. HTML) before cleansing; ``meta`` carries
    provenance (URL, corpus name, content type, ...).  Annotation
    layers are filled by pipeline operators.

    ``sentences`` uses ``None`` for *never split* and ``[]`` for
    *split, no sentences found* (e.g. empty net text), so lazy
    consumers can reuse a computed-but-empty result instead of
    re-running the splitter.
    """

    doc_id: str
    text: str
    raw: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    sentences: list[Sentence] | None = None
    entities: list[EntityMention] = field(default_factory=list)
    linguistics: list[LinguisticMention] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.text)

    def iter_tokens(self) -> Iterator[Token]:
        for sentence in self.sentences or ():
            yield from sentence.tokens or ()

    def entities_of(self, entity_type: str,
                    method: str | None = None) -> list[EntityMention]:
        return [e for e in self.entities
                if e.entity_type == entity_type
                and (method is None or e.method == method)]

    def copy_shallow(self) -> "Document":
        return Document(
            doc_id=self.doc_id, text=self.text, raw=self.raw,
            meta=dict(self.meta),
            sentences=(None if self.sentences is None
                       else list(self.sentences)),
            entities=list(self.entities),
            linguistics=list(self.linguistics),
        )
