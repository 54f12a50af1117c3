"""DC package: data-cleansing operators.

Cleansing and integration steps for dirty, heterogeneous inputs:
content deduplication, whitespace/control-character normalization,
annotation validation, and simple scrubbing — the paper's fourth
operator package.
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterator

from repro.annotations import Document
from repro.dataflow.operators import MapOperator, Operator, UdfOperator
from repro.dataflow.packages import register

_WHITESPACE_RE = re.compile(r"[ \t\f\v]+")
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+\.[\w.]+")
_PHONE_RE = re.compile(r"\+?\d[\d ()-]{7,}\d")


@register("dedup_content", "dc", "Drop documents with identical text")
def _dedup_content(**ann) -> Operator:
    def dedup(records: Iterator[Document]) -> Iterator[Document]:
        seen: set[str] = set()
        for document in records:
            digest = hashlib.sha1(document.text.encode()).hexdigest()
            if digest in seen:
                continue
            seen.add(digest)
            yield document
    return UdfOperator("dedup_content", dedup, selectivity=0.95, **ann)


@register("normalize_whitespace", "dc", "Collapse runs of whitespace")
def _normalize_whitespace(**ann) -> Operator:
    def normalize(document: Document) -> Document:
        document.text = _WHITESPACE_RE.sub(" ", document.text).strip()
        return document
    return MapOperator("normalize_whitespace", normalize,
                       reads=frozenset({"text"}),
                       writes=frozenset({"text"}), **ann)


@register("strip_control_chars", "dc", "Remove control characters")
def _strip_control_chars(**ann) -> Operator:
    def strip(document: Document) -> Document:
        document.text = _CONTROL_RE.sub("", document.text)
        return document
    return MapOperator("strip_control_chars", strip,
                       reads=frozenset({"text"}),
                       writes=frozenset({"text"}), **ann)


@register("drop_empty_documents", "dc", "Drop documents without text")
def _drop_empty_documents(min_chars: int = 1, **ann) -> Operator:
    from repro.dataflow.operators import FilterOperator

    ann.setdefault("selectivity", 0.98)
    return FilterOperator(
        "drop_empty_documents",
        lambda document: len(document.text.strip()) >= min_chars,
        reads=frozenset({"text"}), **ann)


@register("validate_offsets", "dc",
          "Drop annotations whose spans do not match the text")
def _validate_offsets(**ann) -> Operator:
    def validate(document: Document) -> Document:
        n = len(document.text)
        document.entities = [
            m for m in document.entities
            if 0 <= m.start < m.end <= n
            and document.text[m.start:m.end] == m.text
        ]
        document.linguistics = [
            m for m in document.linguistics
            if 0 <= m.start < m.end <= n
        ]
        return document
    return MapOperator("validate_offsets", validate,
                       reads=frozenset({"entities", "linguistics"}),
                       writes=frozenset({"entities", "linguistics"}), **ann)


@register("scrub_pii", "dc", "Mask e-mail addresses and phone numbers")
def _scrub_pii(**ann) -> Operator:
    def scrub(document: Document) -> Document:
        text = _EMAIL_RE.sub(lambda m: "<EMAIL>".ljust(len(m.group()), " "),
                             document.text)
        text = _PHONE_RE.sub(lambda m: "<PHONE>".ljust(len(m.group()), " "),
                             text)
        # Length-preserving masking keeps annotation offsets valid.
        document.text = text[:len(document.text)]
        return document
    return MapOperator("scrub_pii", scrub,
                       reads=frozenset({"text"}),
                       writes=frozenset({"text"}), **ann)


@register("fill_doc_ids", "dc", "Assign doc ids to documents lacking one")
def _fill_doc_ids(prefix: str = "doc", **ann) -> Operator:
    def fill(records: Iterator[Document]) -> Iterator[Document]:
        for index, document in enumerate(records):
            if not document.doc_id:
                document.doc_id = f"{prefix}-{index:08d}"
            yield document
    return UdfOperator("fill_doc_ids", fill, **ann)


@register("conflict_resolution", "dc",
          "Resolve overlapping entity annotations (longest wins)")
def _conflict_resolution(**ann) -> Operator:
    def resolve(document: Document) -> Document:
        ordered = sorted(document.entities,
                         key=lambda m: (-(m.end - m.start), m.start))
        chosen = []
        occupied: list[tuple[int, int, str]] = []
        for mention in ordered:
            clash = any(mention.start < e and s < mention.end
                        and t == mention.entity_type
                        for s, e, t in occupied)
            if clash:
                continue
            chosen.append(mention)
            occupied.append((mention.start, mention.end,
                             mention.entity_type))
        document.entities = sorted(chosen, key=lambda m: m.start)
        return document
    return MapOperator("conflict_resolution", resolve,
                       reads=frozenset({"entities"}),
                       writes=frozenset({"entities"}), **ann)


@register("dedup_near_duplicates", "dc",
          "Drop near-duplicate documents (MinHash/LSH)")
def _dedup_near_duplicates(threshold: float = 0.8, **ann) -> Operator:
    from repro.html.neardup import NearDuplicateFilter

    def dedup(records: Iterator[Document]) -> Iterator[Document]:
        near_filter = NearDuplicateFilter(threshold=threshold)
        for document in records:
            if not near_filter.is_duplicate(document.text):
                yield document
    return UdfOperator("dedup_near_duplicates", dedup,
                       selectivity=0.9, **ann)


@register("truncate_documents", "dc",
          "Hard-cap text length (the paper's OOM work-around)")
def _truncate_documents(max_chars: int = 100_000, **ann) -> Operator:
    def truncate(document: Document) -> Document:
        if len(document.text) > max_chars:
            document.text = document.text[:max_chars]
            document.meta["truncated"] = True
        return document
    return MapOperator("truncate_documents", truncate,
                       reads=frozenset({"text"}),
                       writes=frozenset({"text", "truncated"}), **ann)
