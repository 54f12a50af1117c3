"""Persistence: JSONL document store and fact-database export.

The point of the paper's pipeline is "structured fact databases" from
unstructured text.  This module round-trips annotated documents
through JSONL and exports the extracted facts (entity mentions, name
frequencies, relations) in machine-readable form.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from repro.annotations import (
    Document, EntityMention, LinguisticMention, Sentence, Token,
)
from repro.persist import read_jsonl, write_file, write_lines


def document_to_dict(document: Document, include_raw: bool = False) -> dict:
    """JSON-serializable form of a document and its annotations."""
    payload = {
        "doc_id": document.doc_id,
        "text": document.text,
        "meta": document.meta,
        "sentences": [{
            "start": s.start, "end": s.end, "text": s.text,
            "tokens": [[t.text, t.start, t.end, t.pos]
                       for t in s.tokens or ()],
        } for s in document.sentences or ()],
        "entities": [{
            "text": m.text, "start": m.start, "end": m.end,
            "entity_type": m.entity_type, "method": m.method,
            "term_id": m.term_id, "score": m.score,
        } for m in document.entities],
        "linguistics": [{
            "text": m.text, "start": m.start, "end": m.end,
            "category": m.category, "subtype": m.subtype,
        } for m in document.linguistics],
    }
    if include_raw:
        payload["raw"] = document.raw
    return payload


def document_from_dict(payload: dict) -> Document:
    """Inverse of :func:`document_to_dict`."""
    document = Document(
        doc_id=payload["doc_id"], text=payload["text"],
        raw=payload.get("raw", ""), meta=dict(payload.get("meta", {})))
    sentences: list[Sentence] = []
    for s in payload.get("sentences", []):
        sentence = Sentence(start=s["start"], end=s["end"], text=s["text"])
        sentence.tokens = [Token(text, start, end, pos)
                           for text, start, end, pos
                           in s.get("tokens", [])] or None
        sentences.append(sentence)
    # The serialized form does not distinguish "never split" from
    # "split, empty" — restore an empty list as the never-computed
    # state (re-splitting empty annotations is output-equivalent).
    document.sentences = sentences or None
    document.entities = [
        EntityMention(text=e["text"], start=e["start"], end=e["end"],
                      entity_type=e["entity_type"],
                      method=e.get("method", ""),
                      term_id=e.get("term_id", ""),
                      score=e.get("score", 1.0))
        for e in payload.get("entities", [])
    ]
    document.linguistics = [
        LinguisticMention(text=m["text"], start=m["start"], end=m["end"],
                          category=m["category"],
                          subtype=m.get("subtype", ""))
        for m in payload.get("linguistics", [])
    ]
    return document


def write_documents(path: str | Path, documents: Iterable[Document],
                    include_raw: bool = False) -> int:
    """Write documents as JSONL; returns the count written."""
    lines = [json.dumps(document_to_dict(document, include_raw=include_raw),
                        ensure_ascii=False)
             for document in documents]
    write_lines(path, lines)
    return len(lines)


def read_documents(path: str | Path) -> Iterator[Document]:
    """Stream documents back from a JSONL file."""
    return map(document_from_dict, read_jsonl(path))


class FactDatabase:
    """Accumulates extraction results and exports them.

    * ``entities.jsonl`` — one record per entity mention;
    * ``relations.jsonl`` — one record per extracted relation;
    * ``name_frequencies.csv`` — (entity_type, method, name, frequency).
    """

    def __init__(self) -> None:
        self.entity_records: list[dict] = []
        self.relation_records: list[dict] = []
        self._frequencies: Counter = Counter()

    def add_document(self, document: Document) -> None:
        for mention in document.entities:
            self.entity_records.append({
                "doc_id": document.doc_id, "text": mention.text,
                "start": mention.start, "end": mention.end,
                "entity_type": mention.entity_type,
                "method": mention.method, "term_id": mention.term_id,
            })
            self._frequencies[(mention.entity_type, mention.method,
                               mention.text.lower())] += 1

    def add_relations(self, records: Iterable[dict]) -> None:
        self.relation_records.extend(records)

    @property
    def n_distinct_names(self) -> int:
        return len({(t, name) for (t, _m, name) in self._frequencies})

    def name_frequency_rows(self) -> list[tuple[str, str, str, int]]:
        return sorted(
            ((etype, method, name, count)
             for (etype, method, name), count in self._frequencies.items()),
            key=lambda row: (-row[3], row[0], row[2]))

    def export(self, directory: str | Path) -> dict[str, Path]:
        """Write all artifacts; returns {artifact: path}."""
        directory = Path(directory)
        paths = {
            artifact: write_lines(
                directory / f"{artifact}.jsonl",
                (json.dumps(record, ensure_ascii=False)
                 for record in records))
            for artifact, records in (("entities", self.entity_records),
                                      ("relations", self.relation_records))}
        table = io.StringIO(newline="")
        writer = csv.writer(table)
        writer.writerow(["entity_type", "method", "name", "frequency"])
        writer.writerows(self.name_frequency_rows())
        paths["name_frequencies"] = write_file(
            directory / "name_frequencies.csv", table.getvalue())
        return paths
