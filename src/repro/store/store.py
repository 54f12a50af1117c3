"""Persistent entity/fact store with provenance and normalization.

The extraction pipeline's durable output layer: relation output from
:mod:`repro.ner.relations` is ingested into subject–predicate–object
*fact* records, entity surface forms are merged onto canonical
vocabulary identities (union-find over alias links), and every fact
carries its full provenance chain — URL, document, sentence index,
character offsets, tagger method, confidence, crawl round — following
the "detail over compactness" principle: separate fields, nothing
folded into display strings, corroboration across sources kept as an
explicit signal.

Determinism is structural, not procedural.  The store keeps raw
observations as *sets* of records (mentions, assertions, alias links),
so ingesting the same document twice is a no-op and ingest order can
never matter.  Everything aggregated — canonical ids, alias groups,
facts, corroboration counts — is computed from those sets at snapshot
time with order-free rules (connected components + minimum over the
group), which is what makes store contents byte-identical across any
permutation of input documents, any worker or shard count, and
kill+resume.

``store.json`` is a durable :mod:`repro.persist` format ("On-disk
formats" in ``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.annotations import Document
from repro.persist import FileFormat, write_lines

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.corpora.vocabulary import BiomedicalVocabulary
    from repro.ner.relations import EntityRelation
    from repro.obs.metrics import MetricsRegistry

#: Version 1: ``mentions`` / ``assertions`` / ``links`` sections, each
#: a canonically sorted list.  Payloads with a *newer* version are
#: rejected with :class:`StoreVersionError` — refusing to downgrade is
#: a deliberate decision (a newer format may carry state this build
#: would silently drop), not a parse failure.
FORMAT_VERSION = 1

#: File name inside a ``--store DIR`` directory.
STORE_FILENAME = "store.json"

#: Predicate used when no connecting verb links the pair.
DEFAULT_PREDICATE = "associated_with"


class StoreError(ValueError):
    """An entity-store file is missing, truncated, or malformed."""


class StoreNotFoundError(StoreError):
    """No store exists at the given path."""


class StoreVersionError(StoreError):
    """The store was written by a newer build; refusing to downgrade."""


#: Sorted content + sorted keys: two stores with equal observation
#: sets write byte-identical files.
_STORE = FileFormat("entity store", FORMAT_VERSION, kind="entity-store",
                    sections=("mentions", "assertions", "links"),
                    sort_keys=True, error=StoreError,
                    not_found=StoreNotFoundError,
                    too_new=StoreVersionError,
                    hint="; build one with --store")


def alias_key(surface: str) -> str:
    """Canonical alias form: lowercase, dashes to spaces, collapsed
    whitespace — the same folding :class:`~repro.ner.normalize.
    EntityNormalizer` applies, so a surface and its resolved entry
    always land in one group."""
    return " ".join(surface.lower().replace("-", " ").split())


@dataclass(frozen=True, order=True)
class Mention:
    """One observed entity mention with full provenance."""

    doc_id: str
    url: str
    round: int
    entity_type: str
    surface: str
    start: int
    end: int
    method: str
    term_id: str

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, order=True)
class Assertion:
    """One observed subject–predicate–object assertion.

    This is the raw, per-occurrence form — one sentence in one
    document asserting a relation between two surface forms.  Facts
    aggregate assertions across documents after normalization.
    """

    doc_id: str
    url: str
    round: int
    sentence: int
    subject_type: str
    subject: str
    subject_start: int
    subject_end: int
    subject_method: str
    subject_term_id: str
    object_type: str
    object: str
    object_start: int
    object_end: int
    object_method: str
    object_term_id: str
    verb: str
    negated: bool
    confidence: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def predicate(self) -> str:
        return self.verb or DEFAULT_PREDICATE


@dataclass(frozen=True)
class StoreSnapshot:
    """Canonical aggregated view: entities, facts, merge statistics.

    A pure function of the store's observation sets — identical for
    any ingest order, worker count, or shard count.
    """

    entities: tuple[dict, ...]
    facts: tuple[dict, ...]
    n_mentions: int
    n_assertions: int
    n_links: int
    n_alias_merges: int

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_facts(self) -> int:
        return len(self.facts)

    @property
    def n_corroborated(self) -> int:
        return sum(1 for f in self.facts if f["corroboration"] >= 2)


class _UnionFind:
    """Minimal union-find; component membership is independent of the
    order unions are applied, which the store's determinism rests on."""

    def __init__(self) -> None:
        self._parent: dict = {}

    def add(self, node) -> None:
        self._parent.setdefault(node, node)

    def find(self, node):
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(self, a, b) -> None:
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_a] = root_b

    def groups(self) -> dict:
        """root -> sorted list of member nodes."""
        grouped: dict = {}
        for node in self._parent:
            grouped.setdefault(self.find(node), []).append(node)
        return {root: sorted(members) for root, members in grouped.items()}


class EntityStore:
    """The persistent fact/entity store.

    ``vocabulary`` (optional) attaches an
    :class:`~repro.ner.normalize.EntityNormalizer` so surface forms
    without a ``term_id`` are resolved against the dictionary at
    *ingest* time; the resolved links are part of the persisted state,
    so a store loaded later — possibly without the vocabulary — still
    aggregates identically.
    """

    def __init__(self, vocabulary: "BiomedicalVocabulary | None" = None,
                 ) -> None:
        self._mentions: set[Mention] = set()
        self._assertions: set[Assertion] = set()
        #: (entity_type, alias_key, term_id) resolution edges.
        self._links: set[tuple[str, str, str]] = set()
        self._normalizer = None
        if vocabulary is not None:
            from repro.ner.normalize import EntityNormalizer

            self._normalizer = EntityNormalizer(vocabulary)
        self._snapshot: StoreSnapshot | None = None

    # -- ingest ---------------------------------------------------------------

    def ingest_document(self, document: Document,
                        relations: "Iterable[EntityRelation] | None" = None,
                        round_: int = 0) -> None:
        """Ingest an *annotated* document's mentions and relations.

        ``relations`` defaults to running the stock
        :class:`~repro.ner.relations.RelationExtractor` over the
        document.
        """
        if relations is None:
            from repro.ner.relations import RelationExtractor

            relations = RelationExtractor().extract(document)
        url = document.meta.get("url") or document.doc_id
        for mention in document.entities:
            self._add_mention(Mention(
                doc_id=document.doc_id, url=url, round=round_,
                entity_type=mention.entity_type, surface=mention.text,
                start=mention.start, end=mention.end,
                method=mention.method, term_id=mention.term_id))
        for relation in relations:
            subject, object_ = relation.subject, relation.object
            self._add_assertion(Assertion(
                doc_id=relation.doc_id, url=url, round=round_,
                sentence=relation.sentence_index,
                subject_type=subject.entity_type, subject=subject.text,
                subject_start=subject.start, subject_end=subject.end,
                subject_method=subject.method,
                subject_term_id=subject.term_id,
                object_type=object_.entity_type, object=object_.text,
                object_start=object_.start, object_end=object_.end,
                object_method=object_.method,
                object_term_id=object_.term_id,
                verb=relation.verb, negated=relation.negated,
                confidence=round(relation.confidence, 3)))

    def ingest_entity_record(self, record: Mapping, round_: int = 0,
                             ) -> None:
        """Ingest one ``entities_to_records`` record (flow sink)."""
        self._add_mention(Mention(
            doc_id=record["doc_id"],
            url=record.get("url") or record["doc_id"],
            round=int(record.get("round", round_)),
            entity_type=record["entity_type"], surface=record["text"],
            start=record["start"], end=record["end"],
            method=record.get("method", ""),
            term_id=record.get("term_id", "")))

    def ingest_relation_record(self, record: Mapping, round_: int = 0,
                               ) -> None:
        """Ingest one ``relations_to_records`` record (flow sink)."""
        self._add_assertion(Assertion(
            doc_id=record["doc_id"],
            url=record.get("url") or record["doc_id"],
            round=int(record.get("round", round_)),
            sentence=record["sentence"],
            subject_type=record["subject_type"],
            subject=record["subject"],
            subject_start=record["subject_start"],
            subject_end=record["subject_end"],
            subject_method=record.get("subject_method", ""),
            subject_term_id=record.get("subject_term_id", ""),
            object_type=record["object_type"],
            object=record["object"],
            object_start=record["object_start"],
            object_end=record["object_end"],
            object_method=record.get("object_method", ""),
            object_term_id=record.get("object_term_id", ""),
            verb=record.get("verb", ""),
            negated=bool(record.get("negated", False)),
            confidence=float(record.get("confidence", 0.0))))

    def _add_mention(self, mention: Mention) -> None:
        self._mentions.add(mention)
        self._link(mention.entity_type, mention.surface, mention.term_id)
        self._snapshot = None

    def _add_assertion(self, assertion: Assertion) -> None:
        self._assertions.add(assertion)
        self._link(assertion.subject_type, assertion.subject,
                   assertion.subject_term_id)
        self._link(assertion.object_type, assertion.object,
                   assertion.object_term_id)
        self._snapshot = None

    def _link(self, entity_type: str, surface: str, term_id: str) -> None:
        """Record a surface → term-id resolution edge.

        Explicit ids (dictionary hits) are taken as-is; unlinked
        surfaces are resolved through the normalizer when one is
        attached.  Both are pure functions of the surface, so the link
        set is ingest-order independent."""
        key = alias_key(surface)
        if term_id:
            self._links.add((entity_type, key, term_id))
            return
        if self._normalizer is not None:
            entry = self._normalizer.resolve(entity_type, surface)
            if entry is not None:
                self._links.add((entity_type, key, entry.term_id))

    # -- aggregation ----------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """The canonical aggregated view (cached until next ingest)."""
        if self._snapshot is None:
            self._snapshot = self._compute_snapshot()
        return self._snapshot

    def _surface_nodes(self) -> dict[tuple[str, str], set[str]]:
        """(entity_type, alias_key) -> observed raw surfaces."""
        surfaces: dict[tuple[str, str], set[str]] = {}
        def observe(entity_type: str, surface: str) -> None:
            surfaces.setdefault(
                (entity_type, alias_key(surface)), set()).add(surface)
        for m in self._mentions:
            observe(m.entity_type, m.surface)
        for a in self._assertions:
            observe(a.subject_type, a.subject)
            observe(a.object_type, a.object)
        return surfaces

    def _compute_snapshot(self) -> StoreSnapshot:
        surfaces = self._surface_nodes()
        uf = _UnionFind()
        for entity_type, key in surfaces:
            uf.add(("s", entity_type, key))
        for entity_type, key, term_id in self._links:
            uf.union(("s", entity_type, key), ("t", entity_type, term_id))
        n_nodes = len(uf._parent)
        groups = uf.groups()
        n_alias_merges = n_nodes - len(groups)

        canonical: dict = {}   # root -> canonical id
        group_of: dict = {}    # (entity_type, alias_key) -> root
        for root, members in groups.items():
            term_ids = sorted(n[2] for n in members if n[0] == "t")
            surface_keys = sorted(n[2] for n in members if n[0] == "s")
            entity_type = members[0][1]
            if term_ids:
                canonical[root] = term_ids[0]
            else:
                canonical[root] = (f"SURF:{entity_type.upper()}:"
                                   f"{surface_keys[0]}")
            for key in surface_keys:
                group_of[(entity_type, key)] = root

        # Per-group aggregates from the mention set.
        mention_counts: dict = {}  # root -> {surface: n}
        doc_ids: dict = {}
        urls: dict = {}
        for m in self._mentions:
            root = group_of.get((m.entity_type, alias_key(m.surface)))
            if root is None:
                continue
            counts = mention_counts.setdefault(root, {})
            counts[m.surface] = counts.get(m.surface, 0) + 1
            doc_ids.setdefault(root, set()).add(m.doc_id)
            urls.setdefault(root, set()).add(m.url)

        entities = []
        for root, members in groups.items():
            entity_type = members[0][1]
            observed: set[str] = set()
            for node in members:
                if node[0] == "s":
                    observed |= surfaces[(entity_type, node[2])]
            counts = mention_counts.get(root, {})
            # Canonical display name: most frequently observed
            # surface; ties break toward the lexicographic minimum.
            name = min(observed,
                       key=lambda s: (-counts.get(s, 0), s.lower(), s))
            entities.append({
                "id": canonical[root],
                "entity_type": entity_type,
                "name": name,
                "aliases": sorted(observed),
                "term_ids": sorted(n[2] for n in members if n[0] == "t"),
                "mentions": sum(counts.values()),
                "documents": len(doc_ids.get(root, ())),
                "sources": len(urls.get(root, ())),
            })
        entities.sort(key=lambda e: (e["entity_type"], e["id"]))
        names = {(e["entity_type"], e["id"]): e["name"] for e in entities}

        # Facts: assertions grouped by canonical endpoints + predicate.
        grouped: dict = {}
        for a in self._assertions:
            s_root = group_of[(a.subject_type, alias_key(a.subject))]
            o_root = group_of[(a.object_type, alias_key(a.object))]
            key = (a.subject_type, canonical[s_root], a.predicate,
                   a.object_type, canonical[o_root], a.negated)
            grouped.setdefault(key, []).append(a)
        facts = []
        for key, assertions in grouped.items():
            s_type, s_id, predicate, o_type, o_id, negated = key
            assertions.sort()
            facts.append({
                "subject_id": s_id,
                "subject": names[(s_type, s_id)],
                "subject_type": s_type,
                "predicate": predicate,
                "object_id": o_id,
                "object": names[(o_type, o_id)],
                "object_type": o_type,
                "negated": negated,
                "corroboration": len({a.url for a in assertions}),
                "documents": len({a.doc_id for a in assertions}),
                "support": len(assertions),
                "confidence": max(a.confidence for a in assertions),
                "provenance": [{
                    "url": a.url,
                    "doc_id": a.doc_id,
                    "round": a.round,
                    "sentence": a.sentence,
                    "subject": a.subject,
                    "subject_span": [a.subject_start, a.subject_end],
                    "subject_method": a.subject_method,
                    "object": a.object,
                    "object_span": [a.object_start, a.object_end],
                    "object_method": a.object_method,
                    "verb": a.verb,
                    "confidence": a.confidence,
                } for a in assertions],
            })
        facts.sort(key=lambda f: (f["subject_type"], f["subject_id"],
                                  f["predicate"], f["object_type"],
                                  f["object_id"], f["negated"]))
        return StoreSnapshot(
            entities=tuple(entities), facts=tuple(facts),
            n_mentions=len(self._mentions),
            n_assertions=len(self._assertions),
            n_links=len(self._links),
            n_alias_merges=n_alias_merges)

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical payload: sorted observation lists, versioned."""
        return {
            "version": FORMAT_VERSION,
            "kind": _STORE.kind,
            "mentions": [m.to_dict() for m in sorted(self._mentions)],
            "assertions": [a.to_dict() for a in sorted(self._assertions)],
            "links": [list(link) for link in sorted(self._links)],
        }

    def save(self, path: str | Path) -> Path:
        """Atomically persist to ``path`` (a directory or file)."""
        return _STORE.save(self._store_file(path), self.to_dict())

    @classmethod
    def load(cls, path: str | Path,
             vocabulary: "BiomedicalVocabulary | None" = None,
             ) -> "EntityStore":
        """Restore a store; raises :class:`StoreError` subclasses on
        missing, truncated, malformed, or newer-versioned payloads, and
        on a link whose surface no mention or assertion carries (the
        ingest path never writes one)."""
        target = cls._store_file(path)
        payload = _STORE.load(target)
        store = cls(vocabulary=vocabulary)
        try:
            for entry in payload["mentions"]:
                store._mentions.add(Mention(**entry))
            for entry in payload["assertions"]:
                store._assertions.add(Assertion(**entry))
            for entry in payload["links"]:
                entity_type, key, term_id = entry
                store._links.add((entity_type, key, term_id))
            surfaces = store._surface_nodes()
            for entity_type, key, term_id in store._links:
                if (entity_type, key) not in surfaces:
                    raise ValueError(
                        f"link {[entity_type, key, term_id]} names no "
                        "observed surface")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"entity store {target} is malformed: {exc}") from exc
        return store

    @staticmethod
    def _store_file(path: str | Path) -> Path:
        path = Path(path)
        if path.suffix == ".json":
            return path
        return path / STORE_FILENAME

    # -- export / observability ----------------------------------------------

    def export_lines(self) -> dict[str, list[str]]:
        """Canonical JSONL export: one sorted-key line per entity and
        per fact.  Byte-identical for equal stores."""
        snapshot = self.snapshot()
        return {
            "entities": [json.dumps(e, sort_keys=True)
                         for e in snapshot.entities],
            "facts": [json.dumps(f, sort_keys=True)
                      for f in snapshot.facts],
        }

    def export(self, directory: str | Path) -> dict[str, Path]:
        """Write ``entities.jsonl`` + ``facts.jsonl`` under
        ``directory``; returns artifact -> path."""
        return {artifact: write_lines(
                    Path(directory) / f"{artifact}.jsonl", lines)
                for artifact, lines in self.export_lines().items()}

    def digest(self) -> str:
        """SHA-256 over the canonical export — the store-equality
        fingerprint the invariance tests assert on."""
        hasher = hashlib.sha256()
        for artifact, lines in sorted(self.export_lines().items()):
            hasher.update(artifact.encode("utf-8"))
            for line in lines:
                hasher.update(line.encode("utf-8"))
                hasher.update(b"\n")
        return hasher.hexdigest()

    def publish_metrics(self, registry: "MetricsRegistry") -> None:
        """Publish store state under the deterministic split: every
        value below is a pure function of the observation sets, so the
        export stays byte-identical at any worker/shard count."""
        snapshot = self.snapshot()
        registry.gauge("store.mentions").set(snapshot.n_mentions)
        registry.gauge("store.assertions").set(snapshot.n_assertions)
        registry.gauge("store.links").set(snapshot.n_links)
        registry.gauge("store.entities").set(snapshot.n_entities)
        registry.gauge("store.facts").set(snapshot.n_facts)
        registry.gauge("store.alias_merges").set(snapshot.n_alias_merges)
        registry.gauge("store.corroborated_facts").set(
            snapshot.n_corroborated)
