"""IE package: information-extraction operators.

Annotation operators over :class:`~repro.annotations.Document`
records: sentence and token boundaries, POS tags, linguistic
phenomena, and entity mentions (dictionary or ML, per entity type).
Heavyweight operators take their tool (HMM tagger, dictionary, CRF
tagger) as a parameter — these are the "wrapped third-party tools" of
the paper, with the corresponding startup and memory annotations for
the optimizer and cluster model.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.annotations import Document, EntityMention
from repro.dataflow.operators import (
    FlatMapOperator, MapOperator, Operator, UdfOperator,
)
from repro.dataflow.packages import register
from repro.nlp.linguistics import LinguisticAnalyzer, analyze_text
from repro.nlp.pos_hmm import HmmPosTagger, TaggerCrash
from repro.nlp.sentence import SentenceSplitter
from repro.nlp.tokenize import tokenize


@register("annotate_sentences", "ie", "Detect sentence boundaries")
def _annotate_sentences(max_sentence_chars: int | None = None,
                        **ann) -> Operator:
    splitter = SentenceSplitter(max_sentence_chars=max_sentence_chars)

    def annotate(document: Document) -> Document:
        document.sentences = splitter.split(document.text)
        return document
    ann.setdefault("writes", frozenset({"sentences"}))
    ann.setdefault("reads", frozenset({"text"}))
    operator = MapOperator("annotate_sentences", annotate, **ann)
    # Harvested by fuse_annotation_stage when this operator is folded
    # into a fused one-pass annotation stage.
    operator.splitter = splitter
    return operator


@register("annotate_tokens", "ie", "Tokenize each sentence")
def _annotate_tokens(**ann) -> Operator:
    def annotate(document: Document) -> Document:
        for sentence in document.sentences or ():
            sentence.tokens = tokenize(sentence.text,
                                       base_offset=sentence.start)
        return document
    ann.setdefault("reads", frozenset({"sentences"}))
    ann.setdefault("writes", frozenset({"tokens"}))
    return MapOperator("annotate_tokens", annotate, cost_per_record=1.5,
                       **ann)


@register("annotate_pos", "ie", "HMM part-of-speech tagging (MedPost)")
def _annotate_pos(tagger: HmmPosTagger, skip_crashes: bool = True,
                  **ann) -> Operator:
    def annotate(document: Document) -> Document:
        for sentence in document.sentences or ():
            try:
                sentence.tokens = tagger.tag_tokens(sentence.tokens or ())
            except TaggerCrash:
                if not skip_crashes:
                    raise
                document.meta.setdefault("pos_crashes", 0)
                document.meta["pos_crashes"] += 1
        return document
    ann.setdefault("reads", frozenset({"tokens"}))
    ann.setdefault("writes", frozenset({"pos"}))
    operator = MapOperator("annotate_pos", annotate, cost_per_record=6.0,
                           memory_mb=2048, **ann)
    # Harvested by fuse_annotation_stage.
    operator.tagger = tagger
    operator.skip_crashes = skip_crashes
    return operator


@register("annotate_linguistics", "ie",
          "Regex negation/pronoun/parenthesis mentions (all categories)")
def _annotate_linguistics(**ann) -> Operator:
    analyzer = LinguisticAnalyzer()

    def annotate(document: Document) -> Document:
        analyzer.analyze(document)
        return document
    ann.setdefault("reads", frozenset({"text"}))
    ann.setdefault("writes", frozenset({"linguistics"}))
    return MapOperator("annotate_linguistics", annotate, **ann)


def _category_annotator(name: str, category: str, **ann) -> Operator:
    """One linguistic category only — the paper's flow runs pronouns,
    negation, and parentheses as separate regex operators.

    All three operators filter the same memoized
    :func:`~repro.nlp.linguistics.analyze_text` result, so a chain of
    category annotators pays one regex analysis per document instead
    of one per category (the pass is a pure function of the text, and
    the previous per-operator re-analysis of a shallow copy always
    recomputed it in full)."""

    def annotate(document: Document) -> Document:
        existing = [m for m in document.linguistics
                    if m.category != category]
        fresh = [m for m in analyze_text(document.text)
                 if m.category == category]
        document.linguistics = sorted(existing + fresh,
                                      key=lambda m: (m.start, m.end))
        return document
    ann.setdefault("reads", frozenset({"text"}))
    ann.setdefault("writes", frozenset({f"linguistics:{category}"}))
    return MapOperator(name, annotate, **ann)


@register("annotate_negation", "ie", "Regex negation mentions")
def _annotate_negation(**ann) -> Operator:
    return _category_annotator("annotate_negation", "negation", **ann)


@register("annotate_pronouns", "ie", "Regex pronoun mentions (six classes)")
def _annotate_pronouns(**ann) -> Operator:
    return _category_annotator("annotate_pronouns", "pronoun", **ann)


@register("annotate_parentheses", "ie", "Regex parenthesized-text mentions")
def _annotate_parentheses(**ann) -> Operator:
    return _category_annotator("annotate_parentheses", "parenthesis", **ann)


def _entity_operator(name: str, tagger, cost: float, memory_mb: float,
                     startup: float, **ann) -> Operator:
    def annotate(document: Document) -> Document:
        tagger.annotate(document)
        return document
    ann.setdefault("reads", frozenset({"text", "sentences", "tokens"}))
    ann.setdefault("writes", frozenset({f"entities:{tagger.entity_type}"
                                        f":{tagger.method}"}))
    operator = MapOperator(name, annotate, cost_per_record=cost,
                           memory_mb=memory_mb, startup_seconds=startup,
                           **ann)
    # Harvested by fuse_annotation_stage.
    operator.tagger = tagger
    return operator


def _register_entity_ops() -> None:
    """Register the six entity annotators (3 types x 2 methods)."""
    for entity_type in ("gene", "drug", "disease"):
        dict_name = f"annotate_{entity_type}s_dict"
        ml_name = f"annotate_{entity_type}s_ml"

        def dict_factory(tagger, _n=dict_name, **ann) -> Operator:
            return _entity_operator(
                _n, tagger, cost=1.0,
                memory_mb=float(
                    tagger.shared.memory_share(tagger.entity_type) // 2 ** 20
                    + 64),
                startup=tagger.startup_seconds(), **ann)

        def ml_factory(tagger, _n=ml_name, **ann) -> Operator:
            return _entity_operator(_n, tagger, cost=40.0, memory_mb=4096,
                                    startup=tagger.startup_seconds(), **ann)

        register(dict_name, "ie",
                 f"Dictionary {entity_type} tagging (automaton)")(dict_factory)
        register(ml_name, "ie",
                 f"CRF {entity_type} tagging (ML)")(ml_factory)


_register_entity_ops()


class _FusedAnnotateOperator(MapOperator):
    """Micro-batching 1:1 operator around a one-pass annotator.

    Streams documents through
    :meth:`OnePassAnnotator.annotate_stream` — volume-cut chunks, the
    same cut store ingest uses — so the cross-document batch kernels
    (packed POS decode, whole-batch CRF prediction) engage inside
    flows too; per-record mapping would hand them one document at a
    time.  Outputs and order are identical to the per-record form;
    chunk state is call-local.
    """

    def _process(self, records):
        return self.fused_annotator.annotate_stream(records)


@register("annotate_entities_fused", "ie",
          "Fused one-pass annotation stage (sentences/tokens/POS/entities)")
def _annotate_entities_fused(annotator, cost: float = 1.0,
                             memory_mb: float = 256,
                             startup: float = 0.0, **ann) -> Operator:
    """The substitution target of
    :func:`repro.dataflow.optimizer.fuse_annotation_stage`: one
    operator running a :class:`~repro.ner.onepass.OnePassAnnotator`
    over document micro-batches — the merged-automaton dictionary
    scan, batched POS decode, and feature-shared CRF taggers of the
    replaced sub-chain, with byte-identical outputs.  Cost/memory/
    startup annotations are supplied by the optimizer from the
    replaced run.
    """
    def annotate(document: Document) -> Document:
        return annotator.annotate(document)
    ann.setdefault("reads", frozenset({"text"}))
    ann.setdefault("writes", frozenset(
        {"sentences", "tokens", "pos", "entities"}))
    operator = _FusedAnnotateOperator(
        "annotate_entities_fused", annotate, cost_per_record=cost,
        memory_mb=memory_mb, startup_seconds=startup, **ann)
    operator.fused_annotator = annotator
    return operator


@register("merge_annotations", "ie",
          "Merge/deduplicate entity annotations across methods")
def _merge_annotations(**ann) -> Operator:
    def merge(document: Document) -> Document:
        seen: set[tuple[int, int, str, str]] = set()
        merged: list[EntityMention] = []
        for mention in sorted(document.entities,
                              key=lambda m: (m.start, m.end)):
            key = (mention.start, mention.end, mention.entity_type,
                   mention.method)
            if key in seen:
                continue
            seen.add(key)
            merged.append(mention)
        document.entities = merged
        return document
    ann.setdefault("reads", frozenset({"entities"}))
    ann.setdefault("writes", frozenset({"entities"}))
    return MapOperator("merge_annotations", merge, **ann)


@register("filter_entity_type", "ie", "Keep only one entity type's mentions")
def _filter_entity_type(entity_type: str, **ann) -> Operator:
    def narrow(document: Document) -> Document:
        document.entities = [m for m in document.entities
                             if m.entity_type == entity_type]
        return document
    return MapOperator("filter_entity_type", narrow,
                       reads=frozenset({"entities"}),
                       writes=frozenset({"entities"}), **ann)


@register("entities_to_records", "ie",
          "Emit one record per entity mention")
def _entities_to_records(**ann) -> Operator:
    def explode(document: Document) -> Iterable[dict]:
        url = document.meta.get("url", "")
        for mention in document.entities:
            yield {"doc_id": document.doc_id, "url": url,
                   "text": mention.text,
                   "start": mention.start, "end": mention.end,
                   "entity_type": mention.entity_type,
                   "method": mention.method, "term_id": mention.term_id}
    return FlatMapOperator("entities_to_records", explode,
                           reads=frozenset({"entities"}), **ann)


@register("linguistics_to_records", "ie",
          "Emit one record per linguistic mention")
def _linguistics_to_records(**ann) -> Operator:
    def explode(document: Document) -> Iterable[dict]:
        for mention in document.linguistics:
            yield {"doc_id": document.doc_id, "category": mention.category,
                   "subtype": mention.subtype, "start": mention.start,
                   "end": mention.end, "text": mention.text}
    return FlatMapOperator("linguistics_to_records", explode,
                           reads=frozenset({"linguistics"}), **ann)


@register("sentences_to_records", "ie", "Emit one record per sentence")
def _sentences_to_records(**ann) -> Operator:
    def explode(document: Document) -> Iterable[dict]:
        for index, sentence in enumerate(document.sentences or ()):
            yield {"doc_id": document.doc_id, "sentence_id": index,
                   "start": sentence.start, "end": sentence.end,
                   "n_tokens": len(sentence.tokens or ()),
                   "text": sentence.text}
    return FlatMapOperator("sentences_to_records", explode,
                           reads=frozenset({"sentences"}), **ann)


@register("filter_tla_gene_annotations", "ie",
          "Drop TLA-shaped ML gene mentions (post-filter)")
def _filter_tla(**ann) -> Operator:
    from repro.ner.postfilter import filter_tla_mentions

    def narrow(document: Document) -> Document:
        document.entities = filter_tla_mentions(document.entities)
        return document
    return MapOperator("filter_tla_gene_annotations", narrow,
                       reads=frozenset({"entities"}),
                       writes=frozenset({"entities"}), **ann)


@register("normalize_entities", "ie",
          "Link mentions to dictionary term ids (scheme merge)")
def _normalize_entities(normalizer, merge: bool = True, **ann) -> Operator:
    from repro.ner.normalize import merge_by_term

    def normalize(document: Document) -> Document:
        normalizer.normalize(document)
        if merge:
            merge_by_term(document)
        return document
    return MapOperator("normalize_entities", normalize,
                       reads=frozenset({"entities"}),
                       writes=frozenset({"entities"}), **ann)


@register("annotate_abbreviations", "ie",
          "Schwartz-Hearst abbreviation definitions into meta")
def _annotate_abbreviations(**ann) -> Operator:
    from repro.nlp.abbreviations import annotate_abbreviations

    def annotate(document: Document) -> Document:
        annotate_abbreviations(document)
        return document
    return MapOperator("annotate_abbreviations", annotate,
                       reads=frozenset({"text"}),
                       writes=frozenset({"abbreviations"}), **ann)


@register("extract_relations", "ie",
          "Co-occurrence entity relations into records")
def _extract_relations(max_token_distance: int = 30, **ann) -> Operator:
    from repro.ner.relations import RelationExtractor, relations_to_records

    extractor = RelationExtractor(max_token_distance=max_token_distance)

    def explode(document: Document):
        yield from relations_to_records(extractor.extract(document),
                                        url=document.meta.get("url", ""))
    return FlatMapOperator("extract_relations", explode,
                           reads=frozenset({"entities", "sentences"}),
                           **ann)


@register("count_entities_by_name", "ie",
          "Aggregate entity-mention records into name frequencies")
def _count_entities_by_name(**ann) -> Operator:
    def count(records: Iterator[dict]) -> Iterator[dict]:
        from collections import Counter

        counter: Counter = Counter()
        for record in records:
            counter[(record["entity_type"], record["method"],
                     record["text"].lower())] += 1
        for (entity_type, method, name), frequency in counter.items():
            yield {"entity_type": entity_type, "method": method,
                   "name": name, "frequency": frequency}
    return UdfOperator("count_entities_by_name", count, **ann)
