"""One document at a time, one tool after another — the core oracle.

:func:`analyze` is the per-document annotation path the pipeline ran
before the one-pass engine: split and tokenize, optionally POS-tag
sentence by sentence (counting crashes in ``meta["pos_crashes"]``),
run the linguistic analyzer, then per entity type the dictionary
tagger and the ML tagger, each over the whole document.  The one-pass
equivalence suites hold ``TextAnalyticsPipeline.analyze_batch`` /
``analyze_stream`` to it, and ``benchmarks/bench_store.py`` times it as
the reference arm of analyze + ingest.
"""

from __future__ import annotations

from repro.annotations import Document
from repro.core.pipeline import TextAnalyticsPipeline
from repro.ner.taggers import ENTITY_TYPES
from repro.nlp.pos_hmm import TaggerCrash


def analyze(pipeline: TextAnalyticsPipeline, document: Document,
            methods: tuple[str, ...] = ("dictionary", "ml"),
            entity_types: tuple[str, ...] = ENTITY_TYPES,
            with_pos: bool = False) -> Document:
    """Full linguistic + entity annotation of one document, in place.

    ``document.sentences is None`` means "never computed" and triggers
    preprocessing; an empty list means the split genuinely produced
    nothing and is trusted as-is.
    """
    if document.sentences is None:
        pipeline.preprocess(document)
    if with_pos:
        for sentence in document.sentences:
            try:
                sentence.tokens = pipeline.pos_tagger.tag_tokens(
                    sentence.tokens or ())
            except TaggerCrash:
                document.meta["pos_crashes"] = (
                    document.meta.get("pos_crashes", 0) + 1)
    pipeline.linguistics.analyze(document)
    for entity_type in entity_types:
        if "dictionary" in methods:
            pipeline.dictionary_taggers[entity_type].annotate(document)
        if "ml" in methods:
            pipeline.ml_taggers[entity_type].annotate(document)
    return document
