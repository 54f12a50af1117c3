"""Bundled text-analytics pipeline.

One object holding every trained tool the flows need — the Python
equivalent of the paper's "wrapped best-of-breed tools".  Building a
pipeline trains the HMM POS tagger and the three CRF entity taggers on
Medline-profile gold (the only training data available, as in the
paper) and compiles the three fuzzy dictionaries into the one
automaton every dictionary scan in the process uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.annotations import Document
from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.corpora.goldstandard import build_classifier_gold, build_ner_gold
from repro.corpora.profiles import MEDLINE
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.html.boilerplate import BoilerplateDetector
from repro.ner.cache import AutomatonCache
from repro.ner.dictionary import DictionaryTagger
from repro.ner.onepass import OnePassAnnotator, volume_chunks
from repro.ner.taggers import (
    ENTITY_TYPES, MlEntityTagger, build_dictionary_taggers, build_ml_taggers,
)
from repro.nlp.language import LanguageIdentifier, default_identifier
from repro.nlp.linguistics import LinguisticAnalyzer
from repro.nlp.pos_hmm import HmmPosTagger
from repro.nlp.sentence import SentenceSplitter
from repro.nlp.tokenize import tokenize


@dataclass
class TextAnalyticsPipeline:
    """All tools, trained and ready."""

    vocabulary: BiomedicalVocabulary
    classifier: NaiveBayesClassifier
    identifier: LanguageIdentifier
    splitter: SentenceSplitter
    pos_tagger: HmmPosTagger
    dictionary_taggers: dict[str, DictionaryTagger]
    ml_taggers: dict[str, MlEntityTagger]
    boilerplate: BoilerplateDetector = field(default_factory=BoilerplateDetector)
    linguistics: LinguisticAnalyzer = field(default_factory=LinguisticAnalyzer)

    @classmethod
    def build(cls, vocabulary: BiomedicalVocabulary | None = None,
              seed: int = 19, n_training_docs: int = 60,
              n_classifier_docs: int = 100, crf_iterations: int = 40,
              gene_quadratic_context: bool = False,
              dictionary_cache: "AutomatonCache | str | Path | None" = None,
              ) -> "TextAnalyticsPipeline":
        """Train everything from synthetic gold.

        ``gene_quadratic_context=True`` enables the BANNER-style heavy
        feature set (slow; used by the runtime benchmarks).
        ``dictionary_cache`` (an AutomatonCache or a directory path)
        re-loads the persisted dictionary automaton instead of
        rebuilding it — the paper's fix for the per-worker 20-minute
        load.
        """
        import dataclasses

        if dictionary_cache is not None and \
                not isinstance(dictionary_cache, AutomatonCache):
            dictionary_cache = AutomatonCache(dictionary_cache)

        vocabulary = vocabulary or BiomedicalVocabulary(seed=seed)
        # NER gold corpora (BioCreative-style) are entity-dense
        # annotated selections, not raw abstracts: boost the mention
        # rates of the Medline profile for training only.
        training_profile = dataclasses.replace(
            MEDLINE,
            disease_per_1000_sentences=600.0,
            drug_per_1000_sentences=600.0,
            gene_per_1000_sentences=800.0)
        training = build_ner_gold(vocabulary, training_profile,
                                  n_training_docs, seed=seed + 1)
        pos_tagger = HmmPosTagger()
        pos_tagger.train(sentence for gold in training
                         for sentence in gold.tagged_sentences())
        pos_tagger.freeze()
        classifier = NaiveBayesClassifier(decision_threshold=0.9).fit(
            build_classifier_gold(vocabulary, n_classifier_docs,
                                  seed=seed + 2))
        ml_taggers = build_ml_taggers(
            training, max_iterations=crf_iterations,
            gene_quadratic_context=gene_quadratic_context)
        return cls(
            vocabulary=vocabulary,
            classifier=classifier,
            identifier=default_identifier(seed=seed + 3),
            splitter=SentenceSplitter(),
            pos_tagger=pos_tagger,
            dictionary_taggers=build_dictionary_taggers(
                vocabulary, cache=dictionary_cache),
            ml_taggers=ml_taggers,
        )

    # -- whole-document analysis ---------------------------------------------

    def preprocess(self, document: Document) -> Document:
        """Sentence + token annotation (and POS) on net text."""
        document.sentences = self.splitter.split(document.text)
        for sentence in document.sentences:
            sentence.tokens = tokenize(sentence.text,
                                       base_offset=sentence.start)
        return document

    def one_pass_annotator(self,
                           methods: tuple[str, ...] = ("dictionary", "ml"),
                           entity_types: tuple[str, ...] = ENTITY_TYPES,
                           with_pos: bool = False) -> OnePassAnnotator:
        """The one-pass engine for the given configuration, steps in
        annotation order: per entity type, dictionary then ML.  Cheap —
        it only arranges the pipeline's own tools (the dictionary steps
        share the pipeline's one automaton)."""
        steps = []
        for entity_type in entity_types:
            if "dictionary" in methods:
                steps.append(self.dictionary_taggers[entity_type])
            if "ml" in methods:
                steps.append(self.ml_taggers[entity_type])
        return OnePassAnnotator(
            steps, splitter=self.splitter, split="missing",
            pos_tagger=self.pos_tagger if with_pos else None)

    def analyze_batch(self, documents: list[Document],
                      methods: tuple[str, ...] = ("dictionary", "ml"),
                      entity_types: tuple[str, ...] = ENTITY_TYPES,
                      with_pos: bool = False) -> list[Document]:
        """Full linguistic + entity annotation of a batch of
        documents on the one-pass engine, each annotated as if alone.

        Sentences split and tokenize once into a shared arena, one
        merged-automaton pass matches every dictionary type, one
        ``tag_batch`` call covers every sentence of every document,
        and one ``predict_words`` per entity type covers every
        sentence in the batch (emissions looked up per word type, no
        feature strings built).  Per document, entities come per entity
        type, dictionary then ML, and the results equal one tool after
        another over that document alone
        (``tests/core/pipeline_oracle.py``).  ``document.sentences is
        None`` means "never computed" and triggers the split; an empty
        list is trusted as-is.
        """
        engine = self.one_pass_annotator(methods, entity_types, with_pos)
        engine.annotate_batch(documents)
        for document in documents:
            self.linguistics.analyze(document)
        return documents

    def analyze_stream(self, documents: Iterable[Document],
                       methods: tuple[str, ...] = ("dictionary", "ml"),
                       entity_types: tuple[str, ...] = ENTITY_TYPES,
                       with_pos: bool = False) -> Iterator[Document]:
        """:meth:`analyze_batch` over a stream of whole documents:
        yields the (mutated) documents in input order, byte-identical
        to annotating each alone.

        The stream is consumed lazily and cut on text volume
        (:func:`repro.ner.onepass.volume_chunks`), one
        :meth:`analyze_batch` per chunk, so the memory in flight is a
        chunk's worth however many pages a crawl harvested.
        """
        for chunk in volume_chunks(documents):
            yield from self.analyze_batch(chunk, methods, entity_types,
                                          with_pos)
