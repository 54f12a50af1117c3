"""Entity taggers: the ML family and tagger factories.

``MlEntityTagger`` wraps a :class:`~repro.ner.crf.LinearChainCrf` for
one entity type, mirroring the paper's tool choices:

* gene — BANNER analog; exhibits the TLA false-positive pathology on
  out-of-domain text (BANNER's quadratic shape-pair features, which
  make it the slowest tool in Fig. 3b, are the benchmark arm in
  ``tests/ner/banner_oracle.py``);
* drug — ChemSpot analog (hybrid leaning on morphology features);
* disease — the authors' Mallet-based tagger analog.

All ML models are trained on Medline-profile gold only, reproducing
the domain-shift setup the paper analyzes ("all ML-based methods used
in this project employ models trained on Medline abstracts").
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.annotations import Document, EntityMention, Sentence
from repro.corpora.textgen import GoldDocument
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.ner.cache import AutomatonCache
from repro.ner.crf import LinearChainCrf, TrainingSet, bio_to_spans
from repro.ner.dictionary import (
    DictionaryTagger, EntityDictionary, MultiTypeDictionary,
    vocabulary_surfaces,
)
from repro.ner.features import sentence_features
from repro.nlp.sentence import split_sentences
from repro.nlp.tokenize import tokenize

ENTITY_TYPES = ("disease", "drug", "gene")


class MlEntityTagger:
    """CRF tagger for one entity type."""

    method = "ml"

    def __init__(self, entity_type: str, crf: LinearChainCrf) -> None:
        self.entity_type = entity_type
        self.crf = crf

    # -- training ------------------------------------------------------------

    @classmethod
    def train(cls, entity_type: str, gold_documents: Sequence[GoldDocument],
              l2: float = 0.2, max_iterations: int = 60) -> "MlEntityTagger":
        """Train a tagger on gold documents (Medline-profile in the
        paper's setup)."""
        return train_taggers(gold_documents, (entity_type,), l2,
                             max_iterations)[entity_type]

    # -- annotation -----------------------------------------------------------

    def annotate(self, document: Document) -> list[EntityMention]:
        """Tag a document; extends ``document.entities`` in place.

        Uses existing sentence/token annotations when present,
        otherwise runs the default splitter/tokenizer.  All sentences
        are decoded in a single CRF call, so per-sentence Python
        overhead is paid once per document.
        """
        return self.annotate_many([document])[0]

    def annotate_many(self, documents: Sequence[Document],
                      tokenized: "Sequence[Sequence[tuple[list, list[str]]]] | None" = None,
                      ) -> list[list[EntityMention]]:
        """Tag several documents with one cross-document decode.

        The batch form of :meth:`annotate`, used by the one-pass
        engine: sentences from *every* document feed a single CRF
        call, so the numpy path amortizes across document (and serve
        request) boundaries.  Per-document results (mention lists,
        ``entities`` extension) are identical to calling
        :meth:`annotate` on each document in order.

        ``tokenized`` (one ``(tokens, words)`` sequence per document,
        empty-word sentences already excluded) skips the split/tokenize
        pass — the one-pass engine supplies its shared arena here.

        Sentence/token annotations distinguish ``None`` (never
        computed — recompute here) from ``[]`` (computed, genuinely
        empty — trust it); an empty split result must not trigger a
        re-split.
        """
        flat: list[tuple[list, list[str]]] = []
        doc_slices: list[tuple[Document, int, int]] = []
        if tokenized is None:
            for document in documents:
                sentences = (document.sentences
                             if document.sentences is not None
                             else split_sentences(document.text))
                first = len(flat)
                for sentence in sentences:
                    tokens = (sentence.tokens
                              if sentence.tokens is not None
                              else tokenize(sentence.text,
                                            base_offset=sentence.start))
                    words = [t.text for t in tokens]
                    if words:
                        flat.append((tokens, words))
                doc_slices.append((document, first, len(flat)))
        else:
            for document, pairs in zip(documents, tokenized):
                first = len(flat)
                flat.extend(pairs)
                doc_slices.append((document, first, len(flat)))
        sentences = [words for _tokens, words in flat]
        decoded = self.decode(sentences) if sentences else []
        results: list[list[EntityMention]] = []
        for document, first, last in doc_slices:
            mentions: list[EntityMention] = []
            for (tokens, _words), labels in zip(flat[first:last],
                                                decoded[first:last]):
                for token_start, token_end in bio_to_spans(labels):
                    start = tokens[token_start].start
                    end = tokens[token_end - 1].end
                    mentions.append(EntityMention(
                        text=document.text[start:end], start=start,
                        end=end, entity_type=self.entity_type,
                        method="ml"))
            document.entities.extend(mentions)
            results.append(mentions)
        return results

    def decode(self, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
        """BIO labels per word list: the words go straight to the CRF's
        word-type table (``predict_words``), no feature strings."""
        return self.crf.predict_words(sentences)

    def startup_seconds(self) -> float:
        """Model-load cost: negligible next to dictionary builds."""
        return 0.5


def _bio_labels(sentence: Sentence, gold: GoldDocument,
                entity_type: str) -> list[str]:
    """Project the gold entity spans of one type onto BIO tokens."""
    mentions = [g.mention for g in gold.entities
                if g.mention.entity_type == entity_type
                and g.mention.start >= sentence.start
                and g.mention.end <= sentence.end]
    labels = ["O"] * len(sentence.tokens)
    for mention in mentions:
        inside = [i for i, tok in enumerate(sentence.tokens)
                  if tok.start >= mention.start and tok.end <= mention.end]
        for position, token_index in enumerate(inside):
            labels[token_index] = "B" if position == 0 else "I"
    return labels


# -- factories --------------------------------------------------------------------


def build_dictionary_taggers(
        vocabulary: BiomedicalVocabulary,
        cache: "AutomatonCache | None" = None,
        ) -> dict[str, DictionaryTagger]:
    """One dictionary tagger per entity type from the vocabulary, all
    over one :class:`~repro.ner.dictionary.MultiTypeDictionary` — the
    only automaton a pipeline builds.

    ``cache`` (an :class:`~repro.ner.cache.AutomatonCache`) re-loads
    a previously built automaton instead of rebuilding it, so repeated
    pipeline constructions pay the dictionary build once per content.
    """
    shared = MultiTypeDictionary(
        [EntityDictionary(entity_type,
                          vocabulary_surfaces(vocabulary, entity_type))
         for entity_type in ENTITY_TYPES], cache=cache)
    return {entity_type: DictionaryTagger(shared, entity_type)
            for entity_type in ENTITY_TYPES}


def train_taggers(gold_documents: Sequence[GoldDocument],
                  entity_types: Sequence[str], l2: float = 0.2,
                  max_iterations: int = 60) -> dict[str, MlEntityTagger]:
    """One tagger per entity type, all on the same gold sentences.

    Feature strings, the feature index and the position encoding
    depend on the words only, so they are built once; each CRF adds
    its own labels.
    """
    sentences = [(sentence, gold, words)
                 for gold in gold_documents for sentence in gold.sentences
                 if (words := [t.text for t in sentence.tokens])]
    encoded = TrainingSet.encode(
        [sentence_features(words) for _sentence, _gold, words in sentences])
    taggers: dict[str, MlEntityTagger] = {}
    for entity_type in entity_types:
        crf = LinearChainCrf(l2=l2, max_iterations=max_iterations)
        crf.fit_encoded(encoded, [_bio_labels(sentence, gold, entity_type)
                                  for sentence, gold, _words in sentences])
        taggers[entity_type] = MlEntityTagger(entity_type, crf)
    return taggers


def build_ml_taggers(training_documents: Sequence[GoldDocument],
                     max_iterations: int = 60) -> dict[str, MlEntityTagger]:
    """Train the three ML taggers on (Medline-profile) gold documents.

    All three use the linear context-window templates, which decode
    through the CRF's word-type table.  Each tagger's
    ``crf.training_report`` says how its training went.
    """
    return train_taggers(training_documents, ENTITY_TYPES,
                         max_iterations=max_iterations)
