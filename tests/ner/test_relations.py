"""Tests for co-occurrence relation extraction."""

import pytest

from repro.annotations import Document, EntityMention
from repro.ner.relations import (
    RelationExtractor, relations_to_records,
)
from repro.nlp.sentence import split_sentences
from repro.nlp.tokenize import tokenize
from tests.core.pipeline_oracle import analyze


def _document(text, mentions):
    document = Document("d", text)
    document.sentences = split_sentences(text)
    for sentence in document.sentences:
        sentence.tokens = tokenize(sentence.text,
                                   base_offset=sentence.start)
    document.entities = mentions
    return document


def _mention(text, full_text, entity_type, method="dictionary"):
    start = full_text.index(text)
    return EntityMention(text, start, start + len(text), entity_type,
                         method=method)


class TestExtraction:
    TEXT = "Aspirin inhibits glossoma in patients. Nothing else here."

    def _drug_disease_doc(self):
        return _document(self.TEXT, [
            _mention("Aspirin", self.TEXT, "drug"),
            _mention("glossoma", self.TEXT, "disease"),
        ])

    def test_pair_extracted_with_verb(self):
        relations = RelationExtractor().extract(self._drug_disease_doc())
        assert len(relations) == 1
        relation = relations[0]
        assert relation.subject.text == "Aspirin"
        assert relation.object.text == "glossoma"
        assert relation.verb == "inhibits"
        assert not relation.negated
        assert relation.relation_type == "drug-disease"

    def test_confidence_higher_with_verb(self):
        with_verb = RelationExtractor().extract(
            self._drug_disease_doc())[0]
        text = "Aspirin and glossoma in patients."
        without_verb = RelationExtractor().extract(_document(text, [
            _mention("Aspirin", text, "drug"),
            _mention("glossoma", text, "disease"),
        ]))[0]
        assert with_verb.confidence > without_verb.confidence

    def test_negation_detected(self):
        text = "Aspirin does not inhibit glossoma in mice."
        relation = RelationExtractor().extract(_document(text, [
            _mention("Aspirin", text, "drug"),
            _mention("glossoma", text, "disease"),
        ]))[0]
        assert relation.negated
        assert relation.confidence < 0.7

    def test_cross_sentence_pairs_not_extracted(self):
        text = "Aspirin helps. Glossoma spreads."
        relations = RelationExtractor().extract(_document(text, [
            _mention("Aspirin", text, "drug"),
            _mention("Glossoma", text, "disease"),
        ]))
        assert relations == []

    def test_type_pair_filter(self):
        text = "Aspirin meets ibuprofen here."
        relations = RelationExtractor().extract(_document(text, [
            _mention("Aspirin", text, "drug"),
            _mention("ibuprofen", text, "drug"),
        ]))
        assert relations == []  # drug-drug not in default pairs

    def test_orientation_normalized(self):
        text = "glossoma responds to Aspirin treatment."
        relation = RelationExtractor().extract(_document(text, [
            _mention("glossoma", text, "disease"),
            _mention("Aspirin", text, "drug"),
        ]))[0]
        # Subject is always the first element of the configured pair.
        assert relation.subject.entity_type == "drug"

    def test_duplicate_method_mentions_deduped(self):
        text = "Aspirin inhibits glossoma."
        relations = RelationExtractor().extract(_document(text, [
            _mention("Aspirin", text, "drug", method="dictionary"),
            _mention("Aspirin", text, "drug", method="ml"),
            _mention("glossoma", text, "disease"),
        ]))
        assert len(relations) == 1
        assert relations[0].subject.method == "dictionary"

    def test_max_distance(self):
        filler = " very" * 40
        text = f"Aspirin is{filler} far from glossoma."
        relations = RelationExtractor(max_token_distance=10).extract(
            _document(text, [
                _mention("Aspirin", text, "drug"),
                _mention("glossoma", text, "disease"),
            ]))
        assert relations == []


class TestRecords:
    def test_records_shape(self):
        text = "Aspirin inhibits glossoma."
        relations = RelationExtractor().extract(_document(text, [
            _mention("Aspirin", text, "drug"),
            _mention("glossoma", text, "disease"),
        ]))
        records = relations_to_records(relations)
        assert records[0]["relation_type"] == "drug-disease"
        assert records[0]["verb"] == "inhibits"
        assert 0 < records[0]["confidence"] <= 1

    def test_operator_registered(self, pipeline):
        from repro.dataflow.packages import make_operator

        text = "Patients took kesumabtidine against glossoma."
        document = Document("d", text)
        pipeline.preprocess(document)
        document.entities = [
            _mention("kesumabtidine", text, "drug"),
            _mention("glossoma", text, "disease"),
        ]
        records = list(make_operator("extract_relations").process(
            [document]))
        assert len(records) == 1


class TestEndToEnd:
    def test_relations_from_pipeline_annotations(self, context):
        """Full stack: analyze web docs, then extract relations."""
        extractor = RelationExtractor()
        total = 0
        for document in context.corpus_documents("medline")[:6]:
            analyze(context.pipeline, document)
            total += len(extractor.extract(document))
        assert total > 0
