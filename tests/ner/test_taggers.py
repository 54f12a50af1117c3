"""Tests for the ML taggers, feature templates, and post-filters."""

import pytest
from banner_oracle import quadratic_features

from repro.annotations import Document, EntityMention
from repro.ner.features import extract_features, sentence_features, token_shape
from repro.ner.postfilter import (
    filter_short_mentions, filter_tla_mentions, is_tla,
)


class TestFeatureTemplates:
    def test_token_shapes(self):
        assert token_shape("ABC") == "tla"
        assert token_shape("ABCD") == "allcaps"
        assert token_shape("Word") == "init_cap"
        assert token_shape("p53") == "alnum_mix"
        assert token_shape("42") == "digits"
        assert token_shape("...") == "punct"
        assert token_shape("gene-like") == "hyphenated"
        assert token_shape("plain") == "lower"

    def test_linear_features_present(self):
        features = extract_features(["the", "BRCA1", "gene"], 1)
        assert "w=brca1" in features
        assert "w-1=the" in features
        assert "w+1=gene" in features
        assert "bias" in features

    def test_boundary_positions(self):
        features = extract_features(["solo"], 0)
        assert "w-1=<bos>" in features
        assert "w+1=<eos>" in features

    def test_quadratic_context_scales(self):
        words = ["w"] * 12
        linear = extract_features(words, 5)
        quadratic = quadratic_features(words, 5)
        assert len(quadratic) >= len(linear) + len(words) - 1

    def test_sentence_features_shape(self):
        features = sentence_features(["a", "b", "c"])
        assert len(features) == 3


class TestMlTaggers:
    def test_trained_taggers_annotate(self, pipeline, relevant_generator):
        gold = relevant_generator.document(50)
        document = gold.document.copy_shallow()
        mentions = pipeline.ml_taggers["gene"].annotate(document)
        assert all(m.method == "ml" for m in mentions)
        assert all(m.entity_type == "gene" for m in mentions)

    def test_mention_offsets_valid(self, pipeline, relevant_generator):
        gold = relevant_generator.document(51)
        document = gold.document.copy_shallow()
        for tagger in pipeline.ml_taggers.values():
            for mention in tagger.annotate(document):
                assert document.text[mention.start:mention.end] == \
                    mention.text

    def test_ml_finds_novel_entities(self, pipeline, relevant_generator):
        """ML recall extends beyond the dictionary (the paper's key
        Table 4 contrast)."""
        found_novel = 0
        for i in range(60, 75):
            gold = relevant_generator.document(i)
            document = gold.document.copy_shallow()
            predicted = set()
            for tagger in pipeline.ml_taggers.values():
                predicted |= {(m.start, m.end)
                              for m in tagger.annotate(document)}
            for entity in gold.entities:
                if not entity.in_dictionary and \
                        (entity.mention.start, entity.mention.end) in predicted:
                    found_novel += 1
        assert found_novel > 0

    def test_startup_cost_small(self, pipeline):
        assert pipeline.ml_taggers["drug"].startup_seconds() < 5

    def test_annotate_many_matches_per_document(self, pipeline,
                                                relevant_generator):
        """Cross-document batch decode is equivalent to per-document
        annotate, mention for mention."""
        golds = [relevant_generator.document(i) for i in range(80, 88)]
        for tagger in pipeline.ml_taggers.values():
            singles = [tagger.annotate(g.document.copy_shallow())
                       for g in golds]
            batch_docs = [g.document.copy_shallow() for g in golds]
            batched = tagger.annotate_many(batch_docs)
            assert batched == singles
            for document, mentions in zip(batch_docs, batched):
                assert document.entities == mentions

    def test_annotate_many_empty_and_blank_documents(self, pipeline):
        tagger = pipeline.ml_taggers["disease"]
        assert tagger.annotate_many([]) == []
        blank = Document("blank", "")
        assert tagger.annotate_many([blank]) == [[]]
        assert blank.entities == []


class TestPostFilter:
    def test_is_tla(self):
        assert is_tla("ABC")
        assert not is_tla("ABCD")
        assert not is_tla("AB1")
        assert not is_tla("abc")

    def test_filter_drops_ml_gene_tlas(self):
        mentions = [
            EntityMention("ABC", 0, 3, "gene", method="ml"),
            EntityMention("ABC", 0, 3, "gene", method="dictionary"),
            EntityMention("ABC", 0, 3, "drug", method="ml"),
            EntityMention("BRCA1", 4, 9, "gene", method="ml"),
        ]
        kept = filter_tla_mentions(mentions)
        assert len(kept) == 3
        assert all(not (is_tla(m.text) and m.entity_type == "gene"
                        and m.method == "ml") for m in kept)

    def test_filter_short(self):
        mentions = [EntityMention("a", 0, 1, "gene"),
                    EntityMention("ab", 0, 2, "gene")]
        assert len(filter_short_mentions(mentions, min_length=2)) == 1

    def test_tla_pathology_reproduced(self, pipeline):
        """The ML gene tagger trained on Medline tags bare TLAs in web
        text (the paper's 5.5 M false-positive story)."""
        text = ("Each study shows QQJ in these patients. The report "
                "indicates ZBW with both groups. This analysis supports "
                "XKV in the community. Our review confirms VQR during "
                "meetings.")
        document = Document("d", text)
        mentions = pipeline.ml_taggers["gene"].annotate(document)
        tla_hits = [m for m in mentions if is_tla(m.text)]
        assert tla_hits, "expected TLA false positives from the gene tagger"
        assert not filter_tla_mentions(mentions) == mentions
