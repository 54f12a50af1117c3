"""Tests for the shared annotation data model and utilities."""

import pytest

from repro.annotations import (
    Document, EntityMention, LinguisticMention, Sentence, Span, Token,
)
from repro.util import seeded_rng


class TestSpan:
    def test_length(self):
        assert len(Span(2, 7)) == 5

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Span(5, 2)
        with pytest.raises(ValueError):
            Span(-1, 3)

    def test_overlaps(self):
        assert Span(0, 5).overlaps(Span(4, 9))
        assert not Span(0, 5).overlaps(Span(5, 9))  # half-open
        assert Span(2, 3).overlaps(Span(0, 10))

    def test_contains(self):
        assert Span(0, 10).contains(Span(2, 5))
        assert Span(0, 10).contains(Span(0, 10))
        assert not Span(2, 5).contains(Span(0, 10))


class TestToken:
    def test_with_pos_returns_copy(self):
        token = Token("cat", 0, 3)
        tagged = token.with_pos("NN")
        assert tagged.pos == "NN"
        assert token.pos == ""
        assert tagged.span == Span(0, 3)

    def test_fields_are_immutable(self):
        token = Token("cat", 0, 3)
        for field in ("text", "start", "end", "pos"):
            with pytest.raises(AttributeError):
                setattr(token, field, "x")

    def test_repr_and_defaults(self):
        assert repr(Token("cat", 0, 3)) == \
            "Token(text='cat', start=0, end=3, pos='')"
        assert repr(Token("cat", 0, 3, "NN")) == \
            "Token(text='cat', start=0, end=3, pos='NN')"

    def test_span_and_with_pos(self):
        token = Token("BRCA1", 4, 9)
        assert token.span == Span(4, 9) and len(token.span) == 5
        tagged = token.with_pos("NNP")
        assert tagged == Token("BRCA1", 4, 9, "NNP")
        assert (tagged.text, tagged.start, tagged.end) == \
            (token.text, token.start, token.end)
        assert tagged.with_pos("NN").pos == "NN"


class TestDocument:
    def _document(self):
        document = Document("d", "BRCA1 causes cancer. It spreads.")
        sentence = Sentence(0, 20, "BRCA1 causes cancer.")
        sentence.tokens = [Token("BRCA1", 0, 5, "NNP")]
        document.sentences = [sentence]
        document.entities = [
            EntityMention("BRCA1", 0, 5, "gene", method="dictionary"),
            EntityMention("cancer", 13, 19, "disease", method="ml"),
        ]
        document.linguistics = [
            LinguisticMention("It", 21, 23, "pronoun",
                              "personal_subject"),
        ]
        return document

    def test_len_is_text_length(self):
        assert len(self._document()) == 32

    def test_iter_tokens(self):
        assert [t.text for t in self._document().iter_tokens()] == \
            ["BRCA1"]

    def test_entities_of_filters(self):
        document = self._document()
        assert len(document.entities_of("gene")) == 1
        assert len(document.entities_of("gene", method="ml")) == 0
        assert len(document.entities_of("disease", method="ml")) == 1

    def test_copy_shallow_isolates_layers(self):
        document = self._document()
        copy = document.copy_shallow()
        copy.entities.append(
            EntityMention("x", 0, 1, "drug"))
        copy.meta["extra"] = True
        assert len(document.entities) == 2
        assert "extra" not in document.meta
        assert copy.text == document.text


class TestSeededRng:
    def test_deterministic_across_instances(self):
        a = seeded_rng("x", 1, None)
        b = seeded_rng("x", 1, None)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_distinct_keys_distinct_streams(self):
        assert seeded_rng("x", 1).random() != seeded_rng("x", 2).random()
