"""Regression: ``None`` vs ``[]`` annotation sentinels.

``document.sentences``/``sentence.tokens`` distinguish *never
computed* (``None``) from *computed, empty* (``[]``).  The lazy
consumers used to test truthiness, so a legitimately empty split or
token list was silently recomputed; these tests pin the contract:
``[]`` is trusted, only ``None`` triggers recomputation.
"""

import pytest

import repro.ner.taggers as taggers_module
from repro.annotations import Document, Sentence
from repro.nlp.sentence import split_sentences
from repro.nlp.tokenize import tokenize
from tests.core.pipeline_oracle import analyze


@pytest.fixture
def gene_tagger(pipeline):
    return pipeline.ml_taggers["gene"]


def _forbid(monkeypatch, name):
    def boom(*args, **kwargs):
        raise AssertionError(f"{name} must not be called")
    monkeypatch.setattr(taggers_module, name, boom)


class TestMlTaggerSentinels:
    def test_empty_sentence_list_not_resplit(self, gene_tagger,
                                             monkeypatch):
        _forbid(monkeypatch, "split_sentences")
        document = Document("d", "BRCA1 binds TP53.", sentences=[])
        mentions = gene_tagger.annotate(document)
        assert mentions == []
        assert document.sentences == []

    def test_none_sentences_resplit(self, gene_tagger, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return split_sentences(text)
        monkeypatch.setattr(taggers_module, "split_sentences", counting)
        document = Document("d", "BRCA1 binds TP53.")
        gene_tagger.annotate(document)
        assert len(calls) == 1
        # annotate() works off the transient split without persisting
        # it; the document still reads "never computed".
        assert document.sentences is None

    def test_empty_token_list_not_retokenized(self, gene_tagger,
                                              monkeypatch):
        _forbid(monkeypatch, "tokenize")
        document = Document(
            "d", "BRCA1.",
            sentences=[Sentence(0, 6, "BRCA1.", tokens=[])])
        mentions = gene_tagger.annotate(document)
        assert mentions == []
        assert document.sentences[0].tokens == []

    def test_none_tokens_retokenized(self, gene_tagger, monkeypatch):
        calls = []

        def counting(text, base_offset=0):
            calls.append(text)
            return tokenize(text, base_offset=base_offset)
        monkeypatch.setattr(taggers_module, "tokenize", counting)
        document = Document(
            "d", "BRCA1.", sentences=[Sentence(0, 6, "BRCA1.")])
        gene_tagger.annotate(document)
        assert calls == ["BRCA1."]


class TestPipelineSentinels:
    def test_analyze_trusts_empty_split(self, pipeline, monkeypatch):
        def boom(text):
            raise AssertionError("splitter must not run on []")
        monkeypatch.setattr(pipeline.splitter, "split", boom)
        document = Document("d", "BRCA1 binds TP53.", sentences=[])
        analyze(pipeline, document, methods=("ml",))
        assert document.sentences == []
        assert document.entities == []

    def test_analyze_batch_trusts_empty_split(self, pipeline,
                                              monkeypatch):
        def boom(text):
            raise AssertionError("splitter must not run on []")
        monkeypatch.setattr(pipeline.splitter, "split", boom)
        document = Document("d", "BRCA1 binds TP53.", sentences=[])
        pipeline.analyze_batch([document], methods=("ml",))
        assert document.sentences == []
        assert document.entities == []

    def test_analyze_splits_none(self, pipeline):
        document = Document("d", "BRCA1 binds TP53.")
        analyze(pipeline, document, methods=("ml",))
        assert document.sentences is not None
        assert document.sentences[0].tokens
