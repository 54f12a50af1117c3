"""ExtractionSession tests over the real trained pipeline: batch
results must equal single-request results, op dispatch must isolate
failures, and cache wiring must restore on close."""

from __future__ import annotations

import pytest

from repro.nlp.anno_cache import AnnotationCache
from repro.serve.session import ExtractionSession

TEXTS = [
    "Aspirin reduced migraine symptoms in treated patients.",
    "The trial compared metformin with placebo over twelve weeks.",
    "No improvement was seen in the control group.",
    "Insulin therapy improved outcomes for diabetes patients.",
]


@pytest.fixture(scope="module")
def session(pipeline) -> ExtractionSession:
    wrapped = ExtractionSession(pipeline)
    wrapped.warm()
    return wrapped


class TestRunBatch:
    def test_mixed_batch_equals_singles(self, session):
        requests = [(op, text) for text in TEXTS
                    for op in ("extract", "annotate", "classify")]
        batched = session.run_batch(requests)
        singles = [session.run_batch([request])[0]
                   for request in requests]
        assert batched == singles

    def test_results_independent_of_batch_composition(self, session):
        target = ("extract", TEXTS[0])
        alone = session.run_batch([target])[0]
        crowded = session.run_batch(
            [("classify", TEXTS[1]), target, ("annotate", TEXTS[2]),
             ("extract", TEXTS[3])])[1]
        assert alone == crowded

    def test_unknown_op_marks_only_its_requests(self, session):
        results = session.run_batch(
            [("classify", TEXTS[0]), ("frobnicate", TEXTS[1])])
        assert "relevant" in results[0]
        assert results[1] == {"_error": "unknown op 'frobnicate'"}

    def test_extract_result_shape(self, session):
        result = session.run_batch([("extract", TEXTS[0])])[0]
        assert set(result) == {"entities", "sentences", "tokens"}
        for entity in result["entities"]:
            assert set(entity) == {"text", "start", "end", "type",
                                   "method"}
            assert entity["text"] == TEXTS[0][entity["start"]:
                                              entity["end"]]

    def test_annotate_result_shape(self, session):
        result = session.run_batch([("annotate", TEXTS[0])])[0]
        tokens = result["sentences"][0]["tokens"]
        assert tokens and all(
            isinstance(text, str) and isinstance(pos, str)
            for text, pos in tokens)

    def test_annotate_over_limit_sentence_counts_a_crash(
            self, session, pipeline, monkeypatch):
        """A sentence above the tagger's operational limit keeps its
        untagged tokens and is counted; its neighbours are tagged —
        the reference path's accounting, through the one-pass engine."""
        from repro.annotations import Document

        monkeypatch.setattr(pipeline.pos_tagger, "crash_token_limit", 6)
        text = "Aspirin helps. " + TEXTS[1]
        result = session.run_batch([("annotate", text)])[0]
        assert result["pos_crashes"] == 1
        short, long_ = result["sentences"]
        assert all(pos for _text, pos in short["tokens"])
        assert len(long_["tokens"]) > 6
        assert not any(pos for _text, pos in long_["tokens"])
        reference = pipeline.analyze(Document("serve", text), methods=(),
                                     with_pos=True)
        assert reference.meta["pos_crashes"] == 1
        assert [[[t.text, t.pos] for t in s.tokens]
                for s in reference.sentences] == [
            s["tokens"] for s in result["sentences"]]

    def test_classify_matches_classifier(self, session, pipeline):
        result = session.run_batch([("classify", TEXTS[0])])[0]
        assert result["relevant"] == pipeline.classifier.predict(
            TEXTS[0])
        assert result["probability"] == pytest.approx(
            pipeline.classifier.probability(TEXTS[0]), abs=1e-12)

    def test_batch_kernel_crash_falls_back_per_request(
            self, session, monkeypatch):
        real = session.classify_batch

        def explode_on_many(texts):
            if len(texts) > 1:
                raise RuntimeError("batch kernel down")
            return real(texts)

        monkeypatch.setattr(session, "classify_batch", explode_on_many)
        results = session.run_batch(
            [("classify", TEXTS[0]), ("classify", TEXTS[1])])
        assert results == [real([TEXTS[0]])[0], real([TEXTS[1]])[0]]

    def test_single_request_failure_is_marked(self, session,
                                              monkeypatch):
        def always_explode(texts):
            raise ValueError("no service")

        monkeypatch.setattr(session, "annotate_batch", always_explode)
        results = session.run_batch([("annotate", TEXTS[0]),
                                     ("classify", TEXTS[1])])
        assert results[0] == {"_error": "ValueError: no service"}
        assert "relevant" in results[1]


class TestCacheWiring:
    def test_install_and_restore(self, pipeline, tmp_path):
        priors = {id(tagger): tagger.annotation_cache
                  for tagger in [pipeline.pos_tagger,
                                 *pipeline.ml_taggers.values()]}
        wrapped = ExtractionSession(pipeline,
                                    annotation_cache=str(tmp_path))
        assert isinstance(wrapped.annotation_cache, AnnotationCache)
        for tagger in [pipeline.pos_tagger,
                       *pipeline.ml_taggers.values()]:
            assert tagger.annotation_cache is wrapped.annotation_cache
        wrapped.run_batch([("extract", TEXTS[0])])
        wrapped.close()
        for tagger in [pipeline.pos_tagger,
                       *pipeline.ml_taggers.values()]:
            assert tagger.annotation_cache is priors[id(tagger)]

    def test_close_flushes_cache(self, pipeline, tmp_path):
        wrapped = ExtractionSession(pipeline,
                                    annotation_cache=str(tmp_path))
        wrapped.run_batch([("annotate", TEXTS[0])])
        wrapped.close()
        assert list(tmp_path.glob("anno-*.bin")), \
            "flush must persist shards"
