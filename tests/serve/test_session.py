"""ExtractionSession tests over the real trained pipeline: batch
results must equal single-request results, op dispatch must isolate
failures, and the response memo must be invisible in the responses."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.session import ExtractionSession, ResponseMemo
from tests.core.pipeline_oracle import analyze

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


@pytest.fixture
def fresh_session(pipeline) -> ExtractionSession:
    """A session of its own for tests that monkeypatch a kernel: a
    shared session's memo would answer from results computed before
    the patch."""
    return ExtractionSession(pipeline)


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
            self, fresh_session, pipeline, monkeypatch):
        """A sentence above the tagger's operational limit keeps its
        untagged tokens and is counted; its neighbours are tagged —
        the reference path's accounting, through the one-pass engine."""
        from repro.annotations import Document

        monkeypatch.setattr(pipeline.pos_tagger, "crash_token_limit", 6)
        text = "Aspirin helps. " + TEXTS[1]
        result = fresh_session.run_batch([("annotate", text)])[0]
        assert result["pos_crashes"] == 1
        short, long_ = result["sentences"]
        assert all(pos for _text, pos in short["tokens"])
        assert len(long_["tokens"]) > 6
        assert not any(pos for _text, pos in long_["tokens"])
        reference = analyze(pipeline, Document("serve", text),
                            methods=(), with_pos=True)
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
            self, fresh_session, monkeypatch):
        session = fresh_session
        real = session.classify_batch

        def explode_on_many(texts):
            if len(texts) > 1:
                raise RuntimeError("batch kernel down")
            return real(texts)

        monkeypatch.setattr(session, "classify_batch", explode_on_many)
        results = session.run_batch(
            [("classify", TEXTS[0]), ("classify", TEXTS[1])])
        assert results == [real([TEXTS[0]])[0], real([TEXTS[1]])[0]]

    def test_single_request_failure_is_marked(self, fresh_session,
                                              monkeypatch):
        session = fresh_session

        def always_explode(texts):
            raise ValueError("no service")

        monkeypatch.setattr(session, "annotate_batch", always_explode)
        results = session.run_batch([("annotate", TEXTS[0]),
                                     ("classify", TEXTS[1])])
        assert results[0] == {"_error": "ValueError: no service"}
        assert "relevant" in results[1]


#: Requests the memo tests draw from: every op, a repeatable unknown
#: op, and texts that share sentences.
REQUESTS = [(op, text) for text in TEXTS + [TEXTS[0] + " " + TEXTS[2]]
            for op in ("extract", "annotate", "classify")] + [
    ("frobnicate", TEXTS[1])]


class TestResponseMemo:
    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, len(REQUESTS) - 1),
                          min_size=1, max_size=12),
           cuts=st.lists(st.integers(1, 12), max_size=6))
    def test_memoized_session_answers_like_fresh_sessions(
            self, pipeline, picks, cuts):
        requests = [REQUESTS[pick] for pick in picks]
        expected = [ExtractionSession(pipeline).run_batch([request])[0]
                    for request in requests]
        memoized = ExtractionSession(pipeline)
        served, start = [], 0
        for cut in cuts + [len(requests)]:
            served.extend(memoized.run_batch(requests[start:start + cut]))
            start += cut
            if start >= len(requests):
                break
        assert served == expected
        memo = memoized.memo
        assert memo.hits + memo.misses == len(requests)

    def test_repeat_within_a_batch_runs_once(self, fresh_session,
                                             monkeypatch):
        session = fresh_session
        real = session.classify_batch
        seen = []

        def recording(texts):
            seen.extend(texts)
            return real(texts)

        monkeypatch.setattr(session, "classify_batch", recording)
        results = session.run_batch([("classify", TEXTS[0]),
                                     ("extract", TEXTS[0]),
                                     ("classify", TEXTS[0])])
        assert seen == [TEXTS[0]]
        assert results[0] is results[2]
        assert (session.memo.hits, session.memo.misses) == (1, 2)
        session.run_batch([("classify", TEXTS[0])])
        assert seen == [TEXTS[0]]
        assert session.memo.hits == 2

    def test_failure_is_not_served_again(self, fresh_session,
                                         monkeypatch):
        session = fresh_session
        real = session.classify_batch
        failing = [True]

        def flaky(texts):
            if failing[0]:
                raise RuntimeError("kernel down")
            return real(texts)

        monkeypatch.setattr(session, "classify_batch", flaky)
        first = session.run_batch([("classify", TEXTS[0])])[0]
        assert first == {"_error": "RuntimeError: kernel down"}
        failing[0] = False
        second = session.run_batch([("classify", TEXTS[0])])[0]
        assert second == real([TEXTS[0]])[0]
        assert session.memo.misses == 2
        unknown = [("frobnicate", TEXTS[0])]
        session.run_batch(unknown)
        session.run_batch(unknown)
        assert session.memo.misses == 4
        assert len(session.memo) == 1

    def test_eviction_keeps_text_within_the_bound(self, fresh_session):
        session = fresh_session
        bound = len(TEXTS[0]) + len(TEXTS[1]) + 5
        session.memo.max_chars = bound
        for text in TEXTS * 2:
            session.run_batch([("classify", text)])
            memo = session.memo
            assert memo.chars <= bound
            assert memo.chars == sum(len(text)
                                     for _op, text in memo._results)
        assert list(session.memo._results) == [("classify", TEXTS[2]),
                                               ("classify", TEXTS[3])]

    def test_least_recently_used_goes_first(self):
        memo = ResponseMemo(max_chars=6)
        for text in ("aa", "bb", "cc"):
            memo.put(("op", text), {"text": text})
        assert memo.get(("op", "aa")) == {"text": "aa"}
        memo.put(("op", "dd"), {"text": "dd"})
        assert memo.get(("op", "bb")) is None
        assert [text for _op, text in memo._results] == ["cc", "aa",
                                                         "dd"]
        memo.put(("op", "x" * 7), {})
        assert memo.chars == 6 and len(memo) == 3

    def test_a_new_session_starts_empty(self, pipeline, session,
                                        tmp_path):
        session.run_batch(REQUESTS[:3])
        assert len(session.memo) > 0
        fresh = ExtractionSession(pipeline,
                                  annotation_cache=str(tmp_path / "c"))
        assert len(fresh.memo) == 0 and fresh.memo.chars == 0
        assert fresh.memo.hits == fresh.memo.misses == 0
        assert fresh.annotation_cache is fresh.memo
        assert not (tmp_path / "c").exists()

    def test_close_releases_the_memo(self, fresh_session):
        fresh_session.run_batch(REQUESTS[:2])
        fresh_session.close()
        assert len(fresh_session.memo) == 0
        assert fresh_session.memo.chars == 0

    def test_two_threads_agree(self, pipeline, fresh_session):
        """More threads than cores, switching often: every answer is a
        fresh session's, and no hit or miss count is lost."""
        expected = [ExtractionSession(pipeline).run_batch([request])[0]
                    for request in REQUESTS]
        answers: dict[int, list] = {}

        def serve(worker: int) -> None:
            order = REQUESTS[worker::2] + REQUESTS[::-1]
            answers[worker] = [
                (request, fresh_session.run_batch([request, request])[0])
                for request in order]

        threads = [threading.Thread(target=serve, args=(worker,))
                   for worker in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        served = 0
        for worker in range(4):
            for request, result in answers[worker]:
                assert result == expected[REQUESTS.index(request)]
            served += 2 * len(answers[worker])
        memo = fresh_session.memo
        assert memo.hits + memo.misses == served
