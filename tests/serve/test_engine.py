"""BatchEngine tests over a stub session: the batching layer must be
response-invariant — every request gets the exact response it would
get alone, no matter how requests coalesce — plus admission control
(load-shed, quotas), the pipelined dispatch order, and failure
isolation."""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workers as workers_module
from repro.obs.metrics import MetricsRegistry
from repro.serve import server as server_module
from repro.serve.server import BatchEngine, ServeConfig


class StubSession:
    """Deterministic per-request results; records batch shapes."""

    def __init__(self, fail_texts: frozenset[str] = frozenset()) -> None:
        self.fail_texts = fail_texts
        self.batches: list[list[tuple[str, str]]] = []
        self._lock = threading.Lock()

    def warm(self) -> None:
        pass

    def close(self) -> None:
        pass

    def run_batch(self, requests):
        with self._lock:
            self.batches.append(list(requests))
        results = []
        for op, text in requests:
            if text in self.fail_texts:
                results.append({"_error": f"boom: {text}"})
            else:
                results.append({"op": op, "echo": text,
                                "tokens": len(text.split())})
        return results


class GatedSession(StubSession):
    """Holds the dispatcher inside its first batch until ``gate`` is
    set, so a test can queue a known backlog behind a busy worker."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def run_batch(self, requests):
        self.entered.set()
        self.gate.wait(timeout=30)
        return super().run_batch(requests)


def submit_behind_busy_worker(engine: BatchEngine,
                              session: GatedSession, requests):
    """Occupy the worker with a plug request, queue ``requests``
    behind it, then let the worker go; the pendings of ``requests``."""
    plug = engine.submit("classify", "plug", request_id="plug")
    assert session.entered.wait(timeout=30)
    pendings = [engine.submit(op, text, request_id=request_id)
                for request_id, op, text in requests]
    session.gate.set()
    assert plug.wait(timeout=30)["ok"]
    return pendings


def make_engine(session=None, **overrides) -> BatchEngine:
    config = ServeConfig(workers=0, max_batch=8, queue_limit=64)
    for key, value in overrides.items():
        setattr(config, key, value)
    engine = BatchEngine(session or StubSession(), config,
                         metrics=MetricsRegistry())
    engine.start()
    return engine


ops_strategy = st.sampled_from(["extract", "annotate", "classify"])
texts_strategy = st.text(
    alphabet=st.sampled_from("abc xyz"), min_size=1, max_size=20
).filter(str.strip)
requests_strategy = st.lists(st.tuples(ops_strategy, texts_strategy),
                             min_size=1, max_size=40)
threads_strategy = st.integers(min_value=1, max_value=6)


class TestResponseInvariance:
    @given(requests=requests_strategy, n_threads=threads_strategy)
    @settings(max_examples=40, deadline=None)
    def test_batched_responses_match_single_request_responses(
            self, requests, n_threads):
        """Satellite property: at any concurrency, every response is
        byte-identical to what a sequential single-request engine
        produces for the same (id, op, text)."""
        session = StubSession()
        engine = make_engine(session)
        try:
            slices = [requests[index::n_threads]
                      for index in range(n_threads)]
            received: dict[str, dict] = {}
            lock = threading.Lock()

            def client(thread_index: int, jobs) -> None:
                for seq, (op, text) in enumerate(jobs):
                    request_id = f"t{thread_index}.{seq}"
                    pending = engine.submit(op, text,
                                            request_id=request_id)
                    response = pending.wait(timeout=30)
                    with lock:
                        received[request_id] = response

            threads = [threading.Thread(target=client, args=(i, jobs))
                       for i, jobs in enumerate(slices) if jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            engine.stop()
        # Expected: exactly the single-request response, per request.
        for thread_index, jobs in enumerate(slices):
            for seq, (op, text) in enumerate(jobs):
                request_id = f"t{thread_index}.{seq}"
                expected = {"id": request_id, "ok": True,
                            "result": {"op": op, "echo": text,
                                       "tokens": len(text.split())}}
                assert received[request_id] == expected

    def test_batches_are_actually_formed(self):
        """Requests that queue while the worker is busy come out cut
        by the size target — batches grow exactly when workers are
        busy."""
        session = GatedSession()
        engine = make_engine(session, max_batch=8)
        try:
            pendings = submit_behind_busy_worker(
                engine, session,
                [(str(i), "classify", f"text {i}") for i in range(19)])
            for pending in pendings:
                assert pending.wait(timeout=30)["ok"]
        finally:
            engine.stop()
        assert [len(batch) for batch in session.batches] == [1, 8, 8, 3]
        assert engine.metrics.value_of(
            "serve.multi_request_batches") == 3

    def test_idle_engine_serves_a_lone_request_alone(self):
        session = StubSession()
        engine = make_engine(session)
        try:
            for index in range(5):
                pending = engine.submit("classify", f"text {index}",
                                        request_id=str(index))
                assert pending.wait(timeout=30)["ok"]
        finally:
            engine.stop()
        assert [len(batch) for batch in session.batches] == [1] * 5


class TestAdmissionControl:
    def test_shed_beyond_queue_limit(self):
        # Block the dispatcher with an in-flight batch, then overfill.
        gate = threading.Event()

        class SlowSession(StubSession):
            def run_batch(self, requests):
                gate.wait(timeout=30)
                return super().run_batch(requests)

        engine = make_engine(SlowSession(), queue_limit=4)
        try:
            pendings = [engine.submit("classify", "x",
                                      request_id=str(i))
                        for i in range(30)]
            shed = [p for p in pendings
                    if p.response and not p.response["ok"]]
            assert shed, "overfilled queue must shed"
            for pending in shed:
                error = pending.response["error"]
                assert error["code"] == "shed"
                assert error["retryable"] is True
            assert engine.metrics.value_of("serve.shed") == len(shed)
            gate.set()
            for pending in pendings:
                if pending not in shed:
                    assert pending.wait(timeout=30)["ok"]
        finally:
            gate.set()
            engine.stop()

    def test_concurrent_submitters_never_overshoot_queue_limit(self):
        """Admit-or-refuse is one critical section: threads hammering
        a full queue never push it past its bound, and every offered
        request is either admitted or shed."""
        queue_limit, n_threads, per_thread = 4, 8, 3000

        class SlowSession(StubSession):
            def run_batch(self, requests):
                time.sleep(0.0002)
                return super().run_batch(requests)

        engine = make_engine(SlowSession(), queue_limit=queue_limit,
                             max_batch=2)
        pendings: list = []
        deepest = [0] * n_threads
        start = threading.Barrier(n_threads)

        def submitter(slot: int) -> None:
            mine = []
            start.wait()
            for index in range(per_thread):
                mine.append(engine.submit(
                    "classify", "x", request_id=f"{slot}.{index}"))
                deepest[slot] = max(deepest[slot],
                                    engine.coalescer.depth)
            pendings.extend(mine)

        # Switch threads every few bytecodes so a check-then-act
        # admission would interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter, args=(slot,))
                       for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        try:
            responses = [pending.wait(timeout=30)
                         for pending in pendings]
        finally:
            engine.stop()
        assert max(deepest) <= queue_limit
        admitted = sum(response["ok"] for response in responses)
        shed = sum(not response["ok"]
                   and response["error"]["code"] == "shed"
                   for response in responses)
        assert shed > 0, "the limit was never contended"
        assert admitted + shed == n_threads * per_thread
        assert engine.metrics.value_of("serve.shed") == shed

    def test_shed_request_is_not_charged_to_the_tenant(self):
        session = GatedSession()
        engine = make_engine(session, queue_limit=1,
                             default_quota=(0.001, 10.0))
        try:
            pendings = submit_behind_busy_worker(
                engine, session,
                [("queued", "classify", "a b c"),
                 ("shed", "classify", "a b c")])
            assert pendings[0].wait(timeout=30)["ok"]
            assert pendings[1].response["error"]["code"] == "shed"
            # 10 - plug(1) - queued(3) = 6: the shed request's three
            # tokens went back to the bucket.
            bucket = engine.stats()["quota_buckets"]["default"]
            assert 6.0 <= bucket["tokens"] < 6.1
        finally:
            engine.stop()

    def test_quota_rejection(self):
        engine = make_engine(default_quota=(0.001, 4.0))
        try:
            first = engine.submit("classify", "a b c d",
                                  request_id="1")
            assert first.wait(timeout=30)["ok"]
            second = engine.submit("classify", "a b c d",
                                   request_id="2")
            assert second.response is not None
            assert second.response["error"]["code"] == "quota"
            assert engine.metrics.value_of(
                "serve.quota_rejected") == 1
        finally:
            engine.stop()

    def test_submit_after_stop_is_unavailable(self):
        engine = make_engine()
        engine.stop()
        pending = engine.submit("classify", "x", request_id="1")
        assert pending.response["error"]["code"] == "unavailable"
        assert pending.response["error"]["retryable"] is True


class TestFailureIsolation:
    def test_failed_request_does_not_poison_batch(self):
        session = GatedSession(fail_texts=frozenset({"bad"}))
        engine = make_engine(session)
        try:
            good, bad = submit_behind_busy_worker(
                engine, session, [("g", "classify", "good"),
                                  ("b", "classify", "bad")])
            good_response = good.wait(timeout=30)
            bad_response = bad.wait(timeout=30)
        finally:
            engine.stop()
        assert session.batches[-1] == [("classify", "good"),
                                       ("classify", "bad")]
        assert good_response["ok"]
        assert not bad_response["ok"]
        assert bad_response["error"]["code"] == "failed"
        assert "boom" in bad_response["error"]["message"]

    def test_session_crash_fails_batch_retryably(self):
        class CrashingSession(StubSession):
            def run_batch(self, requests):
                raise RuntimeError("kernel exploded")

        engine = make_engine(CrashingSession())
        try:
            pending = engine.submit("classify", "x", request_id="1")
            response = pending.wait(timeout=30)
        finally:
            engine.stop()
        assert response["error"]["code"] == "worker_failed"
        assert response["error"]["retryable"] is True
        assert engine.metrics.value_of("serve.worker_failures") == 1


class RecordingWorker:
    """Stands in for the engine's worker: logs every send and recv,
    echoes results, and holds the first recv until released."""

    def __init__(self, log: list) -> None:
        self.log = log
        self.sent: list[list[tuple[str, str]]] = []
        self.first_sent = threading.Event()
        self.release = threading.Event()

    def send(self, requests) -> None:
        self.log.append(("send", [text for _op, text in requests]))
        self.sent.append(requests)
        self.first_sent.set()

    def recv(self) -> list[dict]:
        self.release.wait(timeout=30)
        requests = self.sent.pop(0)
        self.log.append(("recv", [text for _op, text in requests]))
        return [{"echo": text} for _op, text in requests]


class TestPipelinedDispatch:
    def test_next_batch_is_shipped_before_previous_is_delivered(
            self, monkeypatch):
        log: list = []
        worker = RecordingWorker(log)
        monkeypatch.setattr(server_module, "InlineWorker",
                            lambda make_handler: worker)
        engine = make_engine(max_batch=2)

        def submit(index: int):
            text = f"r{index}"
            return engine.submit(
                "classify", text, request_id=text,
                on_done=lambda _response: log.append(("deliver", text)))

        try:
            pendings = [submit(0)]
            assert worker.first_sent.wait(timeout=30)
            pendings += [submit(index) for index in range(1, 5)]
            worker.release.set()
            for pending in pendings:
                assert pending.wait(timeout=30)["ok"]
        finally:
            engine.stop()
        assert log == [
            ("send", ["r0"]), ("recv", ["r0"]),
            ("send", ["r1", "r2"]), ("deliver", "r0"),
            ("recv", ["r1", "r2"]),
            ("send", ["r3", "r4"]), ("deliver", "r1"), ("deliver", "r2"),
            ("recv", ["r3", "r4"]), ("deliver", "r3"), ("deliver", "r4"),
        ]
        # Never more than one batch at the worker with results unread.
        unread = 0
        for event, _texts in log:
            unread += {"send": 1, "recv": -1}.get(event, 0)
            assert unread <= 1

    def test_close_drains_everything_queued(self):
        session = GatedSession()
        engine = make_engine(session, max_batch=4)
        plug = engine.submit("classify", "plug", request_id="plug")
        assert session.entered.wait(timeout=30)
        pendings = [engine.submit("classify", f"text {i}",
                                  request_id=str(i)) for i in range(10)]
        stopper = threading.Thread(target=engine.stop)
        stopper.start()
        session.gate.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert plug.response["ok"]
        assert all(pending.response and pending.response["ok"]
                   for pending in pendings)


class SleepingSession(StubSession):
    """Never finishes a batch: a forked worker running it stays busy
    until it is killed."""

    def run_batch(self, requests):
        time.sleep(300)
        return super().run_batch(requests)


class TestWorkerDeath:
    def test_sigkill_fails_in_flight_and_queued_batches_exactly_once(
            self):
        engine = make_engine(SleepingSession(), workers=1, max_batch=2)
        delivered: dict[str, list[dict]] = {}

        def submit(request_id: str):
            return engine.submit(
                "classify", "x", request_id=request_id,
                on_done=lambda response: delivered.setdefault(
                    request_id, []).append(response))

        try:
            in_flight = submit("in-flight")
            deadline = time.monotonic() + 30
            while not engine.stats()["batches"]:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = [submit(f"queued-{index}") for index in range(2)]
            assert engine.coalescer.depth == 2
            os.kill(engine._workers[0].process.pid, signal.SIGKILL)
            for pending in [in_flight, *queued]:
                assert pending.wait(timeout=30) is not None
        finally:
            engine.stop()
        assert sorted(delivered) == ["in-flight", "queued-0", "queued-1"]
        for responses in delivered.values():
            assert len(responses) == 1
            assert responses[0]["error"]["code"] == "worker_failed"
            assert responses[0]["error"]["retryable"] is True
        assert engine.metrics.value_of("serve.worker_failures") == 2


class TestForkDiscipline:
    @staticmethod
    def responses(engine: BatchEngine) -> list[dict]:
        try:
            return [engine.submit("classify", f"text {index}",
                                  request_id=str(index)).wait(timeout=30)
                    for index in range(5)]
        finally:
            engine.stop()

    def test_without_fork_workers_degrade_to_the_inline_worker(
            self, monkeypatch):
        forked = make_engine(workers=1)
        assert forked.stats()["workers"] == 1
        expected = self.responses(forked)
        monkeypatch.setattr(workers_module, "fork_start_available",
                            lambda: False)
        with pytest.warns(RuntimeWarning, match="fork") as caught:
            degraded = make_engine(workers=2)
        assert len(caught) == 1
        assert degraded.stats()["workers"] == 0
        assert self.responses(degraded) == expected

    def test_stop_leaves_an_enclosing_freeze_alone(self):
        """An engine and a crawl in one process: the engine's stop()
        must not thaw a heap another holder still has frozen."""
        with workers_module.frozen_heap():
            self.responses(make_engine(workers=1))
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0


class TestStats:
    def test_stats_shape(self):
        engine = make_engine()
        try:
            engine.submit("extract", "x", request_id="1").wait(30)
            stats = engine.stats()
        finally:
            engine.stop()
        assert stats["requests"] == {"extract": 1}
        assert stats["workers"] == 0
        assert stats["shed"] == 0
