"""One suite per mechanism of :mod:`repro.workers`.

* the forked worker: framing, the worker-death matrix (every death is
  a :class:`WorkerDied` from the next ``send`` / ``recv``, never a
  hang), and ``stop()`` — idempotent, safe after a death, and never
  stalled by a child blocked writing a reply nobody reads;
* ``frozen_heap``: nested holders, gc state restored on every exit;
* ``ChunkRule``: the four chunk properties, once for both clients.

The clients' own halves live beside them: ``TestWorkerDeath`` in
``tests/serve/test_engine.py``, the ``ShardCrashed`` kill test in
``tests/crawler/test_shard_crawl.py``.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workers as workers_module
from repro.workers import (
    ChunkRule, ForkedWorker, InlineWorker, WorkerDied, frozen_heap,
)

pytestmark = pytest.mark.skipif(not workers_module.fork_start_available(),
                                reason="needs fork start method")

BIG = 4 * 1024 * 1024


def toy_handler():
    def handle(message):
        command = message[0]
        if command == "echo":
            return message[1]
        if command == "sleep":
            time.sleep(message[1])
            return "slept"
        if command == "big":
            return "x" * message[1]
        raise RuntimeError(f"toy handler cannot {command!r}")
    return handle


@pytest.fixture
def worker():
    worker = ForkedWorker(toy_handler, "toy-worker")
    yield worker
    worker.stop()
    assert worker.process.exitcode is not None


def within(seconds: float, call, *args):
    """``call(*args)`` on a thread: its result or exception, or a test
    failure — instead of a hung suite — if it takes too long."""
    outcome: list = []

    def run() -> None:
        try:
            outcome.append((call(*args), None))
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome.append((None, error))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"{call} still blocked after {seconds} s"
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


def ask(worker, *message):
    worker.send(message)
    return worker.recv()


def kill(worker) -> None:
    os.kill(worker.pid, signal.SIGKILL)
    worker.process.join(10)
    assert worker.process.exitcode == -signal.SIGKILL


class TestFraming:
    def test_plain_data_round_trips(self, worker):
        message = {"links": [("host", 3, "http://a/b", 1, 0)],
                   "score": 0.25, "flags": (True, None), "text": "é" * 9}
        assert ask(worker, "echo", message) == message

    def test_replies_come_back_in_send_order(self, worker):
        for index in range(3):
            worker.send(("echo", index))
        assert [worker.recv() for _ in range(3)] == [0, 1, 2]

    def test_a_message_marshal_cannot_frame_is_the_callers_error(
            self, worker):
        with pytest.raises(ValueError):
            worker.send(("echo", object()))
        assert ask(worker, "echo", "still up") == "still up"

    def test_inline_twin_parks_on_send_and_runs_on_recv(self):
        calls: list = []

        def make_handler():
            def handle(message):
                calls.append(message)
                return message * 2
            return handle

        inline = InlineWorker(make_handler)
        inline.send(21)
        assert calls == []
        assert inline.recv() == 42
        assert calls == [21]
        inline.stop()

    def test_inline_handler_errors_propagate_as_themselves(self):
        inline = InlineWorker(toy_handler)
        inline.send(("nope",))
        with pytest.raises(RuntimeError, match="nope"):
            inline.recv()


class TestWorkerDeathMatrix:
    """Each death surfaces as ``WorkerDied`` from the next exchange —
    at the latest the one after a reply that was already in the pipe —
    and ``stop()`` afterwards leaves no live child (the fixture
    checks)."""

    @staticmethod
    def assert_dead(worker) -> None:
        with pytest.raises(WorkerDied, match="toy-worker"):
            within(10, ask, worker, "echo", 1)
        with pytest.raises(WorkerDied):
            within(10, ask, worker, "echo", 2)

    def test_sigkill_while_idle(self, worker):
        assert ask(worker, "echo", "up") == "up"
        kill(worker)
        self.assert_dead(worker)

    def test_sigkill_mid_command(self, worker):
        assert ask(worker, "echo", "up") == "up"
        worker.send(("sleep", 300))
        time.sleep(0.05)
        kill(worker)
        with pytest.raises(WorkerDied):
            within(10, worker.recv)
        self.assert_dead(worker)

    def test_sigkill_between_send_and_recv(self, worker):
        assert ask(worker, "echo", "up") == "up"
        worker.send(("echo", "made it"))
        time.sleep(0.2)  # the reply is (almost surely) in the pipe
        kill(worker)
        try:
            assert within(10, worker.recv) == "made it"
        except WorkerDied:
            pass  # a slow box: killed before it answered
        self.assert_dead(worker)

    def test_handler_that_raises(self, worker):
        worker.send(("nope",))
        with pytest.raises(WorkerDied):
            within(10, worker.recv)
        worker.process.join(10)
        assert worker.process.exitcode == 1
        self.assert_dead(worker)

    def test_stop_is_idempotent_and_safe_after_death(self, worker):
        kill(worker)
        with pytest.raises(WorkerDied):
            ask(worker, "echo", 1)
        within(5, worker.stop)
        within(5, worker.stop)
        with pytest.raises(WorkerDied):
            worker.send(("echo", 1))


class TestStopNeverStalls:
    @staticmethod
    def assert_leaves_on_its_own(worker) -> None:
        started = time.monotonic()
        worker.stop()
        assert time.monotonic() - started < 2.0
        assert worker.process.exitcode is not None
        assert worker.process.exitcode != -signal.SIGTERM

    def test_child_blocked_writing_an_unread_reply(self):
        worker = ForkedWorker(toy_handler, "toy-worker")
        assert ask(worker, "echo", "up") == "up"
        worker.send(("big", BIG))
        time.sleep(0.3)  # the child is now blocked in its send
        self.assert_leaves_on_its_own(worker)

    def test_also_with_a_later_sibling_alive(self):
        """A sibling forked afterwards inherited our end of the first
        worker's pipe; unless it dropped it, closing ours reaches
        nobody."""
        first = ForkedWorker(toy_handler, "toy-worker-0")
        second = ForkedWorker(toy_handler, "toy-worker-1")
        try:
            assert ask(first, "echo", "up") == "up"
            assert ask(second, "echo", "up") == "up"
            first.send(("big", BIG))
            time.sleep(0.3)
            self.assert_leaves_on_its_own(first)
            assert ask(second, "echo", "fine") == "fine"
        finally:
            first.stop()
            second.stop()

    def test_idle_child_exits_on_the_stop_frame(self, worker):
        assert ask(worker, "echo", 1) == 1
        self.assert_leaves_on_its_own(worker)
        assert worker.process.exitcode == 0


class TestFrozenHeap:
    @pytest.fixture(autouse=True)
    def gc_state(self):
        was_enabled = gc.isenabled()
        assert workers_module._holders == 0
        yield
        assert workers_module._holders == 0
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == was_enabled

    def test_only_the_outermost_exit_thaws(self):
        with frozen_heap():
            assert gc.get_freeze_count() > 0
            with frozen_heap():
                with frozen_heap():
                    pass
                assert gc.get_freeze_count() > 0
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_holders_may_leave_in_any_order(self):
        """An engine and a crawl pool in one process: whoever closes
        first must not thaw the other's heap."""
        first, second = frozen_heap(), frozen_heap()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert gc.get_freeze_count() > 0
        second.__exit__(None, None, None)
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("enabled_before", [True, False])
    def test_every_exit_restores_automatic_gc(self, enabled_before):
        was_enabled = gc.isenabled()
        (gc.enable if enabled_before else gc.disable)()
        try:
            with frozen_heap():
                gc.disable()
                with frozen_heap():
                    gc.enable()
                assert not gc.isenabled()
            assert gc.isenabled() == enabled_before
            with pytest.raises(KeyError):
                with frozen_heap():
                    gc.disable() if enabled_before else gc.enable()
                    raise KeyError("inside the block")
            assert gc.isenabled() == enabled_before
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_a_forked_child_inherits_the_hold_and_never_thaws(self):
        """The nested case of a crawl pool inside a shard child: the
        child's regime is a hold of its own, so a ``frozen_heap`` block
        opened and closed inside the child leaves its heap frozen."""
        def make_handler():
            def handle(_message):
                before = gc.get_freeze_count()
                with frozen_heap():
                    pass
                return (before > 0, gc.get_freeze_count() > 0,
                        gc.isenabled())
            return handle

        worker = ForkedWorker(make_handler, "toy-worker")
        try:
            assert ask(worker, "probe") == (True, True, False)
        finally:
            worker.stop()


volumes_strategy = st.lists(st.integers(min_value=0, max_value=400_000),
                            max_size=300)
count_target_strategy = st.integers(min_value=1, max_value=80)
volume_target_strategy = st.integers(min_value=1, max_value=500_000)


class TestChunkRule:
    """The four properties both clients depend on (the crawl pool cuts
    page chunks by bytes, the serve coalescer request batches by
    tokens)."""

    @given(volumes=volumes_strategy, count_target=count_target_strategy,
           volume_target=volume_target_strategy)
    @settings(max_examples=200, deadline=None)
    def test_contiguous_order_preserving_exact_cover(
            self, volumes, count_target, volume_target):
        bounds = ChunkRule(count_target, volume_target).bounds(volumes)
        if not volumes:
            assert bounds == []
            return
        # Exact cover, in order, no gaps, no overlaps, no empty chunks.
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(volumes)
        for start, end in bounds:
            assert start < end
        for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
            assert start == prev_end

    @given(volumes=volumes_strategy, count_target=count_target_strategy,
           volume_target=volume_target_strategy)
    @settings(max_examples=200, deadline=None)
    def test_chunks_respect_count_and_volume_targets(
            self, volumes, count_target, volume_target):
        rule = ChunkRule(count_target, volume_target)
        for start, end in rule.bounds(volumes):
            assert end - start <= count_target
            # A chunk may only exceed the volume target by its final
            # (closing) item; every proper prefix stays under it.
            assert sum(volumes[start:end - 1]) < volume_target

    @given(volumes=volumes_strategy, count_target=count_target_strategy,
           volume_target=volume_target_strategy)
    @settings(max_examples=200, deadline=None)
    def test_streaming_add_matches_offline_bounds(
            self, volumes, count_target, volume_target):
        rule = ChunkRule(count_target, volume_target)
        bounds = rule.bounds(volumes)
        streaming: list[tuple[int, int]] = []
        start = 0
        for index, volume in enumerate(volumes):
            if rule.add(volume):
                streaming.append((start, index + 1))
                start = index + 1
        if start < len(volumes):
            streaming.append((start, len(volumes)))
        assert streaming == bounds
        # first() is the head of the same cut, without cutting the rest.
        rule.reset()
        assert rule.first(iter(volumes)) == (bounds[0][1] if bounds else 0)

    @given(volumes=volumes_strategy, count_target=count_target_strategy,
           volume_target=volume_target_strategy)
    @settings(max_examples=100, deadline=None)
    def test_cut_is_deterministic(self, volumes, count_target,
                                  volume_target):
        rule = ChunkRule(count_target, volume_target)
        assert rule.bounds(volumes) == rule.bounds(list(volumes)) == \
            ChunkRule(count_target, volume_target).bounds(volumes)

    def test_share_splits_the_queue_across_lanes_and_clamps(self):
        # ceil(total / (lanes * PIPELINE_DEPTH)), clamped to the band.
        assert ChunkRule.share(40, 2, 8, 64) == 10
        assert ChunkRule.share(41, 2, 8, 64) == 11
        assert ChunkRule.share(4, 1, 8, 64) == 8
        assert ChunkRule.share(10_000, 1, 8, 64) == 64
        with pytest.raises(ValueError):
            ChunkRule.share(40, 0, 8, 64)

    def test_targets_must_be_positive(self):
        with pytest.raises(ValueError):
            ChunkRule(0, 10)
        with pytest.raises(ValueError):
            ChunkRule(10, 0)
