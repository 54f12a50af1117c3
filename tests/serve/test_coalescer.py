"""The serve layer's batch-target derivation, and the coalescer.

The cutting rule — contiguous exact cover, targets respected,
streaming ≡ offline, deterministic — is property-tested once, on
:class:`repro.workers.ChunkRule` (``tests/test_workers.py``).  Here:
how :meth:`ServeConfig.policy` derives the request target from
``queue_limit`` / ``max_batch``, and that the queue applies the rule —
the boundaries it cuts into a queued request stream are the rule's
offline ones.  The queue itself is work-conserving: ``take`` never
waits on a clock, only on an empty queue.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.coalescer import PendingRequest, RequestCoalescer
from repro.serve.server import (
    MAX_REQUESTS, MIN_REQUESTS, TOKEN_TARGET, ServeConfig,
)
from repro.workers import ChunkRule

tokens_strategy = st.lists(st.integers(min_value=0, max_value=5_000),
                           max_size=300)
max_requests_strategy = st.integers(min_value=1, max_value=80)
token_target_strategy = st.integers(min_value=1, max_value=20_000)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _pending(tokens: int, index: int = 0) -> PendingRequest:
    return PendingRequest(request_id=f"r{index}", op="classify",
                          text="x", tokens=tokens)


def _target(**config) -> int:
    return ServeConfig(max_batch=1_000, **config).policy().count_target


class TestBatchPolicyConfig:
    """``ServeConfig.policy()`` (the class name predates it)."""

    def test_for_config_mirrors_chunk_planner_rule(self):
        # ceil(256 / (2 * PIPELINE_DEPTH)) = 64, clamped to MAX.
        assert _target(workers=2, queue_limit=256) == MAX_REQUESTS
        assert _target(workers=2, queue_limit=100) == 25
        assert ServeConfig().policy().volume_target == TOKEN_TARGET

    def test_for_config_clamps_to_bounds(self):
        assert _target(workers=8, queue_limit=1) == MIN_REQUESTS
        assert _target(workers=1, queue_limit=10_000) == MAX_REQUESTS
        # --max-batch caps whatever the queue would allow.
        assert ServeConfig(workers=1, queue_limit=10_000,
                           max_batch=8).policy().count_target == 8

    def test_for_config_workers_zero_counts_one_dispatcher(self):
        assert _target(workers=0, queue_limit=64) == \
            _target(workers=1, queue_limit=64)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0).policy()


def _ids(batch) -> list[str]:
    return [pending.request_id for pending in batch]


class TestRequestCoalescer:
    def test_take_closes_on_size(self):
        coalescer = RequestCoalescer(ChunkRule(3, TOKEN_TARGET),
                                     clock=FakeClock())
        for index in range(7):
            coalescer.submit(_pending(1, index))
        assert _ids(coalescer.take()) == ["r0", "r1", "r2"]
        assert _ids(coalescer.take()) == ["r3", "r4", "r5"]
        assert coalescer.depth == 1

    def test_zero_delay_closes_immediately(self):
        # Work-conserving: with a clock that never advances, a lone
        # request on an idle coalescer comes straight out — nothing
        # waits for company or for time to pass.
        coalescer = RequestCoalescer(ChunkRule(100, TOKEN_TARGET),
                                     clock=FakeClock())
        coalescer.submit(_pending(1, 0))
        assert _ids(coalescer.take()) == ["r0"]
        assert coalescer.take(block=False) is None

    def test_take_on_empty_queue_blocks_until_submit(self):
        coalescer = RequestCoalescer(ChunkRule(100, TOKEN_TARGET),
                                     clock=FakeClock())
        result: list = []
        thread = threading.Thread(
            target=lambda: result.append(coalescer.take()))
        thread.start()
        thread.join(timeout=0.1)
        assert thread.is_alive(), "nothing queued: take must block"
        coalescer.submit(_pending(1, 0))
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert _ids(result[0]) == ["r0"]

    @given(tokens=tokens_strategy, max_requests=max_requests_strategy,
           token_target=token_target_strategy)
    @settings(max_examples=100, deadline=None)
    def test_backlog_is_cut_exactly_as_the_offline_plan(
            self, tokens, max_requests, token_target):
        """Requests that queue while the dispatcher is busy come out
        as the batches ``ChunkRule.bounds`` cuts from the same
        stream."""
        coalescer = RequestCoalescer(
            ChunkRule(max_requests, token_target), clock=FakeClock())
        for index, count in enumerate(tokens):
            coalescer.submit(_pending(count, index))
        taken = []
        while (batch := coalescer.take(block=False)) is not None:
            taken.append(_ids(batch))
        expected = [[f"r{index}" for index in range(start, end)]
                    for start, end in ChunkRule(
                        max_requests, token_target).bounds(tokens)]
        assert taken == expected

    def test_token_target_closes_batch(self):
        coalescer = RequestCoalescer(
            ChunkRule(100, 10),
            clock=FakeClock())
        coalescer.submit(_pending(6, 0))
        coalescer.submit(_pending(6, 1))
        coalescer.submit(_pending(1, 2))
        assert _ids(coalescer.take()) == ["r0", "r1"]

    def test_close_drains_then_returns_none(self):
        coalescer = RequestCoalescer(ChunkRule(100, TOKEN_TARGET),
                                     clock=FakeClock())
        coalescer.submit(_pending(1, 0))
        coalescer.close()
        assert _ids(coalescer.take()) == ["r0"]
        assert coalescer.take() is None
        with pytest.raises(RuntimeError):
            coalescer.submit(_pending(1, 1))

    def test_submit_refuses_at_limit(self):
        coalescer = RequestCoalescer(ChunkRule(100, TOKEN_TARGET))
        assert coalescer.submit(_pending(1, 0), limit=2)
        assert coalescer.submit(_pending(1, 1), limit=2)
        assert not coalescer.submit(_pending(1, 2), limit=2)
        assert coalescer.depth == 2
        assert _ids(coalescer.take()) == ["r0", "r1"]
        assert coalescer.submit(_pending(1, 3), limit=2)

    def test_concurrent_takers_partition_the_stream(self):
        coalescer = RequestCoalescer(ChunkRule(5, TOKEN_TARGET))
        taken: list[list[str]] = []
        lock = threading.Lock()

        def taker() -> None:
            while True:
                batch = coalescer.take()
                if batch is None:
                    return
                with lock:
                    taken.append([p.request_id for p in batch])

        threads = [threading.Thread(target=taker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for index in range(200):
            coalescer.submit(_pending(1, index))
        coalescer.close()
        for thread in threads:
            thread.join(timeout=30)
        flat = [rid for batch in taken for rid in batch]
        # Every request taken exactly once; every batch contiguous in
        # arrival order.
        assert sorted(flat, key=lambda r: int(r[1:])) == \
            [f"r{i}" for i in range(200)]
        for batch in taken:
            ids = [int(rid[1:]) for rid in batch]
            assert ids == list(range(ids[0], ids[0] + len(ids)))
