"""Property tests for the serve-layer batching policy and coalescer.

The coalescer is the serve layer's ChunkPlanner: the boundaries the
policy cuts into a queued request stream must be a pure function of
the stream, so the same invariants are asserted — contiguous,
order-preserving, exact-cover partitions, and identical boundaries
whether the policy runs streaming or offline.  The queue itself is
work-conserving: ``take`` never waits on a clock, only on an empty
queue.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.coalescer import (
    BatchPolicy, PendingRequest, RequestCoalescer,
)

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


class TestBatchPolicyPartition:
    @given(tokens=tokens_strategy, max_requests=max_requests_strategy,
           token_target=token_target_strategy)
    @settings(max_examples=200, deadline=None)
    def test_contiguous_order_preserving_exact_cover(
            self, tokens, max_requests, token_target):
        policy = BatchPolicy(max_requests=max_requests,
                             token_target=token_target)
        bounds = policy.plan(tokens)
        if not tokens:
            assert bounds == []
            return
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(tokens)
        for start, end in bounds:
            assert start < end
        for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
            assert start == prev_end

    @given(tokens=tokens_strategy, max_requests=max_requests_strategy,
           token_target=token_target_strategy)
    @settings(max_examples=200, deadline=None)
    def test_batches_respect_request_and_token_caps(
            self, tokens, max_requests, token_target):
        policy = BatchPolicy(max_requests=max_requests,
                             token_target=token_target)
        for start, end in policy.plan(tokens):
            assert end - start <= max_requests
            # A batch may only exceed the token target by its final
            # (closing) request; every proper prefix stays under it.
            assert sum(tokens[start:end - 1]) < token_target

    @given(tokens=tokens_strategy, max_requests=max_requests_strategy,
           token_target=token_target_strategy)
    @settings(max_examples=200, deadline=None)
    def test_streaming_add_matches_offline_plan(
            self, tokens, max_requests, token_target):
        policy = BatchPolicy(max_requests=max_requests,
                             token_target=token_target)
        bounds = policy.plan(tokens)
        streaming: list[tuple[int, int]] = []
        start = 0
        for index, count in enumerate(tokens):
            if policy.add(count):
                streaming.append((start, index + 1))
                start = index + 1
        if start < len(tokens):
            streaming.append((start, len(tokens)))
        policy.reset()
        assert streaming == bounds

    @given(tokens=tokens_strategy, max_requests=max_requests_strategy,
           token_target=token_target_strategy)
    @settings(max_examples=100, deadline=None)
    def test_plan_is_deterministic(self, tokens, max_requests,
                                   token_target):
        policy = BatchPolicy(max_requests=max_requests,
                             token_target=token_target)
        assert policy.plan(tokens) == policy.plan(tokens)


class TestBatchPolicyConfig:
    def test_for_config_mirrors_chunk_planner_rule(self):
        policy = BatchPolicy.for_config(workers=2, queue_limit=256)
        # ceil(256 / (2 * PIPELINE_DEPTH)) = 64, clamped to MAX.
        assert policy.max_requests == BatchPolicy.MAX_REQUESTS

    def test_for_config_clamps_to_bounds(self):
        tiny = BatchPolicy.for_config(workers=8, queue_limit=1)
        assert tiny.max_requests == BatchPolicy.MIN_REQUESTS
        huge = BatchPolicy.for_config(workers=1, queue_limit=10_000)
        assert huge.max_requests == BatchPolicy.MAX_REQUESTS

    def test_for_config_workers_zero_counts_one_dispatcher(self):
        inline = BatchPolicy.for_config(workers=0, queue_limit=64)
        assert inline.max_requests == \
            BatchPolicy.for_config(workers=1, queue_limit=64).max_requests

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_requests=0)


def _ids(batch) -> list[str]:
    return [pending.request_id for pending in batch]


class TestRequestCoalescer:
    def test_take_closes_on_size(self):
        coalescer = RequestCoalescer(BatchPolicy(max_requests=3),
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
        coalescer = RequestCoalescer(BatchPolicy(max_requests=100),
                                     clock=FakeClock())
        coalescer.submit(_pending(1, 0))
        assert _ids(coalescer.take()) == ["r0"]
        assert coalescer.take(block=False) is None

    def test_take_on_empty_queue_blocks_until_submit(self):
        coalescer = RequestCoalescer(BatchPolicy(max_requests=100),
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
        as the batches ``BatchPolicy.plan`` cuts from the same
        stream."""
        policy = BatchPolicy(max_requests=max_requests,
                             token_target=token_target)
        coalescer = RequestCoalescer(policy, clock=FakeClock())
        for index, count in enumerate(tokens):
            coalescer.submit(_pending(count, index))
        taken = []
        while (batch := coalescer.take(block=False)) is not None:
            taken.append(_ids(batch))
        expected = [[f"r{index}" for index in range(start, end)]
                    for start, end in BatchPolicy(
                        max_requests=max_requests,
                        token_target=token_target).plan(tokens)]
        assert taken == expected

    def test_token_target_closes_batch(self):
        coalescer = RequestCoalescer(
            BatchPolicy(max_requests=100, token_target=10),
            clock=FakeClock())
        coalescer.submit(_pending(6, 0))
        coalescer.submit(_pending(6, 1))
        coalescer.submit(_pending(1, 2))
        assert _ids(coalescer.take()) == ["r0", "r1"]

    def test_close_drains_then_returns_none(self):
        coalescer = RequestCoalescer(BatchPolicy(max_requests=100),
                                     clock=FakeClock())
        coalescer.submit(_pending(1, 0))
        coalescer.close()
        assert _ids(coalescer.take()) == ["r0"]
        assert coalescer.take() is None
        with pytest.raises(RuntimeError):
            coalescer.submit(_pending(1, 1))

    def test_submit_refuses_at_limit(self):
        coalescer = RequestCoalescer(BatchPolicy(max_requests=100))
        assert coalescer.submit(_pending(1, 0), limit=2)
        assert coalescer.submit(_pending(1, 1), limit=2)
        assert not coalescer.submit(_pending(1, 2), limit=2)
        assert coalescer.depth == 2
        assert _ids(coalescer.take()) == ["r0", "r1"]
        assert coalescer.submit(_pending(1, 3), limit=2)

    def test_concurrent_takers_partition_the_stream(self):
        coalescer = RequestCoalescer(BatchPolicy(max_requests=5))
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
