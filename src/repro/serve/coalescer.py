"""Request coalescing: the serve layer's batching mechanism.

Concurrent requests queue here; dispatcher threads pull *batches* that
feed the batch kernels (``tag_batch`` / ``predict_words``) as a unit,
so per-request call overhead — kernel entry, worker IPC round-trip,
thread wakeups — amortizes across the batch.

Two parts, separable for testing:

* :class:`BatchPolicy` — the deterministic cutting rule, mirroring the
  crawl executor's ``ChunkPlanner``: a batch is cut when it reaches a
  request target or a token target, whichever comes first, both
  computed from configuration only (never from timing).  The
  size/token boundaries a queued request stream produces are
  therefore a pure function of the stream (property-tested:
  contiguous, exact-cover, identical streaming vs. offline).
* :class:`RequestCoalescer` — the thread-safe queue applying the
  policy, work-conserving: a dispatcher that asks for a batch gets
  what is queued *now*, cut by the policy's targets.  There is no
  timer — the only timing input is when a dispatcher frees up, so
  batches grow exactly when workers are busy and an idle server adds
  no wait.  Multiple dispatchers may pull concurrently; each batch is
  a contiguous slice of the arrival order.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Sequence


class BatchPolicy:
    """Deterministic batch-cutting rule (size/token targets).

    The request target splits the admission queue across
    ``workers * PIPELINE_DEPTH`` batches — each worker sees a couple
    of batches' worth of queue even at full depth, so one giant batch
    never serializes a drained queue behind a single decode — bounded
    to [``MIN_REQUESTS``, ``MAX_REQUESTS``].  The token target keeps a
    run of oversized requests from ballooning one batch's latency.
    Both inputs are configuration, so the same request stream always
    partitions identically (the ChunkPlanner rule, applied to
    requests).
    """

    #: Batches a dispatcher should see per full admission queue.
    PIPELINE_DEPTH = 2
    MIN_REQUESTS = 1
    MAX_REQUESTS = 64
    TOKEN_TARGET = 4096

    def __init__(self, max_requests: int = 32,
                 token_target: int | None = None) -> None:
        if max_requests < 1:
            raise ValueError("BatchPolicy needs max_requests >= 1")
        self.max_requests = max_requests
        self.token_target = token_target or self.TOKEN_TARGET
        self._requests = 0
        self._tokens = 0

    @classmethod
    def for_config(cls, workers: int, queue_limit: int,
                   token_target: int | None = None) -> "BatchPolicy":
        """Derive the request target from serve configuration, the way
        ``ChunkPlanner`` derives its page target from the crawl's."""
        dispatchers = max(1, workers)
        target = -(-queue_limit // (dispatchers * cls.PIPELINE_DEPTH))
        target = max(cls.MIN_REQUESTS, min(cls.MAX_REQUESTS, target))
        return cls(max_requests=target, token_target=token_target)

    def add(self, tokens: int) -> bool:
        """Account one request; True means "close the batch now"."""
        self._requests += 1
        self._tokens += tokens
        if (self._requests >= self.max_requests
                or self._tokens >= self.token_target):
            self.reset()
            return True
        return False

    def reset(self) -> None:
        self._requests = 0
        self._tokens = 0

    def plan(self, token_counts: Sequence[int]) -> list[tuple[int, int]]:
        """Offline partition of a request stream by token counts.

        Returns ``[(start, end), ...]`` half-open ranges that are
        contiguous, order-preserving, and exactly cover
        ``range(len(token_counts))`` — the same boundaries the
        streaming :meth:`add` produces fed one request at a time
        (property-tested, like ``adaptive_chunks``).
        """
        self.reset()
        bounds: list[tuple[int, int]] = []
        start = 0
        for index, tokens in enumerate(token_counts):
            if self.add(tokens):
                bounds.append((start, index + 1))
                start = index + 1
        if start < len(token_counts):
            bounds.append((start, len(token_counts)))
        self.reset()
        return bounds

    def cut(self, token_counts: Iterable[int]) -> int:
        """Length of the first batch of a queued stream: up to and
        including the request that reaches a target, else all of it
        (``plan(counts)[0][1]`` without planning the rest)."""
        self.reset()
        count = 0
        for tokens in token_counts:
            count += 1
            if self.add(tokens):
                break
        self.reset()
        return count


class PendingRequest:
    """One admitted request travelling through the batch engine.

    Carries the response back to the submitter: ``deliver`` stores the
    response dict, fires the optional callback (the socket writer),
    and wakes anyone blocked in ``wait``.  ``stream`` (any object with
    ``send_message``/``send_raw``) lets the engine gather a batch's
    responses into one write per connection instead of calling a
    per-response callback.
    """

    __slots__ = ("request_id", "op", "text", "tenant", "tokens",
                 "enqueued_at", "on_done", "stream", "response",
                 "_event")

    def __init__(self, request_id: str, op: str, text: str,
                 tenant: str = "default", tokens: int = 0,
                 enqueued_at: float = 0.0,
                 on_done: Callable[[dict], None] | None = None,
                 stream=None) -> None:
        self.request_id = request_id
        self.op = op
        self.text = text
        self.tenant = tenant
        self.tokens = tokens
        self.enqueued_at = enqueued_at
        self.on_done = on_done
        self.stream = stream
        self.response: dict | None = None
        self._event = threading.Event()

    def deliver(self, response: dict) -> None:
        self.response = response
        self._event.set()
        if self.on_done is not None:
            self.on_done(response)

    def wait(self, timeout: float | None = None) -> dict | None:
        """Block until delivered; the response dict, or None on
        timeout."""
        if not self._event.wait(timeout):
            return None
        return self.response


class RequestCoalescer:
    """Thread-safe, work-conserving batching queue.

    ``submit`` never blocks: it admits the request or, with the queue
    at ``limit``, refuses it — one critical section, so concurrent
    submitters cannot overshoot the bound.  ``take`` blocks only while
    the queue is empty; otherwise it returns at once with what is
    queued, cut by the :class:`BatchPolicy`.  After :meth:`close`,
    ``take`` drains what's queued and then returns None to each
    caller.
    """

    def __init__(self, policy: BatchPolicy,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: list[PendingRequest] = []
        self._closed = False

    @property
    def depth(self) -> int:
        """Requests currently queued."""
        with self._cond:
            return len(self._queue)

    def submit(self, pending: PendingRequest,
               limit: int | None = None) -> bool:
        """Queue one request; False (nothing queued) when ``limit``
        requests are already waiting."""
        with self._cond:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if limit is not None and len(self._queue) >= limit:
                return False
            pending.enqueued_at = self._clock()
            self._queue.append(pending)
            self._cond.notify()
            return True

    def close(self) -> None:
        """Stop accepting; wake every ``take`` to drain and exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def take(self, block: bool = True) -> list[PendingRequest] | None:
        """The next batch: the head of what is queued right now (a
        contiguous slice of arrival order, cut by the policy).

        On an empty queue a blocking take waits for a ``submit`` and
        returns None once closed; ``block=False`` returns None at
        once, which is how a busy dispatcher asks "is anything
        waiting?" without stalling.
        """
        with self._cond:
            while not self._queue:
                if self._closed or not block:
                    return None
                self._cond.wait()
            count = self.policy.cut(
                pending.tokens for pending in self._queue)
            batch = self._queue[:count]
            del self._queue[:count]
            return batch
