"""Request coalescing: the serve layer's batching mechanism.

Concurrent requests queue here; dispatcher threads pull *batches* that
feed the batch kernels (``tag_batch`` / ``predict_words``) as a unit,
so per-request call overhead — kernel entry, worker IPC round-trip,
thread wakeups — amortizes across the batch.

:class:`RequestCoalescer` is the thread-safe queue; the cutting rule
is a :class:`repro.workers.ChunkRule` over request and token counts
(:meth:`~repro.serve.server.ServeConfig.policy` derives its targets
from configuration only, never from timing), so the boundaries a
queued request stream produces are a pure function of the stream.  The
queue is work-conserving: a dispatcher that asks for a batch gets what
is queued *now*, cut by the rule.  There is no timer — the only timing
input is when a dispatcher frees up, so batches grow exactly when
workers are busy and an idle server adds no wait.  Multiple
dispatchers may pull concurrently; each batch is a contiguous slice of
the arrival order.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.workers import ChunkRule


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
    queued, cut by the policy.  After :meth:`close`,
    ``take`` drains what's queued and then returns None to each
    caller.
    """

    def __init__(self, policy: ChunkRule,
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
            count = self.policy.first(
                pending.tokens for pending in self._queue)
            batch = self._queue[:count]
            del self._queue[:count]
            return batch
