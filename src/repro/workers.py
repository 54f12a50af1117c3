"""Worker processes: the one place this package forks.

The paper's war story (Section 4.2) is physical execution — every
worker re-paying tool start-up, parallelism capped by per-worker
memory.  The answer here is the same for every client: **warm** the
models in the parent, hold :func:`frozen_heap` so the cycle collector
never touches (and never copy-on-write-faults) them again, **fork**,
and ship only plain data (``marshal`` frames) over a pipe.  The child
runs :func:`child_gc_regime` — collect, freeze, automatic gc off —
once its own long-lived state is built, and collects explicitly on
whatever cadence its handler chooses.  docs/performance.md ("Worker
processes") has the contract and the table of clients; beside the
workers sits :class:`ChunkRule`, the one deterministic rule their
schedulers cut work with.
"""

from __future__ import annotations

import gc
import marshal
import multiprocessing
import multiprocessing.util
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Sequence

#: How long :meth:`ForkedWorker.stop` waits for the child to exit on
#: its own, and again after SIGTERM.
STOP_TIMEOUT = 10.0

#: Chunks each lane should see per unit of queued work
#: (:meth:`ChunkRule.share`): the tail of a skewed batch still
#: balances, and one giant chunk never serializes a drained queue.
PIPELINE_DEPTH = 2


# -- fork availability ---------------------------------------------------------

def fork_start_available() -> bool:
    """Whether fork-based workers can be used here.

    Forked workers inherit the (closure-carrying, hence unpicklable)
    models and operator chains; spawn-only platforms (Windows, and any
    interpreter whose start method has been pinned to
    spawn/forkserver) cannot run them and must degrade.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    # A globally pinned non-fork start method signals fork is unsafe
    # or unwanted on this platform; ``allow_none`` avoids fixing the
    # default as a side effect of asking.
    method = multiprocessing.get_start_method(allow_none=True)
    return method is None or method == "fork"


def can_fork(what: str, fallback: str) -> bool:
    """:func:`fork_start_available`, warning once — that ``what``
    falls back to ``fallback`` — when it is not."""
    if fork_start_available():
        return True
    warnings.warn(
        f"{what} needs the 'fork' multiprocessing start method, which "
        "this platform/configuration does not provide; falling back "
        f"to {fallback}", RuntimeWarning, stacklevel=3)
    return False


# -- the gc freeze -------------------------------------------------------------
#
# ``gc.freeze`` is process-global, so its holders are counted here:
# whoever leaves first must not thaw a heap somebody else still holds
# (an engine and a crawl pool in one process; a crawl pool inside a
# shard child).  A forked child inherits the count with the heap.

_holders = 0


@contextmanager
def frozen_heap():
    """Hold everything allocated so far in gc's permanent generation.

    Re-entrant: the first entry collects and freezes, and only the
    outermost exit unfreezes.  Every exit puts automatic gc back the
    way its entry found it (a holder may switch it off inside).  Fork
    under it and the children share the frozen pages.
    """
    global _holders
    was_enabled = gc.isenabled()
    if _holders == 0:
        gc.collect()
        gc.freeze()
    _holders += 1
    try:
        yield
    finally:
        _holders -= 1
        if _holders == 0:
            gc.unfreeze()
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def child_gc_regime() -> None:
    """What a forked child does once its long-lived state is built:
    collect, freeze — for good, a child never thaws — and switch
    automatic gc off.  Threshold-triggered collections fire at
    allocation-dependent moments and cost far more than an explicit
    ``gc.collect()`` at a boundary the child's own work defines, which
    only traverses what was allocated since."""
    global _holders
    _holders += 1
    gc.collect()
    gc.freeze()
    gc.disable()


# -- one dedicated worker ------------------------------------------------------

class WorkerDied(RuntimeError):
    """The worker's process is gone; raised by ``send`` / ``recv``."""


class ForkedWorker:
    """Parent-side handle of one forked worker process.

    ``make_handler()`` runs in the child, on the heap the fork
    inherited, and returns ``handle(message) -> reply``; the child then
    enters :func:`child_gc_regime` and answers exactly one reply per
    message, both marshal frames of plain data.  ``send`` returns once
    the message is written and ``recv`` blocks for the oldest unread
    reply, so a message sent while the child still computes starts the
    moment the child is free.  A handler that raises takes the child
    down with its traceback; that, like any other death, is a
    :class:`WorkerDied` from the next ``send`` or ``recv``.
    """

    def __init__(self, make_handler: Callable[[], Callable[[Any], Any]],
                 name: str) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        # Any process forked from here on inherits our end of the pipe
        # and must drop it — the worker itself, or it would never see
        # EOF when we go; a later sibling, or closing our end in stop()
        # would not reach a worker blocked writing.
        multiprocessing.util.register_after_fork(
            self, lambda worker: worker._conn.close())
        self.process = context.Process(
            target=_serve_frames, args=(child_conn, make_handler),
            name=name, daemon=True)
        self.process.start()
        child_conn.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def send(self, message: Any) -> None:
        frame = marshal.dumps(message)
        try:
            self._conn.send_bytes(frame)
        except OSError as error:
            raise self._died(error) from error

    def recv(self) -> Any:
        try:
            frame = self._conn.recv_bytes()
        except (EOFError, OSError) as error:
            raise self._died(error) from error
        return marshal.loads(frame)

    def _died(self, error: Exception) -> WorkerDied:
        return WorkerDied(
            f"{self.process.name} (pid {self.process.pid}) is gone: "
            f"{type(error).__name__}: {error}")

    def stop(self) -> None:
        """Ask the child to exit and reap it; idempotent, and safe
        after :class:`WorkerDied`.  Our end closes *before* the join:
        a child blocked writing a reply nobody will read gets a broken
        pipe and leaves on its own instead of sitting out the timeout."""
        if not self._conn.closed:
            try:
                self._conn.send_bytes(b"")
            except OSError:
                pass
            self._conn.close()
        self.process.join(STOP_TIMEOUT)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(STOP_TIMEOUT)


def _serve_frames(conn, make_handler) -> None:
    """Child loop: one reply per message until the empty stop frame or
    the parent's end closes."""
    handle = make_handler()
    child_gc_regime()
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if not frame:
            break
        reply = marshal.dumps(handle(marshal.loads(frame)))
        try:
            conn.send_bytes(reply)
        except OSError:
            break
    conn.close()


class InlineWorker:
    """:class:`ForkedWorker`'s interface with the handler run in this
    process: ``send`` only parks the message and ``recv`` runs it, so a
    driver loop is the same loop minus the overlap.  No frames, no gc
    regime; a handler's exception propagates from ``recv`` as itself."""

    def __init__(self, make_handler: Callable[[], Callable[[Any], Any]],
                 ) -> None:
        self._handle = make_handler()
        self._parked: Any = None

    def send(self, message: Any) -> None:
        self._parked = message

    def recv(self) -> Any:
        return self._handle(self._parked)

    def stop(self) -> None:
        pass


# -- the chunk rule ------------------------------------------------------------

class ChunkRule:
    """Cuts a stream into contiguous, order-preserving chunks.

    A chunk closes at the item that brings it to ``count_target``
    items or ``volume_target`` units of volume (bytes, tokens),
    whichever comes first — so a run of oversized items cannot
    serialize into one chunk.  Both targets are configuration, never
    timing: the same stream always cuts the same way, fed one item at
    a time (:meth:`add`) or all at once (:meth:`bounds`).
    """

    def __init__(self, count_target: int, volume_target: int) -> None:
        if count_target < 1 or volume_target < 1:
            raise ValueError("ChunkRule targets must be >= 1")
        self.count_target = count_target
        self.volume_target = volume_target
        self._count = 0
        self._volume = 0

    @staticmethod
    def share(total: int, lanes: int, low: int, high: int) -> int:
        """The count target that splits ``total`` queued items into
        :data:`PIPELINE_DEPTH` chunks for each of ``lanes`` workers,
        clamped to [``low``, ``high``]."""
        if lanes < 1:
            raise ValueError("ChunkRule.share needs at least 1 lane")
        return max(low, min(high, -(-total // (lanes * PIPELINE_DEPTH))))

    def add(self, volume: int) -> bool:
        """Account one item; True means "close the chunk now"."""
        self._count += 1
        self._volume += volume
        if (self._count >= self.count_target
                or self._volume >= self.volume_target):
            self.reset()
            return True
        return False

    def reset(self) -> None:
        self._count = 0
        self._volume = 0

    def bounds(self, volumes: Sequence[int]) -> list[tuple[int, int]]:
        """Offline cut of a whole stream: ``[(start, end), ...]``
        half-open ranges exactly covering ``range(len(volumes))`` —
        the boundaries :meth:`add` produces fed one item at a time."""
        bounds: list[tuple[int, int]] = []
        start = 0
        while start < len(volumes):
            end = start + self.first(volumes[start:])
            bounds.append((start, end))
            start = end
        return bounds

    def first(self, volumes: Iterable[int]) -> int:
        """Length of the first chunk of a queued stream: up to and
        including the item that reaches a target, else all of it."""
        self.reset()
        count = 0
        for volume in volumes:
            count += 1
            if self.add(volume):
                break
        self.reset()
        return count


# -- the task pool -------------------------------------------------------------

def fork_pool(processes: int,
              initializer: Callable[[], None] | None = None):
    """A fork-context ``multiprocessing.Pool``: task workers that
    inherit whatever module state the caller set just before."""
    return multiprocessing.get_context("fork").Pool(
        processes=processes, initializer=initializer)
