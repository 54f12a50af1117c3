"""The batched extraction server: engine + socket frontend.

Two layers, separable for testing:

* :class:`BatchEngine` — admission control (bounded queue with
  retryable load-shed), per-tenant quotas, the request coalescer, and
  dispatcher threads that feed batches to COW-forked workers (or run
  them inline with ``workers=0``).  A free dispatcher takes what is
  queued now, and the loop is pipelined: the next batch is shipped to
  the worker before the previous batch's responses are encoded and
  written, so the worker computes while the parent does JSON and
  socket work.  No sockets; the hypothesis concurrency suite drives
  this layer directly.
* :class:`ExtractionServer` — a TCP frontend speaking
  :mod:`repro.serve.protocol`: one reader thread per connection,
  control ops answered inline, batch ops submitted to the engine with
  the connection's stream attached.  The engine gathers a batch's
  responses into one write per connection, so batching amortizes the
  response syscalls too, and requests pipelined on one connection
  complete out of order and in parallel.

Workers are :class:`repro.workers.ForkedWorker`\\ s (docs/performance.md,
"Worker processes"): the parent builds and
:meth:`~repro.serve.session.ExtractionSession.warm`\\ s the session,
holds ``frozen_heap()`` from ``start`` to ``stop``, and forks; batches
cross as plain tuples in, plain dicts out — nothing pickles model
state.  What this client adds is the handler (:meth:`BatchEngine._handler`:
a failed batch is answered, not fatal; the child collects every
:data:`_WORKER_GC_EVERY` batches) and the scheduling around it.

Metrics keep the obs registry's deterministic/volatile split: request
counts per op are deterministic (a fixed workload exports
byte-identically regardless of timing, batching, or worker count);
latencies, batch sizes, queue depth, shed/quota counts are volatile.
"""

from __future__ import annotations

import gc
import os
import socket
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.coalescer import PendingRequest, RequestCoalescer
from repro.serve.quotas import QuotaManager, count_tokens
from repro.serve.session import ExtractionSession
from repro.workers import (
    ChunkRule, ForkedWorker, InlineWorker, can_fork, frozen_heap,
)

#: Latency histogram buckets (seconds): finer than DEFAULT_BUCKETS in
#: the sub-100ms range where serve latencies live.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Batch-size histogram buckets (requests per batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Child workers run a full gc this often (batches); automatic gc is
#: disabled post-fork to keep the COW heap stable.
_WORKER_GC_EVERY = 64

#: A batch's request target is bounded to this band (and capped by
#: ``max_batch``) ...
MIN_REQUESTS = 1
MAX_REQUESTS = 64
#: ... and a batch closes early at this many tokens, so a run of
#: oversized requests cannot balloon one batch's latency.
TOKEN_TARGET = 4096


@dataclass
class ServeConfig:
    """Everything the server layer derives its behaviour from.

    All batching inputs are deterministic configuration.
    ``max_delay_ms`` is accepted and ignored: the coalescing deadline
    it configured is gone (a free dispatcher takes what is queued
    now), and the field survives only because ``benchmarks/e2e``
    still passes it — remove it with the next ``benchmark`` PR.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    max_batch: int = 32
    max_delay_ms: float = 10.0
    queue_limit: int = 256
    quotas: dict[str, tuple[float, float]] = field(default_factory=dict)
    default_quota: tuple[float, float] | None = None
    metrics_out: str | None = None

    def policy(self) -> ChunkRule:
        """The batch-cutting rule: the request target splits a full
        admission queue across the dispatchers, so one giant batch
        never serializes a drained queue behind a single decode."""
        target = ChunkRule.share(self.queue_limit, max(1, self.workers),
                                 MIN_REQUESTS, MAX_REQUESTS)
        return ChunkRule(min(target, self.max_batch), TOKEN_TARGET)


class BatchEngine:
    """Admission → coalesce → dispatch, no sockets.

    ``workers=0`` executes batches inline on the dispatcher thread —
    the right shape for 1-core hosts (no IPC round-trip, same wire
    semantics) and for deterministic tests.  ``workers>=1`` forks that
    many COW workers, one dispatcher thread each.
    """

    def __init__(self, session: ExtractionSession, config: ServeConfig,
                 metrics: MetricsRegistry | None = None,
                 clock=time.monotonic) -> None:
        self.session = session
        self.config = config
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry()
        self.clock = clock
        self.quotas = QuotaManager(quotas=config.quotas,
                                   default=config.default_quota,
                                   clock=clock)
        self.coalescer = RequestCoalescer(config.policy(), clock=clock)
        self._workers: list[ForkedWorker] = []
        self._heap = ExitStack()
        self._dispatchers: list[threading.Thread] = []
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Warm, freeze, fork, then start dispatchers.

        Fork happens before any engine thread exists — a forked child
        must never inherit a running thread's locks mid-flight.
        """
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        self.session.warm()
        if self.config.workers >= 1 and can_fork(
                "serving from worker processes", "the inline worker"):
            self._heap.enter_context(frozen_heap())
            self._workers = [
                ForkedWorker(self._handler, f"repro-serve-worker-{index}")
                for index in range(self.config.workers)]
        # Inline there is no child to keep up and no gc regime: the
        # session runs bare, and its crash is the batch's worker_failed.
        lanes = self._workers or [
            InlineWorker(lambda: self.session.run_batch)]
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop, args=(worker,),
                             name=f"repro-serve-dispatch-{index}",
                             daemon=True)
            for index, worker in enumerate(lanes)]
        for thread in self._dispatchers:
            thread.start()

    def stop(self) -> None:
        """Drain the queue, stop dispatchers and workers."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self.coalescer.close()
        for thread in self._dispatchers:
            thread.join(timeout=30)
        for worker in self._workers:
            worker.stop()
        self._heap.close()

    def _handler(self):
        """A forked worker's batch handler, built in the child.  A
        batch the session fails on is answered per request instead of
        taking the worker down, and the child — automatic gc off —
        collects its own allocations every few batches."""
        run_batch = self.session.run_batch
        batches = 0

        def handle(requests: list[tuple[str, str]]) -> list[dict]:
            nonlocal batches
            try:
                results = run_batch(requests)
            except Exception as exc:  # noqa: BLE001 - keep the worker up
                message = f"{type(exc).__name__}: {exc}"
                results = [{"_error": message}] * len(requests)
            batches += 1
            if batches % _WORKER_GC_EVERY == 0:
                gc.collect()
            return results

        return handle

    # -- admission -----------------------------------------------------------

    def submit(self, op: str, text: str, tenant: str = "default",
               request_id: str = "", on_done=None,
               stream=None) -> PendingRequest:
        """Admit one request; always returns a PendingRequest (already
        delivered with an error response when not admitted)."""
        tokens = count_tokens(text)
        pending = PendingRequest(request_id=request_id, op=op,
                                 text=text, tenant=tenant,
                                 tokens=tokens, on_done=on_done,
                                 stream=stream)
        self.metrics.counter("serve.requests", op=op).inc()
        self.metrics.counter("serve.request_tokens", op=op).inc(tokens)
        if self._stopped or not self._started:
            self._deliver_one(pending, protocol.error_response(
                request_id, "unavailable", "server is shutting down",
                retryable=True))
            return pending
        if not self.quotas.admit(tenant, tokens):
            self.metrics.counter("serve.quota_rejected",
                                 volatile=True).inc()
            self._deliver_one(pending, protocol.error_response(
                request_id, "quota",
                f"tenant {tenant!r} is out of token budget",
                retryable=True))
            return pending
        limit = self.config.queue_limit
        try:
            admitted = self.coalescer.submit(pending, limit=limit)
        except RuntimeError:
            self._deliver_one(pending, protocol.error_response(
                request_id, "unavailable", "server is shutting down",
                retryable=True))
            return pending
        self.metrics.gauge("serve.queue_depth", volatile=True).set(
            self.coalescer.depth)
        if not admitted:
            self.quotas.refund(tenant, tokens)
            self.metrics.counter("serve.shed", volatile=True).inc()
            self._deliver_one(pending, protocol.error_response(
                request_id, "shed",
                f"admission queue full ({limit} queued)",
                retryable=True))
        return pending

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, worker) -> None:
        """Take → ship → receive → deliver, pipelined one deep.

        At most one batch is at the worker with its results unread.
        The moment batch N's results are in, batch N+1 (whatever is
        queued right now — never waited for) is shipped, and only then
        are N's responses encoded and written: the worker computes N+1
        while this thread does N's JSON and socket work.
        """
        take = self.coalescer.take
        shipped = None
        while True:
            if shipped is None:
                batch = take()
                if batch is None:
                    return
                shipped = self._ship(worker, batch)
            else:
                try:
                    results = worker.recv()
                except Exception as exc:  # noqa: BLE001 - worker death
                    results = exc
                batch, shipped = shipped, self._ship(
                    worker, take(block=False))
                self._deliver_batch(self._responses(batch, results))

    def _ship(self, worker, batch: list[PendingRequest] | None,
              ) -> list[PendingRequest] | None:
        """Send ``batch`` (if any) to the worker.  Returns the batch
        now at the worker, or None when nothing is: no batch was
        given, or the send failed and the batch has been answered
        ``worker_failed``."""
        if batch is None:
            return None
        self._observe_batch(batch)
        try:
            worker.send([(pending.op, pending.text)
                         for pending in batch])
        except Exception as exc:  # noqa: BLE001 - worker death
            self._deliver_batch(self._worker_failed(batch, exc))
            return None
        return batch

    def _responses(self, batch: list[PendingRequest],
                   results: list[dict] | Exception,
                   ) -> list[tuple[PendingRequest, dict]]:
        """Pair each request of a received batch with its response
        (``worker_failed`` for all when receiving raised)."""
        if isinstance(results, Exception):
            return self._worker_failed(batch, results)
        now = self.clock()
        latency = self.metrics.histogram(
            "serve.latency_seconds", buckets=LATENCY_BUCKETS,
            volatile=True)
        deliveries = []
        for pending, result in zip(batch, results):
            if "_error" in result:
                response = protocol.error_response(
                    pending.request_id, "failed", result["_error"],
                    retryable=False)
            else:
                response = protocol.ok_response(pending.request_id,
                                                result)
            latency.observe(max(0.0, now - pending.enqueued_at))
            deliveries.append((pending, response))
        return deliveries

    def _worker_failed(self, batch: list[PendingRequest],
                       exc: Exception,
                       ) -> list[tuple[PendingRequest, dict]]:
        self.metrics.counter("serve.worker_failures",
                             volatile=True).inc()
        message = f"worker failed: {type(exc).__name__}: {exc}"
        return [(pending, protocol.error_response(
                    pending.request_id, "worker_failed", message,
                    retryable=True))
                for pending in batch]

    def _deliver_one(self, pending: PendingRequest,
                     response: dict) -> None:
        if pending.stream is not None:
            try:
                pending.stream.send_message(response)
            except (OSError, ValueError):
                pass  # peer vanished; still mark the request done
        pending.deliver(response)

    def _deliver_batch(
            self, deliveries: list[tuple[PendingRequest, dict]]) -> None:
        """Deliver a closed batch's responses, gathering all responses
        bound for the same connection into one write — the batch path
        amortizes response syscalls the same way it amortizes dispatch
        wakeups and worker IPC."""
        by_stream: dict[int, tuple[object, list[dict]]] = {}
        for pending, response in deliveries:
            if pending.stream is not None:
                by_stream.setdefault(
                    id(pending.stream),
                    (pending.stream, []))[1].append(response)
        for stream, responses in by_stream.values():
            try:
                stream.send_raw(b"".join(
                    protocol.encode_message(response)
                    for response in responses))
            except (OSError, ValueError):
                pass  # peer vanished; still mark the requests done
        for pending, response in deliveries:
            pending.deliver(response)

    def _observe_batch(self, batch: list[PendingRequest]) -> None:
        metrics = self.metrics
        metrics.counter("serve.batches", volatile=True).inc()
        if len(batch) > 1:
            metrics.counter("serve.multi_request_batches",
                            volatile=True).inc()
        metrics.histogram("serve.batch_size",
                          buckets=BATCH_SIZE_BUCKETS,
                          volatile=True).observe(len(batch))

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        metrics = self.metrics
        ops = {labels["op"]: int(metrics.value_of("serve.requests",
                                                  **labels) or 0)
               for labels in metrics.labels_of("serve.requests")}
        return {
            "requests": ops,
            "queue_depth": self.coalescer.depth,
            "batches": int(metrics.value_of("serve.batches") or 0),
            "multi_request_batches": int(
                metrics.value_of("serve.multi_request_batches") or 0),
            "shed": int(metrics.value_of("serve.shed") or 0),
            "quota_rejected": int(
                metrics.value_of("serve.quota_rejected") or 0),
            "worker_failures": int(
                metrics.value_of("serve.worker_failures") or 0),
            "workers": len(self._workers),
            "quota_buckets": self.quotas.snapshot(),
        }


class ExtractionServer:
    """TCP frontend over a :class:`BatchEngine`.

    ``start()`` binds (port 0 = ephemeral; read :attr:`address`),
    forks workers, and returns; ``serve_forever()`` blocks until a
    ``shutdown`` op or :meth:`request_shutdown`.  Shutdown drains
    in-flight batches, stops workers, releases the session's response
    memo, and writes the deterministic metrics export when configured.
    """

    def __init__(self, session: ExtractionSession, config: ServeConfig,
                 metrics: MetricsRegistry | None = None,
                 query_engine=None) -> None:
        self.config = config
        self.engine = BatchEngine(session, config, metrics=metrics)
        self.metrics = self.engine.metrics
        #: Optional :class:`repro.store.QueryEngine` backing the
        #: ``query`` control op (``repro serve --store DIR``).
        self.query_engine = query_engine
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[protocol.MessageStream] = set()
        self._connections_lock = threading.Lock()
        self._shutdown_event = threading.Event()
        self._done = False

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ExtractionServer":
        # Fork workers before any server thread exists.
        self.engine.start()
        listener = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False)
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until shutdown is requested, then run it."""
        self._shutdown_event.wait()
        self.shutdown()

    def request_shutdown(self) -> None:
        self._shutdown_event.set()

    def shutdown(self) -> None:
        if self._done:
            return
        self._done = True
        self._shutdown_event.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in
            # accept(); shutting the listening socket down does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        self.engine.stop()
        with self._connections_lock:
            streams = list(self._connections)
            self._connections.clear()
        for stream in streams:
            stream.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self.engine.session.close()
        if self.config.metrics_out:
            # Latency/batch histograms are the point of this export;
            # include them.  The deterministic subset stays available
            # via the `metrics` op with include_volatile=false.
            self.metrics.write_jsonl(self.config.metrics_out,
                                     include_volatile=True)

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._shutdown_event.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = protocol.MessageStream(conn)
            with self._connections_lock:
                self._connections.add(stream)
            threading.Thread(target=self._client_loop, args=(stream,),
                             name="repro-serve-client",
                             daemon=True).start()

    def _client_loop(self, stream: protocol.MessageStream) -> None:
        try:
            while True:
                try:
                    payload = stream.read_message()
                except protocol.ProtocolError as exc:
                    stream.send_message(protocol.error_response(
                        "", "bad_request", str(exc), retryable=False))
                    return
                if payload is None:
                    return
                try:
                    request = protocol.Request.from_payload(payload)
                except protocol.ProtocolError as exc:
                    stream.send_message(protocol.error_response(
                        str(payload.get("id", "")), "bad_request",
                        str(exc), retryable=False))
                    continue
                if request.op in protocol.CONTROL_OPS:
                    self._handle_control(stream, request)
                    if request.op == "shutdown":
                        return
                else:
                    self.engine.submit(
                        op=request.op, text=request.text,
                        tenant=request.tenant,
                        request_id=request.request_id,
                        stream=stream)
        except (OSError, ValueError):
            pass  # peer vanished mid-write; connection teardown below
        finally:
            with self._connections_lock:
                self._connections.discard(stream)
            stream.close()

    def _handle_control(self, stream: protocol.MessageStream,
                        request: protocol.Request) -> None:
        if request.op == "ping":
            result = {"pong": True, "pid": os.getpid()}
        elif request.op == "metrics":
            result = self.metrics.to_dict(
                include_volatile=request.include_volatile)
        elif request.op == "stats":
            result = self.engine.stats()
        elif request.op == "query":
            result = self._handle_query(stream, request)
            if result is None:
                return
        else:  # shutdown
            result = {"stopping": True}
        stream.send_message(protocol.ok_response(request.request_id,
                                                 result))
        if request.op == "shutdown":
            self.request_shutdown()

    def _handle_query(self, stream: protocol.MessageStream,
                      request: protocol.Request) -> dict | None:
        """Answer a ``query`` op from the attached store; returns the
        result payload, or None after sending an error response."""
        if self.query_engine is None:
            stream.send_message(protocol.error_response(
                request.request_id, "no_store",
                "server was started without --store; "
                "the query op is unavailable", retryable=False))
            return None
        from repro.store.query import QUERY_FILTERS

        params = dict(request.params or {})
        unknown = sorted(set(params) - set(QUERY_FILTERS))
        if unknown:
            stream.send_message(protocol.error_response(
                request.request_id, "bad_request",
                f"unknown query params {unknown}; "
                f"supported: {sorted(QUERY_FILTERS)}", retryable=False))
            return None
        try:
            facts = self.query_engine.facts(**params)
        except (TypeError, ValueError) as exc:
            stream.send_message(protocol.error_response(
                request.request_id, "bad_request", str(exc),
                retryable=False))
            return None
        return {"count": len(facts), "facts": facts}
