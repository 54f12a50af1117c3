"""Closed-loop load generator and client for ``repro serve``.

:class:`ServeClient` is a minimal synchronous client: one socket, one
request in flight, id-checked responses — the building block both for
the CLI and for the benchmark's closed-loop workers.

:class:`LoadGenerator` drives a server with N concurrent closed-loop
workers (each keeps a fixed window of requests in flight — offered
load is controlled by ``concurrency × window``, not timers, so a
1-core host measures batching effect rather than scheduler noise).
With ``window > 1`` a worker pipelines: it writes the whole window in
one syscall and then collects the window's responses by id, the way
``wrk``-style harnesses saturate a server from few threads.  It
records per-request wall latencies (send of the request's window →
that response's arrival) and a **response digest**: a sha256 over
every ``(request id, canonical response body)`` pair,
order-independent.  Two runs over the same workload must produce
equal digests regardless of batching, concurrency, window, or worker
count — that is the byte-identity check the benchmark and the CI
smoke job assert.

Workloads are generated deterministically from a seed so the same
``--seed``/``--requests`` always offers the same byte stream.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
import time
from typing import Sequence

from repro.serve import protocol

#: Word pool for generated workloads: a mix of dictionary-hit drug /
#: disease surface forms and filler so extract requests exercise both
#: the automaton and the CRF, while repeats keep the session's response
#: memo warm (the serving steady state).
_WORKLOAD_WORDS = (
    "aspirin", "ibuprofen", "metformin", "insulin", "warfarin",
    "diabetes", "asthma", "hypertension", "migraine", "anemia",
    "patients", "treated", "with", "daily", "doses", "of", "showed",
    "reduced", "symptoms", "after", "therapy", "trial", "study",
    "results", "suggest", "improved", "outcomes", "versus", "placebo",
)

_OPS = ("extract", "annotate", "classify")


def generate_workload(n_requests: int, seed: int = 0,
                      ops: Sequence[str] = _OPS,
                      min_words: int = 4, max_words: int = 12,
                      unique_texts: int = 64,
                      ) -> list[tuple[str, str]]:
    """Deterministic ``[(op, text), ...]`` workload.

    ``unique_texts`` bounds the distinct sentences: real serving
    traffic repeats (headers, boilerplate, popular queries), and the
    repetition is what lets the session's response memo absorb
    per-request kernel cost so the measurement isolates batching
    overhead.
    """
    rng = random.Random(seed)
    pool = []
    for _ in range(unique_texts):
        n_words = rng.randint(min_words, max_words)
        words = [rng.choice(_WORKLOAD_WORDS) for _ in range(n_words)]
        pool.append(" ".join(words) + ".")
    return [(ops[index % len(ops)], rng.choice(pool))
            for index in range(n_requests)]


class ServeClient:
    """Synchronous single-connection client (one request in flight)."""

    def __init__(self, host: str, port: int,
                 timeout: float = 60.0) -> None:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = protocol.MessageStream(sock)
        self._next_id = 0

    def call(self, op: str, text: str = "", tenant: str = "default",
             **extra) -> dict:
        """Send one request, block for its response."""
        self._next_id += 1
        request_id = f"c{self._next_id}"
        payload = {"id": request_id, "op": op}
        if text:
            payload["text"] = text
        if tenant != "default":
            payload["tenant"] = tenant
        payload.update(extra)
        self._stream.send_message(payload)
        response = self._stream.read_message()
        if response is None:
            raise ConnectionError("server closed the connection")
        if str(response.get("id")) != request_id:
            raise ConnectionError(
                f"response id {response.get('id')!r} != {request_id!r}")
        return response

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def digest_pairs(pairs: list[tuple[str, dict]]) -> str:
    """Order-independent sha256 over ``(key, response)`` pairs.

    The key identifies the request (its global workload index), the
    body is the response minus its wire ``id``; pairs are hashed in
    sorted-key order, so completion order — which batching reshuffles
    — cannot change the digest, but any byte of any response body can.
    """
    digest = hashlib.sha256()
    for key, response in sorted(pairs, key=lambda pair: pair[0]):
        body = dict(response)
        body.pop("id", None)
        line = key + "\t" + json.dumps(body, sort_keys=True,
                                       separators=(",", ":"))
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


class LoadGenerator:
    """Closed-loop multi-worker driver collecting latency + digest.

    ``concurrency`` is the number of connections (worker threads);
    ``window`` is the number of pipelined in-flight requests per
    connection — offered load is ``concurrency × window``.
    """

    def __init__(self, host: str, port: int, concurrency: int = 4,
                 window: int = 1, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.concurrency = max(1, concurrency)
        self.window = max(1, window)
        self.timeout = timeout
        self.latencies: list[float] = []
        self.errors: dict[str, int] = {}
        self.ok = 0
        self.pairs: list[tuple[str, dict]] = []
        self.elapsed = 0.0
        self._lock = threading.Lock()

    def run(self, workload: Sequence[tuple[str, str]],
            tenant: str = "default") -> "LoadGenerator":
        """Partition the workload round-robin across workers; each
        worker runs its slice closed-loop.  Returns self."""
        slices = [list(workload[index::self.concurrency])
                  for index in range(self.concurrency)]
        threads = [threading.Thread(
            target=self._worker, args=(index, jobs, tenant),
            name=f"repro-loadgen-{index}", daemon=True)
            for index, jobs in enumerate(slices) if jobs]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed = time.monotonic() - started
        return self

    def _worker(self, worker_index: int,
                jobs: list[tuple[str, str]], tenant: str) -> None:
        latencies, pairs, errors, ok = [], [], {}, 0
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = protocol.MessageStream(sock)
        try:
            for base in range(0, len(jobs), self.window):
                chunk = jobs[base:base + self.window]
                payloads = []
                outstanding = set()
                for offset, (op, text) in enumerate(chunk):
                    # Id = the request's *global* workload index, so
                    # digests compare across concurrency/window too.
                    index = worker_index + \
                        (base + offset) * self.concurrency
                    request_id = f"r{index}"
                    outstanding.add(request_id)
                    payload = {"id": request_id, "op": op,
                               "text": text}
                    if tenant != "default":
                        payload["tenant"] = tenant
                    payloads.append(protocol.encode_message(payload))
                sent = time.monotonic()
                # One write for the whole window; responses arrive in
                # completion order and are matched by id.
                stream.send_raw(b"".join(payloads))
                while outstanding:
                    response = stream.read_message()
                    if response is None:
                        raise ConnectionError(
                            "server closed mid-window")
                    latencies.append(time.monotonic() - sent)
                    request_id = str(response.get("id"))
                    if request_id not in outstanding:
                        raise ConnectionError(
                            f"unexpected response id {request_id!r}")
                    outstanding.discard(request_id)
                    pairs.append((request_id, response))
                    if response.get("ok"):
                        ok += 1
                    else:
                        code = response.get("error", {}).get(
                            "code", "unknown")
                        errors[code] = errors.get(code, 0) + 1
        finally:
            stream.close()
        with self._lock:
            self.latencies.extend(latencies)
            self.pairs.extend(pairs)
            self.ok += ok
            for code, count in errors.items():
                self.errors[code] = self.errors.get(code, 0) + count

    # -- results -------------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of observed latencies (seconds)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1,
                   max(0, int(round(q / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    @property
    def digest(self) -> str:
        return digest_pairs(self.pairs)

    def summary(self) -> dict:
        total = len(self.latencies)
        return {
            "requests": total,
            "ok": self.ok,
            "errors": dict(sorted(self.errors.items())),
            "concurrency": self.concurrency,
            "window": self.window,
            "elapsed_s": round(self.elapsed, 6),
            "throughput_rps": round(total / self.elapsed, 3)
            if self.elapsed > 0 else 0.0,
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
            "digest": self.digest,
        }
