"""Socket-level integration tests: a real ExtractionServer over the
trained pipeline, driven by the load generator.

The load generator's digest (sha256 over every (request id, response
body) pair, order-independent) is the wire-level byte-identity check:
batched, unbatched, inline, and forked-worker servers must all
produce the same digest for the same workload.
"""

from __future__ import annotations

import time

import pytest

from repro.serve.loadgen import (
    LoadGenerator, ServeClient, generate_workload,
)
from repro.serve.server import ExtractionServer, ServeConfig
from repro.serve.session import ExtractionSession

WORKLOAD = generate_workload(48, seed=23)


def start_server(pipeline, **overrides) -> ExtractionServer:
    config = ServeConfig(workers=0, max_batch=8, queue_limit=64)
    for key, value in overrides.items():
        setattr(config, key, value)
    session = ExtractionSession(pipeline)
    return ExtractionServer(session, config).start()


def drive(server: ExtractionServer, workload=WORKLOAD,
          concurrency: int = 2, window: int = 8,
          tenant: str = "default") -> LoadGenerator:
    host, port = server.address
    return LoadGenerator(host, port, concurrency=concurrency,
                         window=window).run(workload, tenant=tenant)


class TestBatchedVsUnbatched:
    def test_digests_identical_and_batches_formed(self, pipeline):
        batched_server = start_server(pipeline)
        try:
            batched = drive(batched_server)
            stats = batched_server.engine.stats()
        finally:
            batched_server.shutdown()
        unbatched_server = start_server(pipeline, max_batch=1)
        try:
            unbatched = drive(unbatched_server)
            unbatched_stats = unbatched_server.engine.stats()
        finally:
            unbatched_server.shutdown()
        assert batched.ok == len(WORKLOAD)
        assert unbatched.ok == len(WORKLOAD)
        assert batched.digest == unbatched.digest
        assert stats["multi_request_batches"] > 0
        assert unbatched_stats["multi_request_batches"] == 0

    def test_forked_worker_matches_inline(self, pipeline):
        inline_server = start_server(pipeline)
        try:
            inline = drive(inline_server)
        finally:
            inline_server.shutdown()
        forked_server = start_server(pipeline, workers=1)
        try:
            assert forked_server.engine.stats()["workers"] == 1
            forked = drive(forked_server)
        finally:
            forked_server.shutdown()
        assert forked.ok == len(WORKLOAD)
        assert forked.digest == inline.digest


class TestControlOps:
    @pytest.fixture()
    def server(self, pipeline):
        server = start_server(pipeline)
        yield server
        server.shutdown()

    def test_ping_and_stats(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            assert client.call("ping")["result"]["pong"] is True
            client.call("classify", "aspirin helps migraine.")
            stats = client.call("stats")["result"]
        assert stats["requests"] == {"classify": 1}

    def test_metrics_endpoint_respects_volatile_split(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client.call("extract", "aspirin helps migraine.")
            full = client.call("metrics")["result"]
            deterministic = client.call(
                "metrics", include_volatile=False)["result"]
        full_names = {entry["name"] for entry in full["metrics"]}
        det_names = {entry["name"] for entry in
                     deterministic["metrics"]}
        assert "serve.latency_seconds" in full_names
        assert "serve.requests" in det_names
        assert not any(entry.get("volatile")
                       for entry in deterministic["metrics"])

    def test_bad_requests_get_error_responses(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            response = client.call("extract")  # empty text
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # The connection survives a bad request.
            assert client.call("ping")["result"]["pong"] is True

    def test_shutdown_op_stops_serve_forever(self, pipeline):
        server = start_server(pipeline)
        host, port = server.address
        with ServeClient(host, port) as client:
            assert client.call("shutdown")["result"]["stopping"]
        server.serve_forever()  # returns because shutdown was requested
        assert server._done


class TestShutdown:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_shutdown_wakes_the_accept_thread(self, pipeline, workers):
        """``shutdown()`` must not sit out the accept thread's join
        timeout: it wakes the listener itself."""
        server = start_server(pipeline, workers=workers)
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()

    def test_address_is_connectable_between_request_and_shutdown(
            self, pipeline):
        """``request_shutdown()`` only flags: a client may still
        connect before ``shutdown()`` runs (the e2e harness does)."""
        import socket

        server = start_server(pipeline)
        server.request_shutdown()
        socket.create_connection(server.address, timeout=5).close()
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()


class TestQuotasOverTheWire:
    def test_tenant_quota_rejects_with_retryable_error(self, pipeline):
        server = start_server(
            pipeline, quotas={"limited": (0.001, 6.0)})
        try:
            host, port = server.address
            with ServeClient(host, port) as client:
                first = client.call("classify", "a b c d e f",
                                    tenant="limited")
                second = client.call("classify", "a b c d e f",
                                     tenant="limited")
                third = client.call("classify", "a b c d e f")
        finally:
            server.shutdown()
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["code"] == "quota"
        assert second["error"]["retryable"] is True
        assert third["ok"] is True, "default tenant is unlimited"
