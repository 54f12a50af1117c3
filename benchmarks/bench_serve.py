"""Serve-path benchmark: request coalescing vs batch-size-1 dispatch.

Starts real ``ExtractionServer`` instances (forked worker, each with a
new session whose response memo the warm-up drive fills — the serving
steady state) and drives them with the pipelined closed-loop load
generator at several offered-load levels,
batched (coalescer on: size/token rule, work-conserving pipelined
dispatch) vs a batch-size-1 baseline (same server, ``max_batch=1`` —
every request pays its own dispatch wakeup and worker IPC round-trip).

Asserted guarantees:

* every run's response digest is identical — batching, offered load,
  and worker dispatch must not change a single response byte;
* the coalescer actually coalesces (multi-request batches > 0) while
  the baseline never does;
* the headline gate: at saturating offered load, batched throughput
  >= 2x the batch-size-1 baseline (the amortized dispatch+IPC win);
* at light offered load (one request in flight), batched throughput
  stays within 0.8x of the baseline's — an idle server takes a lone
  request at once, so batching may not tax the load it cannot help.

Each (variant, load) cell runs ``REPEATS`` times interleaved and the
reported cell is the best repeat.  Writes repo-root
``BENCH_serve.json``.  ``BENCH_SMOKE=1`` shrinks the workload for CI,
writes the artifact under ``benchmarks/out/`` instead, and relaxes
the throughput gate to "batched beats baseline" (the strict 2x needs
the full-size run to clear timer noise).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from reporting import format_table, write_report

from repro.serve.loadgen import LoadGenerator, generate_workload
from repro.serve.server import ExtractionServer, ServeConfig
from repro.serve.session import ExtractionSession

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_REQUESTS = 300 if SMOKE else 1500
REPEATS = 2 if SMOKE else 3
WORKERS = 1
#: Hard cap on coalesced batch size; saturating offered load is 2x
#: this, so a full batch is always queued behind the one in flight.
MAX_BATCH = 16
#: Offered-load levels: (connections, pipelined window per connection).
LOADS = {"light": (1, 1), "moderate": (2, 4), "saturating": (2, 16)}
#: Headline gate at saturating load (smoke: batched must merely win).
THROUGHPUT_GATE = 1.05 if SMOKE else 2.0
#: Light-load gate: batched/light throughput over batch1/light.
LIGHT_GATE = 0.8
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


@pytest.fixture(scope="module")
def serve_setup(ctx):
    """Trained pipeline + workload."""
    return ctx.pipeline, generate_workload(N_REQUESTS, seed=11)


def run_once(pipeline, workload, max_batch: int,
             connections: int, window: int) -> tuple[dict, dict]:
    """One server lifecycle: start, warm drive, measured drive, stop."""
    session = ExtractionSession(pipeline)
    config = ServeConfig(workers=WORKERS, max_batch=max_batch,
                         queue_limit=256)
    server = ExtractionServer(session, config).start()
    try:
        host, port = server.address
        LoadGenerator(host, port, concurrency=connections,
                      window=window).run(workload[:len(workload) // 4])
        generator = LoadGenerator(host, port, concurrency=connections,
                                  window=window).run(workload)
        stats = server.engine.stats()
    finally:
        server.shutdown()
    summary = generator.summary()
    assert summary["ok"] == len(workload), summary["errors"]
    return summary, stats


def test_serve_throughput_and_latency(serve_setup):
    pipeline, workload = serve_setup
    cells: dict[tuple[str, str], dict] = {}
    digests = set()
    coalesced = {}
    # Interleave repeats so timer noise hits variants evenly.
    for _ in range(REPEATS):
        for load_name, (connections, window) in LOADS.items():
            for variant, max_batch in (("batched", MAX_BATCH),
                                       ("batch1", 1)):
                summary, stats = run_once(
                    pipeline, workload, max_batch, connections, window)
                digests.add(summary.pop("digest"))
                key = (variant, load_name)
                best = cells.get(key)
                if best is None or summary["throughput_rps"] > \
                        best["throughput_rps"]:
                    cells[key] = summary
                coalesced[key] = max(
                    coalesced.get(key, 0),
                    stats["multi_request_batches"])

    # Byte-identity: every variant, load level, and repeat produced
    # the exact same response set.
    assert len(digests) == 1, digests
    # The coalescer coalesces; the baseline never can.
    for load_name in ("moderate", "saturating"):
        assert coalesced[("batched", load_name)] > 0
    assert all(coalesced[("batch1", load)] == 0 for load in LOADS)

    batched = cells[("batched", "saturating")]
    baseline = cells[("batch1", "saturating")]
    ratio = batched["throughput_rps"] / baseline["throughput_rps"]
    light_ratio = (cells[("batched", "light")]["throughput_rps"]
                   / cells[("batch1", "light")]["throughput_rps"])

    rows = []
    for load_name in LOADS:
        for variant in ("batched", "batch1"):
            cell = cells[(variant, load_name)]
            rows.append([load_name, variant,
                         cell["concurrency"] * cell["window"],
                         f"{cell['throughput_rps']:.0f}",
                         f"{cell['p50_ms']:.2f}",
                         f"{cell['p99_ms']:.2f}"])
    report_lines = format_table(
        ["load", "variant", "in-flight", "req/s", "p50 ms", "p99 ms"],
        rows)
    report_lines.append(
        f"saturating throughput ratio (batched/batch1): {ratio:.2f}x")
    report_lines.append(
        f"light throughput ratio (batched/batch1): {light_ratio:.2f}x")
    write_report("serve_throughput",
                 "Batched serving vs batch-size-1 dispatch",
                 report_lines)

    payload = {
        "config": {
            "requests": N_REQUESTS, "workers": WORKERS,
            "max_batch": MAX_BATCH, "repeats": REPEATS,
            "loads": {name: {"connections": c, "window": w}
                      for name, (c, w) in LOADS.items()},
            "smoke": SMOKE,
        },
        "cells": {f"{variant}/{load}": cell
                  for (variant, load), cell in sorted(cells.items())},
        "multi_request_batches": {
            f"{variant}/{load}": count
            for (variant, load), count in sorted(coalesced.items())},
        "saturating_throughput_ratio": round(ratio, 3),
        "light_throughput_ratio": round(light_ratio, 3),
        "response_digest": digests.pop(),
    }
    out_path = (Path(__file__).parent / "out" / "BENCH_serve.json"
                if SMOKE else BENCH_PATH)
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")

    assert ratio >= THROUGHPUT_GATE, (
        f"batched serving must be >= {THROUGHPUT_GATE}x batch-size-1 "
        f"at saturating load, got {ratio:.2f}x")
    assert light_ratio >= LIGHT_GATE, (
        f"batched serving must keep >= {LIGHT_GATE}x batch-size-1 "
        f"throughput at light load, got {light_ratio:.2f}x")
