"""Entity-store ingest, aggregation, persistence, and query timings.

The store's determinism contract is cheap to state (sets + order-free
aggregation) but must stay cheap to *run*: this bench times each
stage of the store lifecycle — ingesting analyzed documents, the
snapshot aggregation (union-find + fact grouping), the atomic save,
the typed load, and corroboration-ranked queries — over a bench-scale
analyzed corpus, asserting the byte-identity invariant (forward vs
reversed ingest order, save → load → save) on every round.

The "analyze + ingest" row is what `repro crawl --store` pays per
harvest: the same crawl-sized pages annotated and ingested through
the streaming one-pass engine (``ingest_documents(pipeline=...)``)
against the per-document reference loop (the test oracle
``tests/core/pipeline_oracle.analyze``),
interleaved min-of-3 with the store digest asserted equal each round.

Artifacts: repo-root ``BENCH_store.json`` and
``out/entity_store.txt``.  ``BENCH_SMOKE=1`` shrinks the corpus,
writes the JSON artifact under ``benchmarks/out/`` instead (the
committed repo-root file keeps the full-size numbers) and skips the
throughput gate (CI timings are noise); the byte-identity assertions
always hold.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from reporting import format_table, write_report

from repro.ner.relations import RelationExtractor
from repro.store import (
    EntityStore, QueryEngine, analyzed_documents, ingest_documents,
)
from tests.core.pipeline_oracle import analyze

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_DOCS = 10 if SMOKE else 30
ROUNDS = 3
N_QUERIES = 50

#: Ingest must not dominate extraction: analyzed documents should
#: enter the store at hundreds per second even on one core.
MIN_INGEST_DOCS_PER_S = 50.0

#: The gate the streaming engine must clear over the per-document
#: reference loop on analyze + ingest.
MIN_STREAMING_SPEEDUP = 1.3

REPO_ROOT = Path(__file__).resolve().parent.parent


def _pages(ctx):
    pages = ctx.corpus_documents("relevant")[:N_DOCS]
    for index, page in enumerate(pages):
        page.meta["url"] = f"http://host{index % 7}.example.org/p{index}"
    return pages


def _analyzed_documents(ctx, pages):
    return [document for document, _relations
            in analyzed_documents(pages, ctx.pipeline)]


def _reference_ingest(store, pages, pipeline) -> None:
    """The per-document loop the streaming engine replaced."""
    extractor = RelationExtractor()
    for page in pages:
        copy = page.copy_shallow()
        analyze(pipeline, copy)
        store.ingest_document(copy, relations=extractor.extract(copy))


def _time_analyze_and_ingest(ctx, pages) -> dict[str, float]:
    arms = {
        "reference": lambda store: _reference_ingest(
            store, pages, ctx.pipeline),
        "streaming": lambda store: ingest_documents(
            store, pages, pipeline=ctx.pipeline),
    }
    # Round 0 is untimed: it builds every lazy kernel (merged
    # automaton, frozen CRF weights) outside the timed rounds.
    best = {}
    for round_ in range(ROUNDS + 1):
        digests = {}
        for arm, ingest in arms.items():
            store = EntityStore(vocabulary=ctx.vocabulary)
            started = time.perf_counter()
            ingest(store)
            seconds = time.perf_counter() - started
            if round_:
                best[arm] = min(seconds, best.get(arm, seconds))
            digests[arm] = store.digest()
        assert digests["streaming"] == digests["reference"], \
            "streaming ingest diverged from the per-document reference"
    return best


def test_store_lifecycle(ctx, tmp_path):
    pages = _pages(ctx)
    n_chars = sum(len(page.text) for page in pages)
    analyze_ingest = _time_analyze_and_ingest(ctx, pages)
    streaming_speedup = (analyze_ingest["reference"]
                         / analyze_ingest["streaming"])
    documents = _analyzed_documents(ctx, pages)
    vocabulary = ctx.vocabulary

    timings = {"ingest": [], "snapshot": [], "save": [], "load": [],
               "query": []}
    reference_bytes = None
    n_facts = n_entities = 0

    for round_ in range(ROUNDS):
        store = EntityStore(vocabulary=vocabulary)
        started = time.perf_counter()
        ingest_documents(store, documents)
        timings["ingest"].append(time.perf_counter() - started)

        started = time.perf_counter()
        snapshot = store.snapshot()
        timings["snapshot"].append(time.perf_counter() - started)
        n_facts, n_entities = snapshot.n_facts, snapshot.n_entities

        target = tmp_path / f"round{round_}.json"
        started = time.perf_counter()
        store.save(target)
        timings["save"].append(time.perf_counter() - started)

        started = time.perf_counter()
        loaded = EntityStore.load(target)
        timings["load"].append(time.perf_counter() - started)

        # Invariants, every round: reversed ingest order and the
        # save -> load -> save round trip are byte-identical.
        reversed_store = EntityStore(vocabulary=vocabulary)
        ingest_documents(reversed_store, list(reversed(documents)))
        assert (reversed_store.save(tmp_path / "rev.json").read_bytes()
                == target.read_bytes())
        assert (loaded.save(tmp_path / "reload.json").read_bytes()
                == target.read_bytes())
        if reference_bytes is None:
            reference_bytes = target.read_bytes()
        else:
            assert target.read_bytes() == reference_bytes

        engine = QueryEngine(loaded)
        aliases = [e["name"] for e in engine.entities()][:N_QUERIES]
        started = time.perf_counter()
        for alias in aliases:
            engine.facts(alias=alias, limit=10)
        timings["query"].append(
            (time.perf_counter() - started) / max(1, len(aliases)))

    best = {stage: min(values) for stage, values in timings.items()}
    ingest_rate = len(documents) / best["ingest"]

    rows = [
        ["analyze + ingest", f"{analyze_ingest['streaming'] * 1e3:.0f} ms",
         f"{streaming_speedup:.2f}x the per-document loop "
         f"({analyze_ingest['reference'] * 1e3:.0f} ms)"],
        ["ingest", f"{best['ingest'] * 1e3:.1f} ms",
         f"{ingest_rate:.0f} docs/s"],
        ["snapshot", f"{best['snapshot'] * 1e3:.1f} ms",
         f"{n_facts} facts / {n_entities} entities"],
        ["save", f"{best['save'] * 1e3:.1f} ms", "atomic + fsync"],
        ["load", f"{best['load'] * 1e3:.1f} ms", "typed validation"],
        ["query", f"{best['query'] * 1e6:.0f} us",
         "per alias lookup, limit 10"],
    ]
    lines = format_table(["stage", "best-of-3", "note"], rows)
    lines.append("")
    lines.append(f"{len(documents)} analyzed documents "
                 f"({n_chars} chars); "
                 f"byte-identity asserted each round (reversed order, "
                 f"reload, streaming vs per-document analyze)")
    write_report("entity_store", "Entity store lifecycle", lines)

    payload = {
        "n_documents": len(documents),
        "n_facts": n_facts,
        "n_entities": n_entities,
        "seconds": {stage: round(value, 6)
                    for stage, value in best.items()},
        "ingest_docs_per_s": round(ingest_rate, 1),
        "n_chars": n_chars,
        "analyze_ingest_seconds": {
            arm: round(value, 6) for arm, value in analyze_ingest.items()},
        "analyze_ingest_speedup": round(streaming_speedup, 2),
        "smoke": SMOKE,
    }
    out_path = (Path(__file__).resolve().parent / "out" / "BENCH_store.json"
                if SMOKE else REPO_ROOT / "BENCH_store.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if not SMOKE:
        assert ingest_rate >= MIN_INGEST_DOCS_PER_S, (
            f"store ingest {ingest_rate:.0f} docs/s under the "
            f"{MIN_INGEST_DOCS_PER_S} docs/s floor")
        assert streaming_speedup >= MIN_STREAMING_SPEEDUP, (
            f"streaming analyze + ingest only {streaming_speedup:.2f}x "
            f"the per-document reference loop")
