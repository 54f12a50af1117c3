"""Command-line interface.

Subcommands cover the main workflows:

* ``repro crawl``       — run a focused crawl on the synthetic web;
* ``repro analyze``     — run the content analysis on the four corpora;
* ``repro flow``        — run the Fig. 2 flow in a chosen execution
  mode (sequential / fused / fused-processes);
* ``repro scalability`` — the simulated-cluster sweeps (Figs. 4-5);
* ``repro seeds``       — seed generation statistics (Table 1);
* ``repro facts``       — crawl, extract, and write an entity/fact
  store (``store.json``) with its JSONL export;
* ``repro query``       — query a persisted entity/fact store
  (docs/entity_store.md): facts by entity/alias/predicate/URL, ranked
  by corroboration;
* ``repro serve``       — long-lived batched extraction server
  (docs/serving.md): frozen kernels loaded once, requests coalesced
  into batches, workers forked copy-on-write;
* ``repro loadgen``     — drive a running server with deterministic
  closed-loop load and print latency/throughput/digest;
* ``repro report``      — render an exported metrics/trace file back
  into the human-readable crawl summary (docs/observability.md).

All commands are deterministic given ``--seed``; ``crawl`` and
``flow`` accept ``--metrics-out``/``--trace`` to export observability
data without perturbing results.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def build_parser() -> argparse.ArgumentParser:
    from repro.dataflow.executor import EXECUTION_MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Domain-Specific Information "
                    "Extraction at Web Scale' (SIGMOD 2016)")
    parser.add_argument("--seed", type=int, default=19,
                        help="base random seed (default 19)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    crawl = subparsers.add_parser("crawl", help="run a focused crawl")
    crawl.add_argument("--max-pages", "--pages", dest="pages", type=int,
                       default=600, help="fetch budget (default 600)")
    crawl.add_argument("--hosts", type=int, default=50,
                       help="synthetic web hosts (default 50)")
    crawl.add_argument("--follow-irrelevant", type=int, default=0,
                       help="steps to follow links of irrelevant pages")
    crawl.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for the per-page document "
                            "stage (byte-identical results at any N; "
                            "default 1)")
    crawl.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run the crawl as N host-sharded coordinator "
                            "processes in BSP supersteps (merged "
                            "artifacts byte-identical at any N; a "
                            "different deterministic schedule from the "
                            "single-coordinator default — see "
                            "docs/crawling.md)")
    crawl.add_argument("--recrawl-rounds", type=int, default=1,
                       metavar="N",
                       help="crawl the (evolving) web N times from the "
                            "same seeds; rounds after the first replay "
                            "cached outcomes for unchanged pages and "
                            "skip fetches for hosts not yet due "
                            "(default 1 = single cold crawl)")
    crawl.add_argument("--churn", type=float, default=0.0,
                       metavar="RATE",
                       help="per-round probability that a page's "
                            "content changes between recrawl rounds "
                            "(default 0.0 = static web)")
    crawl.add_argument("--faults", default="none", metavar="SPEC",
                       help="fault injection: none | default | heavy | "
                            "a per-fetch failure rate like 0.2 "
                            "(default none)")
    crawl.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write atomic crawl checkpoints to PATH")
    crawl.add_argument("--checkpoint-every", type=int, default=100,
                       metavar="N",
                       help="pages between checkpoints (default 100)")
    crawl.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint if it exists")
    crawl.add_argument("--kill-after", type=int, default=None,
                       metavar="N",
                       help="hard-exit (os._exit 9) after N fetched "
                            "pages — crash-safety testing")
    crawl.add_argument("--store", default=None, metavar="DIR",
                       help="analyze the relevant pages and persist an "
                            "entity/fact store under DIR (query it with "
                            "'repro query'; byte-identical at any "
                            "--workers/--shards count)")
    crawl.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="export deterministic crawl metrics as "
                            "JSON lines (byte-identical at any "
                            "--workers count)")
    crawl.add_argument("--trace", default=None, metavar="PATH",
                       help="export batch/fetch/document/merge spans "
                            "as JSON lines (timed on the simulated "
                            "clock, so also worker-count invariant)")

    analyze = subparsers.add_parser(
        "analyze", help="content analysis of the four corpora")
    analyze.add_argument("--docs", type=int, default=12,
                         help="documents per corpus (default 12)")

    flow = subparsers.add_parser(
        "flow", help="run the Fig. 2 flow in a chosen execution mode")
    flow.add_argument("--mode", default="fused",
                      choices=EXECUTION_MODES,
                      help="physical execution mode (default fused)")
    flow.add_argument("--dop", type=int, default=None,
                      help="degree of parallelism (default: CPU count)")
    flow.add_argument("--docs", type=int, default=16,
                      help="documents to run through the flow (default 16)")
    flow.add_argument("--repeat", type=int, default=1, metavar="N",
                      help="run the flow N times through one reusable "
                           "FlowSession (plan/executor built once; "
                           "warm runs measure execution, not setup)")
    flow.add_argument("--store", default=None, metavar="DIR",
                      help="ingest the entities/relations sinks into an "
                           "entity/fact store persisted under DIR")
    flow.add_argument("--report", default=None, metavar="PATH",
                      help="write the execution report as JSON")
    flow.add_argument("--metrics-out", default=None, metavar="PATH",
                      help="export per-stage metrics (including "
                           "volatile wall-clock timings) as JSON lines")
    flow.add_argument("--trace", default=None, metavar="PATH",
                      help="export per-stage execution spans as JSON "
                           "lines")

    subparsers.add_parser("scalability",
                          help="simulated-cluster scale-out/up sweeps")

    seeds = subparsers.add_parser("seeds", help="seed generation stats")
    seeds.add_argument("--scale", type=int, default=20,
                       help="term-count down-scale factor (default 20)")

    facts = subparsers.add_parser(
        "facts", help="crawl, extract entities/relations into a store, "
        "export JSONL")
    facts.add_argument("--out", default="facts",
                       help="output directory (default ./facts)")
    facts.add_argument("--pages", type=int, default=400)

    serve = subparsers.add_parser(
        "serve", help="long-lived batched extraction server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default 0 = ephemeral; the "
                            "chosen port is printed and written to "
                            "--port-file)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port to PATH once "
                            "listening (for scripted clients)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="extraction worker processes forked after "
                            "warmup, sharing model memory "
                            "copy-on-write (0 = run batches inline; "
                            "default 1)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="hard cap on requests per coalesced batch "
                            "(default 32)")
    serve.add_argument("--max-delay-ms", type=float, metavar="MS",
                       help="deprecated, ignored: there is no "
                            "batching deadline any more — a free "
                            "dispatcher takes what is queued now")
    serve.add_argument("--queue-limit", type=int, default=256,
                       metavar="N",
                       help="admission queue bound; beyond it requests "
                            "are shed with a retryable error "
                            "(default 256)")
    serve.add_argument("--quota", action="append", metavar="SPEC",
                       help="per-tenant token quota [tenant=]rate:burst"
                            " (repeatable; no tenant = default quota "
                            "for unlisted tenants)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the deterministic metrics export on "
                            "shutdown")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="serve the entity/fact store at DIR through "
                            "the 'query' op")

    query = subparsers.add_parser(
        "query", help="query a persisted entity/fact store")
    query.add_argument("store", metavar="STORE",
                       help="store directory written by --store "
                            "(or the store.json file itself)")
    query.add_argument("--entity", default=None, metavar="NAME",
                       help="facts whose subject or object has this "
                            "canonical name or id")
    query.add_argument("--alias", default=None, metavar="SURFACE",
                       help="facts mentioning this surface form "
                            "(any alias of the canonical entity)")
    query.add_argument("--predicate", default=None, metavar="VERB",
                       help="facts with this predicate (a connecting "
                            "verb, or 'associated_with')")
    query.add_argument("--url", default=None, metavar="URL",
                       help="facts with provenance from this source URL")
    query.add_argument("--limit", type=int, default=None, metavar="N",
                       help="at most N facts (default: all)")
    query.add_argument("--format", default="table",
                       choices=["table", "json"],
                       help="output format (default table)")
    query.add_argument("--entities", action="store_true",
                       help="list canonical entities instead of facts")

    loadgen = subparsers.add_parser(
        "loadgen", help="drive a running server with closed-loop load")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None)
    loadgen.add_argument("--port-file", default=None, metavar="PATH",
                         help="read the port from PATH (written by "
                              "repro serve --port-file)")
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--concurrency", type=int, default=4,
                         help="client connections (default 4)")
    loadgen.add_argument("--window", type=int, default=8,
                         help="pipelined in-flight requests per "
                              "connection (default 8)")
    loadgen.add_argument("--unique-texts", type=int, default=64,
                         help="distinct sentences in the generated "
                              "workload (default 64)")
    loadgen.add_argument("--tenant", default="default")
    loadgen.add_argument("--expect-multi-batch", action="store_true",
                         help="exit 1 unless the server coalesced at "
                              "least one multi-request batch")
    loadgen.add_argument("--shutdown", action="store_true",
                         help="send a shutdown op when done")
    loadgen.add_argument("--json", default=None, metavar="PATH",
                         help="also write the summary as JSON")

    report = subparsers.add_parser(
        "report", help="render an exported metrics file as a summary")
    report.add_argument("metrics", metavar="METRICS",
                        help="metrics JSON-lines file (--metrics-out)")
    report.add_argument("--trace", default=None, metavar="PATH",
                        help="trace JSON-lines file to summarize too")
    return parser


def _context(args, **overrides):
    from repro.core.experiment import default_context

    return default_context(seed=args.seed, n_training_docs=30,
                           crf_iterations=25, **overrides)


def _parse_faults(spec: str, seed: int):
    from repro.web.faults import FaultConfig

    try:
        rate = float(spec)
    except ValueError:
        return FaultConfig.preset(spec, seed=seed)
    return FaultConfig.uniform(rate, seed=seed)


def _print_crawl_report(result, mode: str) -> None:
    from repro.obs.report import (
        format_failures, format_recrawl, format_stage_breakdown,
    )

    print(f"fetched {result.pages_fetched} pages in "
          f"{result.clock_seconds:.0f} simulated seconds "
          f"({result.download_rate:.1f} docs/s)")
    print(f"relevant {len(result.relevant)} | irrelevant "
          f"{len(result.irrelevant)} | harvest {result.harvest_rate:.0%}")
    for line in format_recrawl(result.replay_hits,
                               result.fetches_skipped,
                               result.pages_changed,
                               result.pages_near_unchanged):
        print(line)
    attrition = result.filter_attrition
    print(f"filter attrition: mime {attrition['mime']:.1%}, language "
          f"{attrition['language']:.1%}, length {attrition['length']:.1%}")
    if result.stage_seconds:
        for line in format_stage_breakdown(result.stage_pages,
                                           result.stage_seconds, mode=mode):
            print(line)
    for line in format_failures(result.failure_reasons,
                                result.fetch_failures, result.retries,
                                result.hosts_quarantined):
        print(line)
    print(f"stop reason: {result.stop_reason}")


def _print_round_reports(reports) -> None:
    for report in reports:
        print(f"round {report['round']}: fetched "
              f"{report['pages_fetched']} | skipped "
              f"{report['fetches_skipped']} | replayed "
              f"{report['replay_hits']} | changed "
              f"{report['pages_changed']} "
              f"({report['pages_near_unchanged']} near-unchanged) | "
              f"relevant {report['relevant']}")


def _build_store_from_crawl(ctx, result, store_dir, metrics=None):
    """Shared crawl-sink ingestion: analyze relevant pages, persist the
    store, and publish its (deterministic) metrics before export.
    Returns the store."""
    from repro.store import EntityStore, ingest_crawl_result

    store = EntityStore(vocabulary=ctx.vocabulary)
    n_docs = ingest_crawl_result(store, result, ctx.pipeline)
    if metrics is not None:
        store.publish_metrics(metrics)
    path = store.save(store_dir)
    snapshot = store.snapshot()
    print(f"store: {snapshot.n_facts} facts "
          f"({snapshot.n_corroborated} corroborated) from {n_docs} "
          f"documents | {snapshot.n_entities} entities, "
          f"{snapshot.n_alias_merges} alias merges -> {path}")
    return store


def cmd_crawl(args) -> int:
    import os

    from repro.crawler.checkpoint import CheckpointError, ResumableCrawl
    from repro.crawler.crawl import CrawlConfig, FocusedCrawler
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.web.server import SimulatedClock, SimulatedWeb

    if args.recrawl_rounds < 1:
        print("error: --recrawl-rounds must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.churn <= 1.0:
        print("error: --churn must be in [0, 1]", file=sys.stderr)
        return 2
    if args.shards is not None:
        return _cmd_crawl_sharded(args)
    ctx = _context(args, n_hosts=args.hosts, crawl_pages=args.pages)
    faults = _parse_faults(args.faults, seed=args.seed)
    web = SimulatedWeb(ctx.webgraph, seed=args.seed + 12, faults=faults,
                       churn_rate=args.churn)
    config = CrawlConfig(max_pages=args.pages,
                         follow_irrelevant_steps=args.follow_irrelevant,
                         parallel_workers=args.workers)
    if args.checkpoint:
        # Checkpoints are only taken at batch boundaries; align the
        # batch size with the requested cadence so they actually fire.
        config.batch_size = min(config.batch_size,
                                max(1, args.checkpoint_every))
    clock = SimulatedClock()
    metrics = MetricsRegistry() if args.metrics_out else None
    # Spans are timed on the simulated clock, which makes the trace a
    # deterministic function of the crawl — identical at any worker
    # count and across kill/resume.
    tracer = Tracer(clock=lambda: clock.now) if args.trace else None
    crawler = FocusedCrawler(
        web, ctx.pipeline.classifier, ctx.build_filter_chain(), config,
        clock=clock, metrics=metrics, tracer=tracer)
    seeds = ctx.seed_batch("second").urls
    kill_after = args.kill_after

    def page_callback(partial) -> None:
        if kill_after is not None and partial.pages_fetched >= kill_after:
            print(f"kill-after reached at {partial.pages_fetched} pages; "
                  "hard exit")
            sys.stdout.flush()
            os._exit(9)

    if args.recrawl_rounds > 1:
        from repro.crawler.recrawl import PageMemory, RecrawlScheduler

        crawler.memory = PageMemory()
        crawler.scheduler = RecrawlScheduler(seed=args.seed)
    driver = ResumableCrawl(crawler, args.checkpoint,
                            rounds=args.recrawl_rounds)
    if (args.resume and args.checkpoint
            and not driver.checkpoint_path.exists()):
        print(f"no checkpoint at {args.checkpoint}; starting fresh")
    try:
        result = driver.run(list(seeds),
                            checkpoint_every=args.checkpoint_every,
                            resume=args.resume,
                            page_callback=page_callback)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.recrawl_rounds > 1:
        _print_round_reports(driver.round_reports)
    mode = (f"{args.workers} workers" if args.workers > 1
            else "sequential")
    _print_crawl_report(result, mode)
    if args.store:
        _build_store_from_crawl(ctx, result, args.store, metrics=metrics)
    if metrics is not None:
        path = metrics.write_jsonl(args.metrics_out)
        print(f"wrote metrics: {path}")
    if tracer is not None:
        path = tracer.write_jsonl(args.trace)
        print(f"wrote trace: {path}")
    return 0


def _cmd_crawl_sharded(args) -> int:
    import os

    from repro.crawler.checkpoint import CheckpointError
    from repro.crawler.crawl import CrawlConfig
    from repro.crawler.shard import ShardCrawler, ShardedCrawl
    from repro.obs.metrics import MetricsRegistry
    from repro.web.server import SimulatedClock, SimulatedWeb

    if args.trace:
        print("error: --trace is not supported with --shards "
              "(span trees are per-process; use --metrics-out, "
              "which merges deterministically)", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    ctx = _context(args, n_hosts=args.hosts, crawl_pages=args.pages)
    faults_spec, base_seed = args.faults, args.seed
    config = CrawlConfig(max_pages=args.pages,
                         follow_irrelevant_steps=args.follow_irrelevant,
                         parallel_workers=args.workers)
    want_metrics = args.metrics_out is not None

    rounds = args.recrawl_rounds

    def factory(shard_id: int) -> ShardCrawler:
        # Each shard gets its own web/filters/metrics: hosts are
        # disjoint across shards and the simulated web derives all
        # per-host behaviour from the (shared) seed, so N copies
        # behave exactly like one.  Page memory and scheduler are
        # likewise per-shard: keyed by URL / host, they never overlap.
        web = SimulatedWeb(ctx.webgraph, seed=base_seed + 12,
                           faults=_parse_faults(faults_spec,
                                                seed=base_seed),
                           churn_rate=args.churn)
        recrawl_kwargs = {}
        if rounds > 1:
            from repro.crawler.recrawl import (
                PageMemory, RecrawlScheduler,
            )

            recrawl_kwargs = {
                "memory": PageMemory(),
                "scheduler": RecrawlScheduler(seed=base_seed),
            }
        return ShardCrawler(
            shard_id, args.shards, web, ctx.pipeline.classifier,
            ctx.build_filter_chain(), config, clock=SimulatedClock(),
            metrics=MetricsRegistry() if want_metrics else None,
            **recrawl_kwargs)

    driver = ShardedCrawl(
        factory, args.shards, args.pages, rounds=rounds,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every if args.checkpoint else 0,
        processes=args.shards > 1)
    kill_after = args.kill_after

    def barrier_callback(total_pages: int) -> None:
        if kill_after is not None and total_pages >= kill_after:
            print(f"kill-after reached at {total_pages} pages; "
                  "hard exit")
            sys.stdout.flush()
            os._exit(9)

    seeds = ctx.seed_batch("second").urls
    resume = args.resume and args.checkpoint is not None
    try:
        result = driver.run(list(seeds), resume=resume,
                            barrier_callback=barrier_callback)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"sharded crawl: {args.shards} shards, "
          f"{driver.supersteps} supersteps")
    _print_round_reports(driver.round_reports)
    _print_crawl_report(result, mode=f"{args.shards} shards")
    if args.store:
        _build_store_from_crawl(ctx, result, args.store,
                                metrics=driver.metrics)
    if want_metrics and driver.metrics is not None:
        path = driver.metrics.write_jsonl(args.metrics_out)
        print(f"wrote metrics: {path}")
    return 0


def cmd_analyze(args) -> int:
    ctx = _context(args, corpus_docs=args.docs)
    stats = ctx.corpus_stats()
    header = (f"{'corpus':<11} {'docs':>5} {'mean chars':>11} "
              f"{'sent tokens':>12} {'dict names':>11} {'ml names':>9}")
    print(header)
    for name in ("relevant", "irrelevant", "medline", "pmc"):
        corpus = stats[name]
        dictionary = sum(corpus.distinct_names(t, "dictionary")
                         for t in ("disease", "drug", "gene"))
        ml = sum(corpus.distinct_names(t, "ml")
                 for t in ("disease", "drug", "gene"))
        print(f"{name:<11} {corpus.n_docs:>5} "
              f"{corpus.mean_doc_chars:>11,.0f} "
              f"{corpus.mean_sentence_tokens:>12.1f} "
              f"{dictionary:>11} {ml:>9}")
    return 0


def cmd_flow(args) -> int:
    import os

    from repro.core.flows import FlowSession
    from repro.web.htmlgen import PageRenderer

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2

    ctx = _context(args, corpus_docs=max(8, args.docs))
    automaton = ctx.pipeline.dictionary_taggers["gene"].shared
    renderer = PageRenderer(seed=args.seed)
    documents = []
    for index, document in enumerate(
            ctx.corpus_documents("relevant")[:args.docs]):
        url = f"http://flow{index}.example.org/doc.html"
        document.raw = renderer.render(url, "t", document.text, [])
        document.meta.update({"url": url, "content_type": "text/html"})
        documents.append(document)
    dop = args.dop or os.cpu_count() or 1
    metrics = tracer = None
    if args.metrics_out:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    session = FlowSession(ctx.pipeline, mode=args.mode, dop=dop,
                          metrics=metrics, tracer=tracer)
    if session.fused_stages:
        print(f"fused {session.fused_stages} physical stage(s) "
              f"into the plan")
    for run_index in range(args.repeat):
        outputs, report = session.run(documents)
        if args.repeat > 1:
            print(f"run {run_index + 1}: {report.total_seconds:.2f} s "
                  f"({report.total_records_per_second:.1f} docs/s)")
    print(f"mode {report.mode} (dop {report.dop}) | "
          f"{len(documents)} documents in {report.total_seconds:.2f} s "
          f"({report.total_records_per_second:.1f} docs/s)")
    training_seconds = sum(tagger.crf.training_report.seconds
                           for tagger in ctx.pipeline.ml_taggers.values())
    print(f"dictionary build {automaton.build_seconds:.2f} s (1 automaton) "
          f"| CRF training {training_seconds:.2f} s")
    for name in sorted(outputs):
        print(f"sink {name}: {len(outputs[name])} records")
    print(f"{'stage':<58} {'in':>6} {'out':>6} {'seconds':>8} {'rec/s':>9}")
    for stats in report.operator_stats:
        print(f"{stats.name[:58]:<58} {stats.records_in:>6} "
              f"{stats.records_out:>6} {stats.seconds:>8.3f} "
              f"{stats.records_per_second:>9.0f}")
    if args.store:
        from repro.store import EntityStore, ingest_flow_outputs

        store = EntityStore(vocabulary=ctx.vocabulary)
        n_entities, n_relations = ingest_flow_outputs(store, outputs)
        if metrics is not None:
            store.publish_metrics(metrics)
        path = store.save(args.store)
        snapshot = store.snapshot()
        print(f"store: {snapshot.n_facts} facts from {n_relations} "
              f"relation / {n_entities} entity records | "
              f"{snapshot.n_entities} entities -> {path}")
    if args.report:
        from repro.persist import write_file

        write_file(args.report, report.to_json())
        print(f"wrote report: {args.report}")
    if metrics is not None:
        # Flow timings are the point here, so include the volatile
        # wall-clock metrics (this export is NOT run-to-run stable).
        path = metrics.write_jsonl(args.metrics_out, include_volatile=True)
        print(f"wrote metrics: {path}")
    if tracer is not None:
        path = tracer.write_jsonl(args.trace)
        print(f"wrote trace: {path}")
    return 0


def cmd_scalability(_args) -> int:
    from repro.dataflow.cluster import (
        ENTITY_OPS, LINGUISTIC_OPS, PREPROCESSING_OPS, SimulatedCluster,
    )

    cluster = SimulatedCluster()
    ling = PREPROCESSING_OPS + LINGUISTIC_OPS
    entity = PREPROCESSING_OPS + ENTITY_OPS
    print(f"{'DoP':>4} {'linguistic':>12} {'entity':>12}")
    for dop in (1, 4, 8, 16, 28):
        ling_report = cluster.run_flow(ling, 20, dop, colocated=False)
        entity_report = cluster.run_flow(entity, 20, dop, colocated=False)
        entity_cell = (f"{entity_report.seconds:>10.0f} s"
                       if entity_report.feasible else "infeasible")
        print(f"{dop:>4} {ling_report.seconds:>10.0f} s {entity_cell:>12}")
    return 0


def cmd_seeds(args) -> int:
    from repro.crawler.search import build_search_engines
    from repro.crawler.seeds import SeedGenerator

    ctx = _context(args)
    generator = SeedGenerator(build_search_engines(ctx.webgraph),
                              ctx.vocabulary)
    batch = generator.second_round(scale=args.scale)
    for category, count, examples in batch.table1_rows():
        print(f"{category:<8} {count:>5} terms   e.g. {examples}")
    print(f"{batch.queries_issued} queries -> {batch.n_seeds} seed URLs")
    return 0


def cmd_facts(args) -> int:
    ctx = _context(args, crawl_pages=args.pages)
    result = ctx.run_crawl(max_pages=args.pages)
    store = _build_store_from_crawl(ctx, result, args.out)
    for artifact, path in store.export(args.out).items():
        print(f"wrote {artifact}: {path}")
    return 0


def cmd_query(args) -> int:
    import json

    from repro.store import (
        EntityStore, QueryEngine, StoreError, format_fact_table,
    )

    try:
        store = EntityStore.load(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = QueryEngine(store)
    if args.entities:
        entities = engine.entities(alias=args.alias)
        if args.limit is not None:
            entities = entities[:args.limit]
        if args.format == "json":
            print(json.dumps({"count": len(entities),
                              "entities": entities},
                             indent=2, sort_keys=True))
        else:
            for entity in entities:
                aliases = ", ".join(entity["aliases"][:4])
                print(f"{entity['id']:<24} {entity['name']:<24} "
                      f"mentions {entity['mentions']:>4} | "
                      f"sources {entity['sources']:>3} | {aliases}")
            if not entities:
                print("no matching entities")
        return 0
    try:
        facts = engine.facts(entity=args.entity, alias=args.alias,
                             predicate=args.predicate, url=args.url,
                             limit=args.limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"count": len(facts), "facts": facts},
                         indent=2, sort_keys=True))
    else:
        for line in format_fact_table(facts):
            print(line)
    return 0


def cmd_serve(args) -> int:
    from repro.persist import write_file
    from repro.serve.quotas import parse_quota_spec
    from repro.serve.server import ExtractionServer, ServeConfig
    from repro.serve.session import ExtractionSession

    query_engine = None
    if args.store:
        from repro.store import EntityStore, QueryEngine, StoreError

        try:
            query_engine = QueryEngine(EntityStore.load(args.store))
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    quotas: dict[str, tuple[float, float]] = {}
    default_quota = None
    for spec in args.quota or []:
        try:
            tenant, rate, burst = parse_quota_spec(spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if tenant is None:
            default_quota = (rate, burst)
        else:
            quotas[tenant] = (rate, burst)
    if args.max_delay_ms is not None:
        print("warning: --max-delay-ms is deprecated and ignored",
              file=sys.stderr)
    ctx = _context(args)
    session = ExtractionSession(ctx.pipeline)
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_batch=args.max_batch, queue_limit=args.queue_limit,
        quotas=quotas,
        default_quota=default_quota, metrics_out=args.metrics_out)
    server = ExtractionServer(session, config,
                              query_engine=query_engine).start()
    host, port = server.address
    print(f"serving on {host}:{port} | workers {config.workers} | "
          f"batch <= {config.policy().count_target} | "
          f"queue limit {config.queue_limit}")
    if query_engine is not None:
        print(f"store: {query_engine.snapshot.n_facts} facts / "
              f"{query_engine.snapshot.n_entities} entities from "
              f"{args.store} (query op enabled)")
    sys.stdout.flush()
    if args.port_file:
        write_file(args.port_file, f"{port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    stats = server.engine.stats()
    print(f"served {sum(stats['requests'].values())} requests in "
          f"{stats['batches']} batches "
          f"({stats['multi_request_batches']} multi-request) | "
          f"shed {stats['shed']} | quota-rejected "
          f"{stats['quota_rejected']}")
    if config.metrics_out:
        print(f"wrote metrics: {config.metrics_out}")
    return 0


def cmd_loadgen(args) -> int:
    import json
    from pathlib import Path

    from repro.persist import write_file
    from repro.serve.loadgen import (
        LoadGenerator, ServeClient, generate_workload,
    )

    port = args.port
    if port is None and args.port_file:
        port = int(Path(args.port_file).read_text().strip())
    if port is None:
        print("error: need --port or --port-file", file=sys.stderr)
        return 2
    workload = generate_workload(args.requests, seed=args.seed,
                                 unique_texts=args.unique_texts)
    generator = LoadGenerator(args.host, port,
                              concurrency=args.concurrency,
                              window=args.window)
    generator.run(workload, tenant=args.tenant)
    summary = generator.summary()
    with ServeClient(args.host, port) as client:
        stats = client.call("stats")["result"]
        if args.shutdown:
            client.call("shutdown")
    summary["server"] = {key: stats[key] for key in
                         ("batches", "multi_request_batches", "shed",
                          "quota_rejected", "worker_failures")}
    print(f"{summary['requests']} requests | ok {summary['ok']} | "
          f"errors {summary['errors'] or 'none'}")
    print(f"throughput {summary['throughput_rps']:.0f} req/s | "
          f"p50 {summary['p50_ms']:.2f} ms | "
          f"p99 {summary['p99_ms']:.2f} ms")
    print(f"server batches {stats['batches']} "
          f"({stats['multi_request_batches']} multi-request) | "
          f"shed {stats['shed']} | quota-rejected "
          f"{stats['quota_rejected']}")
    print(f"digest {summary['digest']}")
    if args.json:
        write_file(args.json,
                   json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote summary: {args.json}")
    if args.expect_multi_batch and not stats["multi_request_batches"]:
        print("error: no multi-request batch was coalesced",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from repro.obs.report import render_report

    for line in render_report(args.metrics, trace_path=args.trace):
        print(line)
    return 0


_COMMANDS = {
    "crawl": cmd_crawl,
    "analyze": cmd_analyze,
    "flow": cmd_flow,
    "scalability": cmd_scalability,
    "seeds": cmd_seeds,
    "facts": cmd_facts,
    "query": cmd_query,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
