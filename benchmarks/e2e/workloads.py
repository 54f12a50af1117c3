"""The four end-to-end workloads (see README.md for why each exists).

Every workload builds its inputs from the ``--seed`` it is given (the
trained pipeline is the program's configuration and stays on the CLI's
own seed 19), runs the program through its public entry points only,
and returns one :class:`Repeat` per pass over its timed region.  A
repeat carries wall and CPU time, the operations attempted and failed,
a digest of everything the program produced, a planted-truth quality
tally, and the per-layer numbers read from public result fields.

With a :class:`~spans.SpanRecorder` a repeat also records spans around
the same calls; the program does exactly the same work either way.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import resource
import shutil
import socket
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import ROOT, SpanRecorder

from repro.corpora.medline import MedlineCorpusBuilder
from repro.corpora.pmc import PmcCorpusBuilder
from repro.corpora.profiles import IRRELEVANT, RELEVANT
from repro.corpora.textgen import DocumentGenerator
from repro.crawler.checkpoint import result_to_dict
from repro.crawler.crawl import CrawlConfig, FocusedCrawler
from repro.crawler.recrawl import PageMemory, RecrawlScheduler
from repro.crawler.search import build_search_engines
from repro.crawler.seeds import SeedGenerator
from repro.ner.relations import RelationExtractor
from repro.store import (
    EntityStore, QueryEngine, alias_key, ingest_documents,
    ingest_flow_outputs,
)
from repro.web.server import SimulatedClock, SimulatedWeb
from repro.web.webgraph import WebGraph, WebGraphConfig

ENTITY_TYPES = ("gene", "drug", "disease")

#: ``CrawlResult.stage_seconds`` key -> span / metric stem.
CRAWL_STAGES = {
    "fetch": "web.fetch", "filters": "crawler.filters",
    "repair": "html.repair", "parse": "crawler.parse",
    "boilerplate": "html.boilerplate", "classify": "classify.predict",
}


# -- measurement primitives ---------------------------------------------------

def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped descendants."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


class Region:
    """One timed region: wall and CPU seconds."""

    def __enter__(self) -> "Region":
        self._cpu_started = cpu_seconds()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.started
        self.cpu = cpu_seconds() - self._cpu_started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def digest_of(payload) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, default=str).encode()).hexdigest()


def f1_of(tally: tuple[int, int, int]) -> float:
    hits, predicted, gold = tally
    if not hits:
        return 0.0
    precision, recall = hits / predicted, hits / gold
    return 2 * precision * recall / (precision + recall)


def tally_entities(predicted: set, gold: set) -> dict[str, tuple]:
    """(hits, predicted, gold) overall and per entity type, over
    ``(key, entity_type, alias)`` triples."""
    tallies = {"all": (len(predicted & gold), len(predicted), len(gold))}
    for entity_type in ENTITY_TYPES:
        mine = {item for item in predicted if item[1] == entity_type}
        theirs = {item for item in gold if item[1] == entity_type}
        tallies[entity_type] = (len(mine & theirs), len(mine), len(theirs))
    return tallies


def gold_triples(key: str, gold_document) -> set:
    return {(key, entity.mention.entity_type,
             alias_key(entity.mention.text))
            for entity in gold_document.entities}


def stored_triples(store: EntityStore) -> set:
    return {(mention["url"], mention["entity_type"],
             alias_key(mention["surface"]))
            for mention in store.to_dict()["mentions"]}


#: The crawler's ``LengthFilter`` bound; the flow input keeps to it too,
#: so that one 45 000-character page in or out does not decide a run.
MAX_DOCUMENT_CHARS = 20_000


def fill(documents: list, target_chars: int) -> list:
    """``documents`` in order, skipping any that would overshoot
    ``target_chars``: the text volume -- what annotation cost follows --
    lands within a percent or two of the target whatever the seed."""
    chosen, total = [], 0
    for document in documents:
        if (len(document.text) <= MAX_DOCUMENT_CHARS
                and total + len(document.text) <= target_chars):
            chosen.append(document)
            total += len(document.text)
    return chosen


@dataclass
class Repeat:
    """What one pass over a workload's timed region produced."""

    wall: float
    cpu: float
    #: Untimed per-repeat preparation (fresh web/crawler/server/...);
    #: counted into ``setup_s`` so work moved out of the region shows.
    prep: float
    attempted: int
    failed: int
    digest: str
    #: label -> (hits, predicted, gold); "all" feeds ``quality_f1``.
    quality: dict[str, tuple[int, int, int]]
    #: Per-layer numbers read from public result fields.
    detail: dict[str, float] = field(default_factory=dict)
    #: Output checks that did not hold (each also counts as failed).
    problems: list[str] = field(default_factory=list)


def span(tracer: SpanRecorder | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Workload:
    """Base: shared context plus the per-workload hooks the driver
    calls (``setup`` once, ``warm`` once, ``run_once`` per repeat,
    ``extras`` once in the traced run)."""

    name = ""
    #: Nominal seconds one repeat takes on the reference box; the
    #: driver runs ``round(--seconds / unit_seconds)`` repeats.
    unit_seconds = 1.0

    def __init__(self, ctx, seed: int, smoke: bool,
                 workdir: Path) -> None:
        self.ctx = ctx
        self.pipeline = ctx.pipeline
        self.vocabulary = ctx.vocabulary
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> dict[str, float]:
        return {}

    def warm(self) -> None:
        self.run_once(None)

    def run_once(self, tracer: SpanRecorder | None) -> Repeat:
        raise NotImplementedError

    def extras(self, baseline: list[Repeat]) -> tuple[dict, list[str]]:
        """Traced-run-only measurements on the same input: (per-layer
        numbers, output checks that did not hold)."""
        return {}, []

    # -- shared crawl plumbing -----------------------------------------------

    def pick_web(self, n_hosts: int, text_chars: int | None = None,
                 **config) -> WebGraphConfig:
        """The seed's web of ``n_hosts`` hosts: with ``text_chars``, the
        first of its candidate webs that holds about that much text.

        Indexing and crawling cost follow text volume, and host sizes
        and page lengths are heavy-tailed, so webs of one host count
        differ by 10-13 % in volume; page classes alone predict it to
        3 %, without rendering a page."""
        for attempt in itertools.count():
            candidate = WebGraphConfig(
                n_hosts=n_hosts, seed=self.seed + 11 + 1_000 * attempt,
                **config)
            if text_chars is None or abs(
                    estimated_chars(self.build_graph(candidate))
                    / text_chars - 1.0) <= 0.03:
                return candidate

    def build_graph(self, config: WebGraphConfig) -> WebGraph:
        return WebGraph(config, vocabulary=self.vocabulary)

    def build_web(self, graph: WebGraph, churn: float = 0.0,
                  ) -> SimulatedWeb:
        # No injected errors or timeouts: every fetch of an existing
        # page must succeed, so any failure other than a planted dead
        # link (404) is a real one.
        return SimulatedWeb(graph, seed=self.seed + 12, error_rate=0.0,
                            timeout_rate=0.0, churn_rate=churn)

    def build_crawler(self, web: SimulatedWeb, max_pages: int,
                      **kwargs) -> FocusedCrawler:
        kwargs.setdefault("clock", SimulatedClock())
        return FocusedCrawler(
            web, self.pipeline.classifier, self.ctx.build_filter_chain(),
            CrawlConfig(max_pages=max_pages), **kwargs)


def estimated_chars(graph: WebGraph) -> int:
    """Text volume of a web from its page classes (nothing rendered)."""
    total = 0
    for page in graph.pages.values():
        if page.kind != "article":
            total += 300
        elif page.language != "en":
            total += 1_500
        elif page.length_class == "long":
            total += 25_000
        elif page.length_class == "short":
            total += 150
        else:
            total += (RELEVANT if page.biomedical
                      else IRRELEVANT).mean_doc_chars
    return total


def traced_crawl(tracer, crawler: FocusedCrawler, seeds, **kwargs):
    """``crawler.crawl`` under a span whose parts are the stage
    seconds the crawler reports; the span's self time is what is left
    (frontier, linkdb, scheduling): ``crawler.other_s``."""
    with span(tracer, "crawler.other") as record:
        result = crawler.crawl(list(seeds), **kwargs)
    if tracer is not None:
        tracer.add_parts(record, {
            CRAWL_STAGES[stage]: seconds
            for stage, seconds in result.stage_seconds.items()
            if stage in CRAWL_STAGES})
    return result


def planted_page(graph: WebGraph, url: str):
    """The page behind a crawled URL (redirects add ``?ref=r``)."""
    return graph.page(url) or graph.page(url.removesuffix("?ref=r"))


def unplanned_failures(result) -> int:
    """Fetch failures other than planted dead links."""
    return result.fetch_failures - result.failure_reasons.get(
        "not_found", 0)


def crawl_detail(result, web: SimulatedWeb, wall: float) -> dict:
    pages, seconds = result.stage_pages, result.stage_seconds
    detail = {f"{stem}_s": seconds.get(stage, 0.0)
              for stage, stem in CRAWL_STAGES.items()}
    entered = pages.get("filters", 0)
    detail.update({
        "crawler.other_s": wall - sum(detail.values()),
        "web.fetch_count": web.fetch_count,
        "web.fetch_failed": unplanned_failures(result),
        "crawler.filters_in": entered,
        "crawler.filters_pass_ratio":
            pages.get("classify", 0) / entered if entered else 0.0,
        "html.pages": pages.get("repair", 0),
        "classify.pages": pages.get("classify", 0),
        "crawler.pages_fetched": result.pages_fetched,
        "crawler.harvest_ratio":
            len(result.relevant) / max(1, result.pages_fetched),
        "crawler.replay_hits": result.replay_hits,
        "crawler.fetches_skipped": result.fetches_skipped,
        "crawler.pages_changed": result.pages_changed,
    })
    return detail


def add_into(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


# -- crawl_cold -----------------------------------------------------------------

class CrawlCold(Workload):
    """Sequential focused crawl; no NLP, store, or serve work."""

    name = "crawl_cold"
    unit_seconds = 1.45

    def setup(self) -> dict[str, float]:
        n_hosts, self.max_pages, text_chars = (
            (12, 60, None) if self.smoke else (150, 1000, 9_600_000))
        config = self.pick_web(n_hosts, text_chars)
        started = time.perf_counter()
        self.graph = self.build_graph(config)
        built = time.perf_counter() - started
        # Seeds a search round would return: relevant article pages.
        # (SeedGenerator indexes every page of the web, 6 s at this
        # size; crawl_to_facts times it, this workload bypasses it.)
        rng = random.Random(self.seed)
        relevant = sorted(self.graph.relevant_urls())
        self.seeds = rng.sample(relevant, min(len(relevant),
                                              self.max_pages // 5))
        return {"core.webgraph_build_s": built}

    def run_once(self, tracer, observed: bool = False,
                 **crawl_kwargs) -> Repeat:
        started = time.perf_counter()
        web = self.build_web(self.graph)
        kwargs = {}
        if observed:
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.trace import Tracer

            # What `repro crawl --metrics-out --trace` attaches.
            clock = SimulatedClock()
            kwargs = {"clock": clock, "metrics": MetricsRegistry(),
                      "tracer": Tracer(clock=lambda: clock.now)}
        crawler = self.build_crawler(web, self.max_pages, **kwargs)
        prep = time.perf_counter() - started
        with Region() as region, span(tracer, ROOT):
            result = traced_crawl(tracer, crawler, self.seeds,
                                  **crawl_kwargs)
        return self.repeat_of(result, web, region, prep)

    def repeat_of(self, result, web, region, prep: float) -> Repeat:
        # Planted truth: was each classified page really biomedical?
        truth = {url for document in result.relevant + result.irrelevant
                 if planted_page(self.graph,
                                 url := document.meta["url"]).biomedical}
        predicted = {document.meta["url"] for document in result.relevant}
        return Repeat(
            wall=region.wall, cpu=region.cpu, prep=prep,
            attempted=result.pages_fetched + result.fetch_failures,
            failed=unplanned_failures(result),
            digest=digest_of(result_to_dict(result)),
            quality={"all": (len(predicted & truth), len(predicted),
                             len(truth))},
            detail=crawl_detail(result, web, region.wall))

    def extras(self, baseline):
        detail, problems = {}, []
        digest = baseline[0].digest
        workers2 = self.run_once(None, parallel_workers=2)
        detail["crawler.workers2_wall_s"] = workers2.wall
        if workers2.digest != digest:
            problems.append("workers2 digest differs from sequential")
        shard_digests = {}
        for shards in (1, 2):
            wall, shard_digests[shards] = self.run_sharded(shards)
        detail["crawler.shards2_wall_s"] = wall
        if shard_digests[1] != shard_digests[2]:
            problems.append("shards2 digest differs from shards1")
        observed = [self.run_once(None, observed=True) for _ in range(2)]
        if any(repeat.digest != digest for repeat in observed):
            problems.append("observed crawl digest differs")
        detail["obs.program_obs_overhead_ratio"] = (
            min(r.wall for r in observed) / min(r.wall for r in baseline))
        return detail, problems

    def run_sharded(self, shards: int) -> tuple[float, str]:
        from repro.crawler.shard import ShardCrawler, ShardedCrawl

        def factory(shard_id: int) -> ShardCrawler:
            return ShardCrawler(
                shard_id, shards, self.build_web(self.graph),
                self.pipeline.classifier, self.ctx.build_filter_chain(),
                CrawlConfig(max_pages=self.max_pages),
                clock=SimulatedClock())

        driver = ShardedCrawl(factory, shards, self.max_pages,
                              processes=shards > 1)
        started = time.perf_counter()
        result = driver.run(list(self.seeds))
        return (time.perf_counter() - started,
                digest_of(result_to_dict(result)))


# -- crawl_to_facts -------------------------------------------------------------

class CrawlToFacts(Workload):
    """The north-star path: seed queries in, ranked facts out, then
    warm recrawl rounds that refresh the store."""

    name = "crawl_to_facts"
    unit_seconds = 4.3
    churn = 0.1
    warm_rounds = 2

    def setup(self) -> dict[str, float]:
        # Each round crawls ``max_pages`` and stores the first
        # ``harvest_chars`` of relevant net text it harvested, so the
        # annotation work is the same whatever the seed.
        (n_hosts, text_chars, self.max_pages, self.harvest_chars,
         self.n_queries, self.seed_scale) = (
            (8, None, 40, 20_000, 40, 60) if self.smoke
            else (24, 1_600_000, 120, 120_000, 500, 20))
        # No extremely long pages (crawl_cold's web has them): they
        # never reach the store, and at a hundred pages a round whether
        # four or ten of them are 25 000 characters long would decide
        # what the crawl costs.
        self.web_config = self.pick_web(n_hosts, text_chars,
                                        long_page_fraction=0.0)
        return {}

    def warm(self) -> None:
        # A full pass costs as much as a measured one; a miniature web
        # touches the same lazy kernels.
        sizes = self.web_config, self.max_pages, self.harvest_chars
        self.web_config, self.max_pages, self.harvest_chars = (
            self.pick_web(4), 20, 10_000)
        try:
            self.run_once(None)
        finally:
            self.web_config, self.max_pages, self.harvest_chars = sizes

    def make_queries(self, snapshot, rng: random.Random) -> list[dict]:
        """Alias / entity / predicate / url lookups drawn from what
        the store holds, so every query has an answer to rank."""
        aliases = [alias for entity in snapshot.entities
                   for alias in entity["aliases"]] or ["aspirin"]
        names = [entity["name"] for entity in snapshot.entities] or aliases
        predicates = sorted({fact["predicate"]
                             for fact in snapshot.facts}) or ["treats"]
        urls = sorted({source["url"] for fact in snapshot.facts
                       for source in fact["provenance"]}) or ["http://x/"]
        makers = (lambda: {"alias": rng.choice(aliases), "limit": 10},
                  lambda: {"entity": rng.choice(names)},
                  lambda: {"predicate": rng.choice(predicates),
                           "limit": 20},
                  lambda: {"url": rng.choice(urls)})
        return [makers[index % 4]() for index in range(self.n_queries)]

    def run_once(self, tracer) -> Repeat:
        started = time.perf_counter()
        # A fresh graph each repeat: page text is rendered lazily and
        # cached, and first contact with a web pays for it.
        graph = self.build_graph(self.web_config)
        counts = {"core.webgraph_build_s": time.perf_counter() - started,
                  "nlp.sentences": 0, "nlp.tokens": 0}
        workdir = self.fresh_dir("stores")
        pipeline, extractor = self.pipeline, RelationExtractor()
        if tracer is not None:
            def count(document) -> None:
                counts["nlp.sentences"] += len(document.sentences)
                counts["nlp.tokens"] += sum(
                    len(sentence.tokens)
                    for sentence in document.sentences)

            tracer.wrap(pipeline, "preprocess", "nlp.split_tokenize",
                        observe=count)
            tracer.wrap(pipeline.linguistics, "analyze",
                        "nlp.linguistics")
            for tagger in pipeline.dictionary_taggers.values():
                tracer.wrap(tagger, "annotate", "ner.dictionary")
            for tagger in pipeline.ml_taggers.values():
                tracer.wrap(tagger, "annotate", "ner.crf")
            tracer.wrap(extractor, "extract", "ner.relations")
        rng = random.Random(self.seed)
        rounds = []
        prep = time.perf_counter() - started
        try:
            with Region() as region, span(tracer, ROOT):
                with span(tracer, "crawler.seeds"):
                    seeds = SeedGenerator(
                        build_search_engines(graph), self.vocabulary,
                    ).second_round(scale=self.seed_scale).urls
                seeds_s = time.perf_counter() - region.started
                web = self.build_web(graph, churn=self.churn)
                crawler = self.build_crawler(
                    web, self.max_pages, memory=PageMemory(),
                    scheduler=RecrawlScheduler(seed=self.seed))
                for rnd in range(1 + self.warm_rounds):
                    round_started = time.perf_counter()
                    crawler.begin_round(rnd)
                    result = traced_crawl(tracer, crawler, seeds)
                    crawl_s = time.perf_counter() - round_started
                    harvest = fill(result.relevant, self.harvest_chars)
                    with span(tracer, "store.ingest"):
                        store = EntityStore(vocabulary=self.vocabulary)
                        ingest_documents(store, harvest,
                                         pipeline=pipeline,
                                         extractor=extractor, round_=rnd)
                    with span(tracer, "store.snapshot"):
                        store.snapshot()
                    with span(tracer, "store.save"):
                        path = store.save(workdir / f"round{rnd}")
                    with span(tracer, "store.load"):
                        loaded = EntityStore.load(path.parent)
                        engine = QueryEngine(loaded)
                    queries = self.make_queries(engine.snapshot, rng)
                    answers, latencies = [], []
                    with span(tracer, "store.query"):
                        for query in queries:
                            tick = time.perf_counter_ns()
                            answers.append(engine.facts(**query))
                            latencies.append(
                                time.perf_counter_ns() - tick)
                    rounds.append({
                        "wall": time.perf_counter() - round_started,
                        "crawl_s": crawl_s, "result": result,
                        "harvest": harvest,
                        "store": store, "loaded": loaded, "path": path,
                        "queries": queries, "answers": answers,
                        "latencies": latencies})
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        repeat = self.check(graph, web, rounds, region, prep, seeds_s,
                            len(seeds))
        repeat.detail.update(counts)
        shutil.rmtree(workdir)
        return repeat

    def check(self, graph, web, rounds, region, prep, seeds_s,
              n_seeds) -> Repeat:
        attempted = failed = 0
        problems, digests, detail = [], [], {}
        latencies = []
        for rnd, entry in enumerate(rounds):
            result, store, loaded = (entry["result"], entry["store"],
                                     entry["loaded"])
            attempted += (result.pages_fetched + result.fetch_failures
                          + len(entry["queries"]))
            failed += unplanned_failures(result)
            # Every answer served from the reloaded store must equal a
            # direct lookup on the store that was built in memory.
            reference = QueryEngine(store)
            wrong = sum(answer != reference.facts(**query)
                        for query, answer in zip(entry["queries"],
                                                 entry["answers"]))
            if wrong:
                failed += wrong
                problems.append(f"round {rnd}: {wrong} query answers "
                                "differ from the reference lookup")
            saved = entry["path"].read_bytes()
            again = loaded.save(entry["path"].parent / "again")
            if again.read_bytes() != saved:
                failed += 1
                problems.append(f"round {rnd}: save -> load -> save is "
                                "not byte-identical")
            digests.append((digest_of(result_to_dict(result)),
                            loaded.digest()))
            add_into(detail, crawl_detail(result, web, entry["crawl_s"]))
            latencies.extend(entry["latencies"])
        # Ratios and web totals do not add across rounds: restate them.
        cold = rounds[0]["result"]
        detail["crawler.harvest_ratio"] = (
            len(cold.relevant) / max(1, cold.pages_fetched))
        detail["crawler.filters_pass_ratio"] = (
            detail["classify.pages"] / max(1, detail["crawler.filters_in"]))
        detail["web.fetch_count"] = web.fetch_count
        final = rounds[-1]
        snapshot = final["loaded"].snapshot()
        detail.update({
            "crawler.seeds_s": seeds_s, "crawler.seeds_count": n_seeds,
            "phase.cold_round_s": seeds_s + rounds[0]["wall"],
            "phase.warm_round_s": statistics.median(
                entry["wall"] for entry in rounds[1:]),
            "store.query_p50_us": percentile(latencies, 50) / 1e3,
            "store.query_p99_us": percentile(latencies, 99) / 1e3,
            "store.mentions": snapshot.n_mentions,
            "store.facts": snapshot.n_facts,
            "store.entities": snapshot.n_entities,
            "store.bytes": len(final["path"].read_bytes()),
            "ner.mentions": snapshot.n_mentions,
        })
        # Scored on the cold round: churn rewrites page text, and the
        # planted truth describes the web as first published.
        gold = set()
        for document in rounds[0]["harvest"]:
            url = document.meta["url"]
            gold |= gold_triples(url, graph.gold_document(
                planted_page(graph, url).url))
        return Repeat(
            wall=region.wall, cpu=region.cpu, prep=prep,
            attempted=attempted, failed=failed,
            digest=digest_of(digests),
            quality=tally_entities(stored_triples(rounds[0]["loaded"]),
                                   gold),
            detail=detail, problems=problems)


# -- flow_pages -----------------------------------------------------------------

#: First operator of an ``ExecutionReport`` stage -> span stem.
FLOW_STAGES = {
    "mime_filter": "dataflow.web_prefix",
    "dedup_content": "dataflow.web_prefix",
    "annotate_sentences": "nlp.split_tokenize",
    "annotate_negation": "dataflow.linguistic",
    "sentences_to_records": "dataflow.linguistic",
    "linguistics_to_records": "dataflow.linguistic",
    "annotate_entities_fused": "dataflow.annotate",
    "extract_relations": "ner.relations",
}


class FlowPages(Workload):
    """The Fig. 2 flow (POS on) over rendered pages into a store."""

    name = "flow_pages"
    unit_seconds = 1.55

    def setup(self) -> dict[str, float]:
        from repro.core.flows import FlowSession
        from repro.web.htmlgen import PageRenderer

        # Characters of crawled-page, Medline-abstract and PMC-article
        # text; documents run from 250 to 20 000 characters.
        relevant, medline, pmc = (
            (20_000, 6_000, 6_000) if self.smoke
            else (200_000, 60_000, 60_000))
        vocabulary, seed = self.vocabulary, self.seed
        golds = (
            fill(DocumentGenerator(vocabulary, RELEVANT, seed=seed + 7)
                 .documents(relevant // 2_000), relevant)
            + fill(MedlineCorpusBuilder(vocabulary, seed=seed + 5)
                   .build(medline // 400), medline)
            + fill(PmcCorpusBuilder(vocabulary, seed=seed + 6)
                   .build(pmc // 1_800), pmc))
        renderer = PageRenderer(seed=seed)
        self.documents, self.gold = [], set()
        for index, gold in enumerate(golds):
            url = f"http://flow{index}.example.org/doc.html"
            document = gold.document.copy_shallow()
            document.raw = renderer.render(url, "t", document.text, [])
            document.meta.update({"url": url,
                                  "content_type": "text/html"})
            self.documents.append(document)
            self.gold |= gold_triples(url, gold)
        self.session = FlowSession(self.pipeline, mode="fused")
        return {}

    def records(self) -> list:
        return [document.copy_shallow() for document in self.documents]

    def annotator(self):
        for node in self.session.plan.nodes:
            engine = getattr(node.operator, "fused_annotator", None)
            if engine is not None:
                return engine
        raise RuntimeError("the fused flow has no one-pass annotator")

    def run_once(self, tracer) -> Repeat:
        started = time.perf_counter()
        records = self.records()
        workdir = self.fresh_dir("flow-store")
        if tracer is not None:
            engine = self.annotator()
            tracer.wrap(engine, "annotate_batch", "nlp.split_tokenize")
            tracer.wrap(engine.pos_tagger, "tag_batch", "nlp.pos")
            tracer.wrap(engine.merged, "scan", "ner.dictionary")
            for step in engine.steps:
                if step.method == "ml":
                    tracer.wrap(step, "annotate_many", "ner.crf")
        prep = time.perf_counter() - started
        try:
            with Region() as region, span(tracer, ROOT):
                with span(tracer, "dataflow.overhead") as record:
                    outputs, report = self.session.run(records)
                if tracer is not None:
                    tracer.add_parts(record, self.stage_parts(
                        tracer, record, report))
                with span(tracer, "store.ingest"):
                    store = EntityStore(vocabulary=self.vocabulary)
                    ingest_flow_outputs(store, outputs)
                with span(tracer, "store.save"):
                    path = store.save(workdir)
                with span(tracer, "store.snapshot"):
                    snapshot = store.snapshot()
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        stats = report.operator_stats
        detail = {
            "dataflow.records_in": len(records),
            "dataflow.records_out": sum(len(rows)
                                        for rows in outputs.values()),
            "dataflow.overhead_s": report.total_seconds - sum(
                stage.seconds for stage in stats),
            "nlp.sentences": len(outputs["sentences"]),
            "nlp.tokens": sum(row["n_tokens"]
                              for row in outputs["sentences"]),
            "ner.mentions": len(outputs["entities"]),
            "store.mentions": snapshot.n_mentions,
            "store.facts": snapshot.n_facts,
            "store.entities": snapshot.n_entities,
            "store.bytes": len(path.read_bytes()),
        }
        repeat = Repeat(
            wall=region.wall, cpu=region.cpu, prep=prep,
            attempted=len(records), failed=0,
            digest=digest_of([outputs, store.digest()]),
            quality=tally_entities(stored_triples(store), self.gold),
            detail=detail)
        shutil.rmtree(workdir)
        return repeat

    @staticmethod
    def stage_parts(tracer, record, report) -> dict[str, float]:
        """Operator seconds grouped by stage; the fused annotate stage
        keeps only what its traced kernels did not already cover."""
        kernels = sum(
            child["end"] - child["start"] for child in tracer.spans
            if child["parent"] == record["id"])
        parts: dict[str, float] = {}
        for stage in report.operator_stats:
            first = (stage.operators or (stage.name,))[0]
            stem = FLOW_STAGES.get(first, "dataflow.sinks")
            seconds = stage.seconds
            if stem == "dataflow.annotate":
                seconds -= kernels
            parts[stem] = parts.get(stem, 0.0) + seconds
        return parts

    def extras(self, baseline):
        from repro.core.flows import FlowSession

        detail, problems = {}, []
        for mode, dop, key in (
                ("sequential", 1, "dataflow.sequential_wall_s"),
                ("fused-processes", 2, "dataflow.processes2_wall_s")):
            session = FlowSession(self.pipeline, mode=mode, dop=dop)
            records = self.records()
            started = time.perf_counter()
            outputs, _report = session.run(records)
            detail[key] = time.perf_counter() - started
            store = EntityStore(vocabulary=self.vocabulary)
            ingest_flow_outputs(store, outputs)
            if digest_of([outputs, store.digest()]) != baseline[0].digest:
                problems.append(f"{mode} sink digest differs from fused")
        return detail, problems


# -- serve_closed_loop ----------------------------------------------------------

class ServeClosedLoop(Workload):
    """A real ``ExtractionServer`` under a light and then a
    saturating closed loop."""

    name = "serve_closed_loop"
    unit_seconds = 3.3
    batch_ops = ("extract", "annotate", "classify")
    text_recurrence = 4
    #: Longer cuts (pathological run-on sentences) are not requests.
    max_request_chars = 1_000

    def setup(self) -> dict[str, float]:
        n_docs, n_store_docs, n_light, n_saturating = \
            (12, 4, 40, 600) if self.smoke else (120, 30, 120, 3_600)
        golds = DocumentGenerator(
            self.vocabulary, RELEVANT,
            seed=self.seed + 7).documents(n_docs)
        rng = random.Random(self.seed)
        self.gold: dict[str, set] = {}
        self.light = self.cut_requests(golds, rng, n_light)
        self.saturating = self.cut_requests(golds, rng, n_saturating)
        # The store `repro serve --store` would be pointed at.
        store = EntityStore(vocabulary=self.vocabulary)
        ingest_documents(
            store, [gold.document for gold in golds[:n_store_docs]],
            pipeline=self.pipeline)
        store.save(self.fresh_dir("served-store"))
        self.query_engine = QueryEngine(store)
        aliases = sorted({alias
                          for entity in self.query_engine.snapshot.entities
                          for alias in entity["aliases"]})
        self.queries = [{"alias": rng.choice(aliases), "limit": 5}
                        for _ in range(max(3, len(self.light) // 9))]
        return {}

    def cut_requests(self, golds, rng, count: int) -> list[tuple[str, str]]:
        """``count`` requests of 1-3 consecutive real sentences, each
        distinct text recurring about ``text_recurrence`` times in
        shuffled order.  The pool of distinct texts is filled to a
        character budget, so the kernel work behind the cache is the
        same whatever the seed."""
        pool, budget = [], count // self.text_recurrence * 300
        while budget > 0:
            gold = rng.choice(golds)
            first = rng.randrange(len(gold.sentences))
            last = min(len(gold.sentences) - 1,
                       first + rng.randrange(3))
            low, high = gold.sentences[first].start, gold.sentences[last].end
            text = gold.text[low:high]
            if not text.strip() or len(text) > self.max_request_chars:
                continue
            pool.append(text)
            budget -= len(text)
            self.gold[text] = {
                (text, entity.mention.entity_type,
                 alias_key(entity.mention.text))
                for entity in gold.entities
                if low <= entity.mention.start
                and entity.mention.end <= high}
        texts = [pool[index % len(pool)] for index in range(count)]
        rng.shuffle(texts)
        return [(self.batch_ops[index % 3], text)
                for index, text in enumerate(texts)]

    def warm(self) -> None:
        # The server warms its own session before it forks; fork and
        # socket set-up are not lazy.  Nothing to pre-run.
        return

    def run_once(self, tracer) -> Repeat:
        from repro.serve.loadgen import LoadGenerator, ServeClient
        from repro.serve.server import ExtractionServer, ServeConfig
        from repro.serve.session import ExtractionSession

        started = time.perf_counter()
        cpu_started = cpu_seconds()
        session = ExtractionSession(
            self.pipeline,
            annotation_cache=str(self.fresh_dir("anno-cache")))
        # `repro serve` defaults.
        server = ExtractionServer(
            session, ServeConfig(workers=1, max_batch=32,
                                 max_delay_ms=10.0, queue_limit=256),
            query_engine=self.query_engine).start()
        prep = time.perf_counter() - started
        try:
            host, port = server.address
            query_ms, answers = [], []
            with Region() as region, span(tracer, ROOT):
                with span(tracer, "serve.light"):
                    light = LoadGenerator(host, port, concurrency=1,
                                          window=1).run(self.light)
                    with ServeClient(host, port) as client:
                        for params in self.queries:
                            tick = time.perf_counter()
                            answers.append(client.call("query",
                                                       params=params))
                            query_ms.append(
                                (time.perf_counter() - tick) * 1e3)
                with span(tracer, "serve.saturating"):
                    saturating = LoadGenerator(
                        host, port, concurrency=2,
                        window=16).run(self.saturating)
            stats = server.engine.stats()
        finally:
            # Closing the listener does not wake a thread blocked in
            # accept(), so shutdown() would sit out its 5 s join
            # timeout: flag the shutdown, then wake the accept loop
            # with a throwaway connection.  Shutdown reaps the worker,
            # so its CPU lands in the children_* times.
            server.request_shutdown()
            socket.create_connection(server.address).close()
            server.shutdown()
        region.cpu = cpu_seconds() - cpu_started
        return self.check(light, saturating, answers, query_ms, stats,
                          region, prep)

    @functools.cached_property
    def reference(self) -> dict:
        """What the same requests return with no server in between,
        and what the kernels alone cost (fresh cache, batches of 32)."""
        from repro.serve import protocol
        from repro.serve.loadgen import digest_pairs
        from repro.serve.session import ExtractionSession

        session = ExtractionSession(
            self.pipeline,
            annotation_cache=str(self.fresh_dir("kernel-cache")))
        expected = {}
        try:
            for phase, requests in (("light", self.light),
                                    ("saturating", self.saturating)):
                results = []
                started = time.perf_counter()
                for base in range(0, len(requests), 32):
                    results.extend(
                        session.run_batch(requests[base:base + 32]))
                expected[f"{phase}_kernel_s"] = (
                    time.perf_counter() - started)
                expected[phase] = digest_pairs([
                    (f"r{index}",
                     protocol.ok_response(f"r{index}", result))
                    for index, result in enumerate(results)])
            cache = session.annotation_cache
            expected["cache_hit_ratio"] = cache.hits / max(
                1, cache.hits + cache.misses)
        finally:
            session.close()
        return expected

    def check(self, light, saturating, answers, query_ms, stats, region,
              prep) -> Repeat:
        expected = self.reference
        attempted = (len(self.light) + len(self.saturating)
                     + len(self.queries))
        failed = attempted - light.ok - saturating.ok - len(answers)
        problems = []
        for phase, generator in (("light", light),
                                 ("saturating", saturating)):
            if generator.digest != expected[phase]:
                failed += 1
                problems.append(f"{phase} response digest differs from "
                                "the server-less session")
        wrong = sum(
            not answer.get("ok") or answer["result"]["facts"]
            != json.loads(json.dumps(self.query_engine.facts(**params)))
            for params, answer in zip(self.queries, answers))
        if wrong:
            failed += wrong
            problems.append(f"{wrong} served query answers differ from "
                            "the direct lookup")
        predicted = set()
        for generator, requests in ((light, self.light),
                                    (saturating, self.saturating)):
            for request_id, response in generator.pairs:
                op, text = requests[int(request_id[1:])]
                if op == "extract" and response.get("ok"):
                    predicted |= {
                        (text, entity["type"], alias_key(entity["text"]))
                        for entity in response["result"]["entities"]}
        gold = set().union(*(
            self.gold[text]
            for requests in (self.light, self.saturating)
            for op, text in requests if op == "extract"))
        served = sum(stats["requests"].values())
        latency_ms = [seconds * 1e3 for seconds in saturating.latencies]
        light_ms = [seconds * 1e3 for seconds in light.latencies]
        kernel_s = (expected["light_kernel_s"]
                    + expected["saturating_kernel_s"])
        detail = {
            "phase.light_p50_ms": percentile(light_ms, 50),
            "phase.light_p95_ms": percentile(light_ms, 95),
            "phase.sat_rps": len(latency_ms) / saturating.elapsed,
            "phase.sat_p95_ms": percentile(latency_ms, 95),
            "serve.sat_p99_ms": percentile(latency_ms, 99),
            "serve.query_p50_ms": percentile(query_ms, 50),
            "serve.kernel_s": kernel_s,
            "serve.overhead_share":
                1.0 - expected["saturating_kernel_s"] / saturating.elapsed,
            "serve.batches": stats["batches"],
            "serve.mean_batch_size": served / max(1, stats["batches"]),
            "serve.multi_request_batches": stats["multi_request_batches"],
            "serve.cache_hit_ratio": expected["cache_hit_ratio"],
            "serve.shed": stats["shed"],
            "serve.worker_failures": stats["worker_failures"],
            "serve.light_samples": len(light_ms),
            "serve.sat_samples": len(latency_ms),
        }
        return Repeat(
            wall=region.wall, cpu=region.cpu, prep=prep,
            attempted=attempted, failed=failed,
            digest=digest_of([light.digest, saturating.digest,
                              [answer.get("result") for answer in answers]]),
            quality=tally_entities(predicted, gold),
            detail=detail, problems=problems)


WORKLOADS = {cls.name: cls for cls in (CrawlCold, CrawlToFacts, FlowPages,
                                       ServeClosedLoop)}
