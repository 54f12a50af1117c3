"""The focused crawl loop (Fig. 1 of the paper).

Fetch → parse → MIME filter → boilerplate removal → language/length
filters → Naïve Bayes relevance classification.  Links of relevant
pages feed back into the CrawlDB; links of irrelevant pages are
dropped (or followed for up to ``follow_irrelevant_steps`` — the
Section 5 alternative).  The loop runs until the frontier empties, the
page budget is reached, or the caller stops it.

Time is accounted on the :class:`~repro.web.server.SimulatedClock`:
fetch latency is divided across fetcher threads, while the modelled
per-document filtering/classification cost is serialized — this is
what pushes the effective rate down to the paper's 3-4 documents/s
(versus 10-100 for plain crawlers).

The fetch path is hardened for unreliable substrates (see
:mod:`repro.crawler.robust` and :mod:`repro.web.faults`): transient
failures are retried with bounded exponential backoff, hosts that keep
failing are quarantined behind per-host circuit breakers and re-probed
after a cooldown, and every terminal failure is recorded in
:attr:`CrawlResult.failure_reasons` instead of crashing the batch.

Each frontier batch runs in three phases — a sequential *fetch* phase
(all stateful, clock-bearing work), a pure per-page *document* phase
(:mod:`repro.crawler.parallel`), and a sequential *merge* phase that
replays state updates in batch order.  Because the document phase is a
pure function of the fetched payload, it can fan out over a fork-based
worker pool (``parallel_workers > 1``) with byte-identical results:
only real wall-clock time changes, never the simulated-time trajectory
or any crawl output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.annotations import Document
from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.crawler.filters import FilterChain
from repro.crawler.frontier import CrawlDb, FrontierEntry
from repro.crawler.linkdb import LinkDb
from repro.crawler.parallel import (
    CrawlWorkerPool, DocumentOutcome, ProcessingContext,
    outcome_from_wire, outcome_to_wire, process_document,
)
from repro.crawler.recrawl import (
    PageMemory, PageRecord, RecrawlScheduler, content_fingerprint,
    near_unchanged, revision_signature, strip_stage_seconds,
)
from repro.crawler.robust import (
    HOST_FAILURES, BreakerConfig, HostHealth, RetryPolicy,
)
from repro.html.boilerplate import BoilerplateDetector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, maybe_span
from repro.web.robots import RobotsPolicy, parse_robots
from repro.web.server import FetchResult, SimulatedClock, SimulatedWeb
from repro.web.urls import host_of
from repro.workers import can_fork

#: Bucket layout for simulated-time fetch/backoff histograms.  Fixed
#: here (not per-call) so exports always merge exactly.
SIM_SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                       30.0, 60.0)


@dataclass
class CrawlConfig:
    """Operational knobs (defaults mirror the paper's deployment,
    scaled to the synthetic substrate)."""

    max_pages: int = 2000
    fetcher_threads: int = 16
    batch_size: int = 200
    host_fetch_list_cap: int = 500
    max_urls_per_host: int = 400
    politeness_delay: float = 1.0
    #: Modelled serialized per-document cost of boilerplate removal +
    #: classification; calibrated so the crawl runs at the paper's
    #: 3-4 documents/s.
    processing_seconds: float = 0.22
    follow_irrelevant_steps: int = 0
    respect_robots: bool = True
    #: Self-training: feed confidently classified pages back into the
    #: (incremental) Naïve Bayes model — the capability the paper chose
    #: NB for "although we currently don't use this feature".
    online_learning: bool = False
    online_confidence: float = 0.98
    #: Worker processes for the pure per-page document stage; 1 runs
    #: everything on the coordinator.  Any value produces byte-identical
    #: crawl results — only wall-clock changes.
    parallel_workers: int = 1
    #: Retry/backoff policy for transient fetch failures.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-host circuit-breaker thresholds.
    breaker: BreakerConfig = field(default_factory=BreakerConfig)


@dataclass
class CrawlResult:
    """Everything a crawl produces."""

    relevant: list[Document] = field(default_factory=list)
    irrelevant: list[Document] = field(default_factory=list)
    linkdb: LinkDb = field(default_factory=LinkDb)
    pages_fetched: int = 0
    fetch_failures: int = 0
    robots_denied: int = 0
    filtered_out: int = 0
    clock_seconds: float = 0.0
    stop_reason: str = ""
    filter_attrition: dict[str, float] = field(default_factory=dict)
    #: Terminal failure counts by reason code ("timeout",
    #: "server_error", "rate_limited", "truncated", "redirect_loop",
    #: "connect_failed", "unavailable", "not_found", "circuit_open").
    failure_reasons: dict[str, int] = field(default_factory=dict)
    #: Fetch attempts beyond the first (successful or not).
    retries: int = 0
    #: Hosts whose circuit breaker opened at least once.
    hosts_quarantined: int = 0
    #: Pages that entered each pipeline stage (fetch, filters, repair,
    #: parse, boilerplate, classify).  Deterministic: identical across
    #: sequential and parallel runs and preserved by checkpoints.
    stage_pages: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent per stage, measured where the work ran
    #: (summed across workers in parallel mode — CPU-time attribution,
    #: not elapsed time).  ``repair`` is the whole tokenizer pass,
    #: block segmentation and href/title collection included;
    #: ``parse`` is href resolution; ``boilerplate`` is block
    #: classification + join.  Observability only: NOT deterministic,
    #: not checkpointed, excluded from equivalence comparisons.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Incremental recrawl accounting (all zero on single-round
    #: crawls).  ``fetches_skipped`` counts frontier entries replayed
    #: without any network interaction (host not due for revisit);
    #: ``pages_unchanged`` counts provably-unchanged visits (304 or
    #: matching content hash); ``replay_hits`` counts pages whose
    #: stored DocumentOutcome was replayed instead of reprocessed
    #: (= unchanged + skipped); ``pages_changed`` counts refetched
    #: pages whose content differed, of which ``pages_near_unchanged``
    #: were near-identical revisions by shingle similarity.
    fetches_skipped: int = 0
    pages_unchanged: int = 0
    pages_changed: int = 0
    pages_near_unchanged: int = 0
    replay_hits: int = 0

    @property
    def pages_visited(self) -> int:
        """Frontier entries consumed: real fetches plus skipped
        replays.  This is what the page budget bounds — a warm round
        that skips most fetches must still terminate like a cold one.
        """
        return self.pages_fetched + self.fetches_skipped

    @property
    def harvest_rate(self) -> float:
        classified = len(self.relevant) + len(self.irrelevant)
        return len(self.relevant) / classified if classified else 0.0

    @property
    def download_rate(self) -> float:
        """Documents per (simulated) second."""
        if self.clock_seconds <= 0:
            return 0.0
        return self.pages_fetched / self.clock_seconds

    def record_failure(self, reason: str) -> None:
        self.failure_reasons[reason] = \
            self.failure_reasons.get(reason, 0) + 1

    def record_stage(self, stage: str, seconds: float,
                     pages: int = 1) -> None:
        self.stage_pages[stage] = self.stage_pages.get(stage, 0) + pages
        self.stage_seconds[stage] = \
            self.stage_seconds.get(stage, 0.0) + seconds


@dataclass
class _FetchOutcome:
    """What the sequential fetch phase decided for one frontier entry."""

    #: "robots_denied" | "circuit_open" | "fetched"
    kind: str
    fetch: FetchResult | None = None
    #: Terminal failure reason (None on success); only for "fetched".
    reason: str | None = None
    #: Retry attempts consumed by this entry.
    retries: int = 0
    #: Real wall-clock the coordinator spent fetching this entry.
    seconds: float = 0.0
    #: Stored record to replay instead of reprocessing (content
    #: provably unchanged, or host not due for revisit).
    replay: PageRecord | None = None
    #: True when no network interaction happened at all (scheduler
    #: skip); the fetch is synthesized from the record.
    skipped: bool = False
    #: Content hash of a freshly fetched body (only computed when a
    #: page memory is attached).
    fingerprint: str | None = None


class FocusedCrawler:
    """Nutch-with-focus-extension analog over the simulated web."""

    def __init__(self, web: SimulatedWeb, classifier: NaiveBayesClassifier,
                 filters: FilterChain, config: CrawlConfig | None = None,
                 boilerplate: BoilerplateDetector | None = None,
                 clock: SimulatedClock | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 memory: PageMemory | None = None,
                 scheduler: RecrawlScheduler | None = None,
                 neardup=None) -> None:
        self.web = web
        self.classifier = classifier
        self.filters = filters
        self.config = config or CrawlConfig()
        self.boilerplate = boilerplate or BoilerplateDetector()
        self.clock = clock or SimulatedClock()
        self.health = HostHealth(config=self.config.breaker)
        #: Incremental recrawl state (docs/crawling.md): the replay
        #: store, the per-host revisit scheduler, an optional
        #: NearDuplicateFilter carried across rounds/checkpoints, and
        #: the current round.  All None/0 for single-round crawls.
        self.memory = memory
        self.scheduler = scheduler
        self.neardup = neardup
        self.round = 0
        #: Optional observability (docs/observability.md).  Recording
        #: only ever *reads* crawl state, so enabling metrics/tracing
        #: never changes any crawl output; every deterministic metric
        #: is accumulated on the coordinator in batch order, so exports
        #: are byte-identical at any worker count.
        self.metrics = metrics
        self.tracer = tracer
        if metrics is not None:
            self.health.observe(self._breaker_event)
        self._robots_cache: dict[str, RobotsPolicy] = {}
        self._host_ready: dict[str, float] = {}

    def _breaker_event(self, host: str, event: str) -> None:
        self.metrics.counter("crawl.breaker_transitions", host=host,
                             event=event).inc()

    # -- public API -----------------------------------------------------------

    def begin_round(self, rnd: int) -> None:
        """Enter recrawl round ``rnd``: evolve the web to that epoch,
        fold the scheduler's observations into fresh revisit
        intervals, and reset the near-dup filter's epoch.  Each round
        then crawls from the seeds with a fresh frontier; the page
        memory turns unchanged pages into replays."""
        if self.memory is not None and self.config.online_learning:
            raise ValueError(
                "incremental recrawl replays cached document outcomes, "
                "which online_learning (classifier updates between "
                "pages) cannot reproduce; disable one of them")
        self.round = rnd
        self.web.set_epoch(rnd)
        # Round-transient robustness state starts fresh: breaker trips
        # and politeness stamps belong to a crawl session, and keeping
        # them would make a warm round's trajectory diverge from a
        # cold crawl of the same epoch.  Knowledge (robots cache, page
        # memory, scheduler history) carries over.
        self.health.reset()
        self._host_ready = {}
        if self.scheduler is not None:
            self.scheduler.begin_round(rnd)
        if self.neardup is not None:
            self.neardup.begin_epoch(rnd)
        if self.metrics is not None:
            self.metrics.gauge("crawl.round").set(rnd)

    def resume_round(self) -> None:
        """Re-enter the round a restored checkpoint was taken in.
        Only the web epoch needs re-establishing — scheduler, memory,
        and near-dup state come from the checkpoint, and folding the
        scheduler again (``begin_round``) would double-apply it."""
        self.web.set_epoch(self.round)

    def crawl(self, seeds: list[str] | None = None, *,
              frontier: CrawlDb | None = None,
              result: CrawlResult | None = None,
              checkpoint: Callable[[CrawlDb, CrawlResult], None]
              | None = None,
              page_callback: Callable[[CrawlResult], None] | None = None,
              parallel_workers: int | None = None,
              ) -> CrawlResult:
        """Run a focused crawl from the seed list.

        Pass ``frontier``/``result`` to continue a restored crawl
        (checkpoint resume) instead of starting from seeds.
        ``checkpoint`` is invoked after every completed batch — a batch
        boundary is the only state from which a resumed crawl is
        guaranteed to reproduce the uninterrupted run exactly.
        ``page_callback`` fires after every processed frontier entry.
        ``parallel_workers`` overrides
        :attr:`CrawlConfig.parallel_workers`; with N > 1 the pure
        document stage fans out over N forked worker processes and the
        result stays byte-identical to the sequential run.
        """
        config = self.config
        if frontier is None:
            if seeds is None:
                raise ValueError("crawl() needs seeds or a restored "
                                 "frontier")
            frontier = CrawlDb(host_fetch_list_cap=config.host_fetch_list_cap,
                               max_urls_per_host=config.max_urls_per_host)
            frontier.add_seeds(seeds)
        if result is None:
            result = CrawlResult()
        pool = self._make_pool(parallel_workers)
        # ``clock_seconds`` accumulated so far anchors the (virtual)
        # start time, so resumed runs keep accumulating correctly.
        crawl_start = self.clock.now - result.clock_seconds
        try:
            while True:
                if result.pages_visited >= config.max_pages:
                    result.stop_reason = "page_budget"
                    break
                if frontier.is_empty():
                    result.stop_reason = "frontier_empty"
                    break
                batch = frontier.next_batch(config.batch_size)
                self._run_batch(batch, frontier, result, pool,
                                page_callback)
                if checkpoint is not None:
                    self._snapshot_totals(result, crawl_start)
                    checkpoint(frontier, result)
        finally:
            if pool is not None:
                pool.close()
        self._snapshot_totals(result, crawl_start)
        if checkpoint is not None:
            checkpoint(frontier, result)
        return result

    def _make_pool(self, parallel_workers: int | None) -> CrawlWorkerPool | None:
        """Resolve the worker count and build the document-stage pool."""
        config = self.config
        workers = (config.parallel_workers if parallel_workers is None
                   else parallel_workers)
        if workers is None or workers <= 1:
            return None
        if config.online_learning:
            raise ValueError(
                "online_learning updates the classifier between pages, "
                "which a parallel document stage cannot replay "
                "deterministically; run with parallel_workers=1")
        if not can_fork("the parallel crawl document stage",
                        "the sequential document stage"):
            return None
        # Build lazy scoring tables *before* forking so workers inherit
        # them by copy-on-write instead of each rebuilding.
        for model in (self.classifier, getattr(self.classifier, "base",
                                               None)):
            if hasattr(model, "precompute"):
                model.precompute()
        return CrawlWorkerPool(workers, self._processing_context(),
                               metrics=self.metrics,
                               batch_hint=config.batch_size)

    def _processing_context(self) -> ProcessingContext:
        return ProcessingContext(boilerplate=self.boilerplate,
                                 filters=self.filters,
                                 classifier=self.classifier)

    def _snapshot_totals(self, result: CrawlResult,
                         crawl_start: float) -> None:
        result.clock_seconds = self.clock.now - crawl_start
        result.filter_attrition = self.filters.attrition_report()
        result.hosts_quarantined = self.health.quarantined_hosts
        if self.metrics is not None:
            self.metrics.gauge("crawl.clock_seconds").set(
                result.clock_seconds)
            self.metrics.gauge("crawl.hosts_quarantined").set(
                result.hosts_quarantined)

    # -- one batch ---------------------------------------------------------------

    def _run_batch(self, batch: list[FrontierEntry], frontier: CrawlDb,
                   result: CrawlResult, pool: CrawlWorkerPool | None,
                   page_callback: Callable[[CrawlResult], None] | None,
                   ) -> None:
        """Fetch sequentially, process the pure document stage (inline
        or fanned out), and merge state updates in batch order.

        With a pool attached the two phases *pipeline*: each cleanly
        fetched page is submitted to the workers immediately, so the
        head of the batch is being parsed and classified while the
        coordinator is still fetching the tail.  The merge phase then
        replays every entry in batch order regardless of when (or on
        which worker) its document stage ran, which is what keeps the
        results byte-identical to the sequential loop.

        The phase spans are timed on the *simulated* clock (when a
        tracer is attached via :attr:`tracer` with ``clock=lambda:
        crawler.clock.now``), which only advances during the fetch
        phase — so the exported trace is identical for the sequential
        and the pooled document stage even though both the sequential
        loop and the pipelined pool overlap document processing with
        other phases.
        """
        config = self.config
        self._record_batch_start()
        with maybe_span(self.tracer, "crawl.batch") as batch_span:
            outcomes: list[_FetchOutcome] = []
            fetched = 0
            with maybe_span(self.tracer, "crawl.fetch") as fetch_span:
                for index, entry in enumerate(batch):
                    if result.pages_visited + fetched >= config.max_pages:
                        # Budget hit mid-batch: the leftovers survive
                        # into the frontier (and any checkpoint)
                        # instead of being dropped.
                        frontier.requeue_front(batch[index:])
                        batch = batch[:index]
                        break
                    outcome = self._fetch_entry(entry)
                    if outcome.kind == "fetched":
                        fetched += 1
                        if (pool is not None and outcome.reason is None
                                and outcome.replay is None):
                            # Pipelined dispatch: workers start on this
                            # page while the fetch loop continues.
                            # Replayed pages never reach the workers —
                            # that is the whole point of the replay.
                            pool.submit((index, outcome.fetch.url,
                                         outcome.fetch.body,
                                         outcome.fetch.content_type))
                    outcomes.append(outcome)
                fetch_span.set(entries=len(batch), fetched=fetched)
            n_documents = sum(
                1 for outcome in outcomes
                if outcome.kind == "fetched" and outcome.reason is None
                and outcome.replay is None)
            documents: dict[int, DocumentOutcome] = {}
            with maybe_span(self.tracer, "crawl.document",
                            pages=n_documents):
                if pool is not None:
                    documents = pool.drain()
            context = self._processing_context() if pool is None else None
            with maybe_span(self.tracer, "crawl.merge",
                            entries=len(batch)):
                for index, (entry, outcome) in enumerate(
                        zip(batch, outcomes)):
                    document = documents.get(index)
                    if (document is None and outcome.kind == "fetched"
                            and outcome.reason is None):
                        if outcome.replay is not None:
                            # Unchanged page: replay the stored
                            # outcome instead of reprocessing.
                            document = outcome_from_wire(
                                outcome.replay.outcome)
                        elif context is not None:
                            # Sequential document stage, interleaved
                            # with merging so online-learning updates
                            # stay ordered.
                            fetch = outcome.fetch
                            document = process_document(
                                fetch.url, fetch.body,
                                fetch.content_type, context)
                    self._merge_entry(entry, outcome, document,
                                      frontier, result)
                    if page_callback is not None:
                        page_callback(result)
            batch_span.set(entries=len(batch))

    def _record_batch_start(self) -> None:
        """Count one frontier batch.  The sharded crawler overrides
        this to a no-op: how many (shard, superstep) batches a crawl
        splits into depends on the shard count, so the driver records
        the shard-invariant ``crawl.supersteps`` instead."""
        if self.metrics is not None:
            self.metrics.counter("crawl.batches").inc()

    # -- phase 1: fetch (stateful, clock-bearing) ------------------------------

    def _clock_for(self, host: str) -> SimulatedClock:
        """The clock that times interactions with ``host``.

        The base crawler keeps one global clock.  The sharded crawler
        overrides this with per-host clocks: politeness, breaker
        cooldowns, and flaky-host recovery are all per-host phenomena,
        and timing them on host-local clocks makes their evolution
        independent of how hosts are interleaved across shards.
        """
        return self.clock

    def _fetch_entry(self, entry: FrontierEntry) -> _FetchOutcome:
        """Everything up to (and including) the fetch for one entry.

        Touches only coordinator state whose evolution must stay
        sequential: the simulated clock, politeness schedule, robots
        cache, and circuit breakers.  All :class:`CrawlResult` and
        frontier updates are deferred to the merge phase.
        """
        config = self.config
        started = time.perf_counter()
        host = host_of(entry.url)
        clock = self._clock_for(host)
        if config.respect_robots and not self._robots(host).allows(entry.url):
            return _FetchOutcome("robots_denied",
                                 seconds=time.perf_counter() - started)
        record = (self.memory.get(entry.url)
                  if self.memory is not None else None)
        if (record is not None and self.scheduler is not None
                and not self.scheduler.due(host)):
            # Host not due for revisit: replay the stored outcome as
            # assumed-unchanged with no network interaction at all
            # (no clock advance, no politeness, no breaker traffic).
            return _FetchOutcome(
                "fetched", fetch=self._assumed_unchanged(entry.url,
                                                         record),
                replay=record, skipped=True,
                seconds=time.perf_counter() - started)
        if not self.health.breaker(host).allow(clock.now):
            # Host quarantined: drop the entry without fetching.
            return _FetchOutcome("circuit_open",
                                 seconds=time.perf_counter() - started)
        fetch, reason, retries = self._fetch_with_retries(
            entry.url, host,
            if_version=record.version if record is not None else None)
        replay = None
        fingerprint = None
        if reason is None:
            if fetch.not_modified:
                # Conditional GET hit: version unchanged, no body sent.
                replay = record
            elif self.memory is not None:
                fingerprint = content_fingerprint(fetch.body)
                if (record is not None
                        and record.fingerprint == fingerprint):
                    # Version bumped but content identical (e.g. a
                    # revision chain that round-tripped): exact-hash
                    # replay.
                    replay = record
            if replay is None:
                # The modelled serialized per-document processing cost
                # — not paid on replays, which skip the document stage.
                clock.advance(config.processing_seconds)
        return _FetchOutcome("fetched", fetch=fetch, reason=reason,
                             retries=retries, replay=replay,
                             fingerprint=fingerprint,
                             seconds=time.perf_counter() - started)

    @staticmethod
    def _assumed_unchanged(url: str, record: PageRecord) -> FetchResult:
        """Synthesize the FetchResult a skipped entry replays under:
        shaped like a 304 (so the merge path treats it uniformly) with
        the canonical redirect replayed from the record."""
        fetch = FetchResult(url=record.final_url, status=304,
                            content_type="", body="", elapsed=0.0,
                            not_modified=True,
                            content_version=record.version)
        if record.final_url != url:
            fetch.redirected_from = url
        return fetch

    # -- phase 3: merge (batch order) ------------------------------------------

    def _merge_entry(self, entry: FrontierEntry, outcome: _FetchOutcome,
                     document: DocumentOutcome | None, frontier: CrawlDb,
                     result: CrawlResult) -> None:
        """Replay one entry's state updates exactly as the sequential
        loop would have produced them.

        This is also where every deterministic metric lands: the merge
        phase runs on the coordinator in batch order for every worker
        count, so the registry accumulates identically no matter where
        the document stage ran (the ``DocumentOutcome`` merge rule).
        """
        config = self.config
        metrics = self.metrics
        if outcome.kind == "robots_denied":
            result.robots_denied += 1
            if metrics is not None:
                metrics.counter("crawl.robots_denied").inc()
            return
        if outcome.kind == "circuit_open":
            result.record_failure("circuit_open")
            if metrics is not None:
                metrics.counter("crawl.failures",
                                reason="circuit_open").inc()
            return
        fetch = outcome.fetch
        replay = outcome.replay
        if outcome.skipped:
            result.fetches_skipped += 1
            if metrics is not None:
                metrics.counter("crawl.fetches_skipped").inc()
        else:
            result.pages_fetched += 1
            result.retries += outcome.retries
            self._record_stage(result, "fetch", outcome.seconds)
            if metrics is not None:
                metrics.counter("crawl.pages_fetched").inc()
                if outcome.retries:
                    metrics.counter("crawl.retries").inc(outcome.retries)
        if fetch.redirected_from:
            frontier.mark_seen(fetch.url)
        if outcome.reason is not None:
            result.fetch_failures += 1
            result.record_failure(outcome.reason)
            if metrics is not None:
                metrics.counter("crawl.fetch_failures").inc()
                metrics.counter("crawl.failures",
                                reason=outcome.reason).inc()
            return
        fresh_record: PageRecord | None = None
        if replay is not None:
            result.replay_hits += 1
            result.pages_unchanged += 1
            self._record_stage(result, "replay", 0.0)
            if metrics is not None:
                metrics.counter("crawl.replay_hits").inc()
                metrics.counter("crawl.pages_unchanged").inc()
            if not outcome.skipped:
                # A real visit confirmed the content: refresh the
                # record's bookkeeping and tell the scheduler the host
                # looks stable.
                replay.last_round = self.round
                if not fetch.not_modified:
                    replay.version = fetch.content_version
                if self.scheduler is not None:
                    self.scheduler.observe(host_of(entry.url),
                                           changed=False)
        elif self.memory is not None:
            # Fresh content: detect (near-)changes against the stored
            # revision, feed the scheduler, and store the new outcome
            # for future replays.  Runs on the coordinator in batch
            # order, so it is worker- and shard-count invariant.
            signature = revision_signature(fetch.body)
            previous = self.memory.get(entry.url)
            if previous is not None:
                result.pages_changed += 1
                near = near_unchanged(previous.signature, signature)
                if near:
                    result.pages_near_unchanged += 1
                if metrics is not None:
                    metrics.counter("crawl.pages_changed").inc()
                    if near:
                        metrics.counter(
                            "crawl.pages_near_unchanged").inc()
                if self.scheduler is not None:
                    self.scheduler.observe(host_of(entry.url),
                                           changed=not near)
            fresh_record = PageRecord(
                final_url=fetch.url, version=fetch.content_version,
                fingerprint=outcome.fingerprint, signature=signature,
                outcome=strip_stage_seconds(outcome_to_wire(document)),
                body=None, content_type=fetch.content_type,
                last_round=self.round)
            self.memory.put(entry.url, fresh_record)
        # The worker-accumulated per-stage deltas, merged batch-order
        # (empty on replays: stored outcomes carry no wall-clock).
        for stage, seconds in document.stage_seconds.items():
            self._record_stage(result, stage, seconds)
        self.filters.record_payload(document.mime_ok)
        if not document.mime_ok:
            result.filtered_out += 1
            if metrics is not None:
                metrics.counter("crawl.filtered_out",
                                filter="mime").inc()
            return
        if not document.transcodable:
            result.filtered_out += 1
            if metrics is not None:
                metrics.counter("crawl.filtered_out",
                                filter="transcode").inc()
            return
        result.linkdb.add_edges(fetch.url, document.outlinks)
        self.filters.record_text(document.rejected_by)
        if metrics is not None:
            metrics.counter("crawl.outlinks").inc(len(document.outlinks))
        if document.rejected_by:
            result.filtered_out += 1
            if metrics is not None:
                metrics.counter("crawl.filtered_out",
                                filter=document.rejected_by).inc()
            return
        net_text = document.net_text
        if replay is not None and fetch.not_modified:
            # 304s and skips carry no body; the record does.
            raw_body = replay.body or ""
            content_type = replay.content_type
        else:
            raw_body = fetch.body
            content_type = fetch.content_type
        if fresh_record is not None:
            # Only classified pages land in a corpus and need their
            # raw body replayable; filtered pages never stored one.
            fresh_record.body = raw_body
        harvested = Document(
            doc_id=fetch.url, text=net_text, raw=raw_body,
            meta={"url": fetch.url, "depth": entry.depth,
                  "content_type": content_type,
                  "title": document.title})
        relevant = document.relevant
        harvested.meta["relevant"] = relevant
        if metrics is not None:
            metrics.counter("crawl.relevant_pages" if relevant
                            else "crawl.irrelevant_pages").inc()
        if config.online_learning and hasattr(self.classifier, "update"):
            probability = self.classifier.probability(net_text)
            if (probability >= config.online_confidence
                    or probability <= 1 - config.online_confidence):
                self.classifier.update(net_text, relevant)
        if relevant:
            result.relevant.append(harvested)
            for link in document.outlinks:
                self._add_outlink(frontier, entry, link,
                                  irrelevant_steps=0)
        else:
            result.irrelevant.append(harvested)
            if entry.irrelevant_steps < config.follow_irrelevant_steps:
                for link in document.outlinks:
                    self._add_outlink(
                        frontier, entry, link,
                        irrelevant_steps=entry.irrelevant_steps + 1)

    def _add_outlink(self, frontier: CrawlDb, entry: FrontierEntry,
                     link: str, irrelevant_steps: int) -> None:
        """Feed one discovered outlink into the frontier.

        The sharded crawler overrides this to *buffer* links instead:
        in superstep mode every discovered link — even one owned by the
        discovering shard — is exchanged and applied at the barrier, so
        the frontier evolves identically at any shard count.
        """
        frontier.add(link, depth=entry.depth + 1,
                     irrelevant_steps=irrelevant_steps)

    def _record_stage(self, result: CrawlResult, stage: str,
                      seconds: float, pages: int = 1) -> None:
        """``CrawlResult.record_stage`` mirrored onto the registry:
        page counts are deterministic, wall seconds are volatile."""
        result.record_stage(stage, seconds, pages)
        if self.metrics is not None:
            self.metrics.counter("crawl.stage_pages",
                                 stage=stage).inc(pages)
            self.metrics.counter("crawl.stage_wall_seconds", stage=stage,
                                 volatile=True).inc(seconds)

    # -- fetch path ------------------------------------------------------------

    def _fetch_with_retries(self, url: str, host: str,
                            if_version: int | None = None,
                            ) -> tuple[FetchResult, str | None, int]:
        """Fetch with politeness, per-attempt timeout, bounded backoff
        and breaker accounting; returns (last fetch, terminal reason or
        None on success, retry attempts consumed).  ``if_version``
        makes the GET conditional (incremental recrawl): a matching
        content version comes back as a body-less not-modified
        success."""
        config = self.config
        policy = config.retry
        breaker = self.health.breaker(host)
        clock = self._clock_for(host)
        fetch: FetchResult | None = None
        reason: str | None = None
        retries = 0
        metrics = self.metrics
        for attempt in range(max(1, policy.max_attempts)):
            if attempt > 0:
                retries += 1
                backoff = policy.backoff_seconds(
                    url, attempt - 1,
                    retry_after=fetch.retry_after if fetch else 0.0)
                clock.advance(backoff / config.fetcher_threads)
                if metrics is not None:
                    metrics.histogram(
                        "crawl.backoff_sim_seconds",
                        buckets=SIM_SECONDS_BUCKETS).observe(backoff)
            self._await_host(host)
            fetch = self.web.fetch(url, attempt=attempt,
                                   now=clock.now,
                                   if_version=if_version)
            clock.advance(min(fetch.elapsed, policy.attempt_timeout)
                          / config.fetcher_threads)
            if metrics is not None:
                metrics.counter("crawl.fetch_attempts").inc()
                metrics.histogram(
                    "crawl.fetch_sim_seconds",
                    buckets=SIM_SECONDS_BUCKETS).observe(
                        min(fetch.elapsed, policy.attempt_timeout))
            delay = max(config.politeness_delay,
                        self._robots(host).crawl_delay)
            self._host_ready[host] = clock.now + delay
            reason = self._failure_reason(fetch, policy)
            if reason is None:
                breaker.record_success()
                return fetch, None, retries
            if reason in HOST_FAILURES:
                opened = breaker.record_failure(clock.now)
                if opened:
                    # Host just got quarantined; stop hammering it.
                    break
            if not policy.should_retry(reason, attempt):
                break
        return fetch, reason, retries

    def _await_host(self, host: str) -> None:
        """Politeness: wait until the host allows another request."""
        clock = self._clock_for(host)
        ready = self._host_ready.get(host, 0.0)
        if ready > clock.now:
            clock.advance(min(ready - clock.now,
                              self.config.politeness_delay))

    @staticmethod
    def _failure_reason(fetch: FetchResult,
                        policy: RetryPolicy) -> str | None:
        """Map a fetch outcome to a terminal reason code (None = ok)."""
        if fetch.elapsed > policy.attempt_timeout:
            return "timeout"
        if fetch.failure is not None:
            return fetch.failure
        if fetch.not_modified:
            # Conditional-GET hit: a clean (body-less) success.
            return None
        if fetch.ok:
            return None
        if fetch.status == 0:
            return "timeout"
        if fetch.status == 404:
            return "not_found"
        if fetch.status == 429:
            return "rate_limited"
        if fetch.status >= 500:
            return "server_error"
        return f"http_{fetch.status}"

    def _robots(self, host: str) -> RobotsPolicy:
        policy = self._robots_cache.get(host)
        if policy is None:
            clock = self._clock_for(host)
            response = self.web.fetch(f"http://{host}/robots.txt",
                                      now=clock.now)
            clock.advance(
                response.elapsed / self.config.fetcher_threads)
            policy = (parse_robots(response.body)
                      if response.ok else RobotsPolicy())
            self._robots_cache[host] = policy
        return policy
