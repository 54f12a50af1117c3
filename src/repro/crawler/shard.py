"""Host-sharded crawl executor (the paper's 5-node Nutch scale-out).

The production crawl behind the paper ran on a Hadoop cluster: the
frontier partitioned by host across nodes, each node fetching its
partition with its own politeness and robustness state, and a
deterministic merge step combining the per-node segments.  This module
reproduces that architecture as N coordinator processes — *shards* —
over the simulated web.

Design rules (each is load-bearing for the headline guarantee that a
1-shard and an N-shard crawl produce **byte-identical merged
artifacts**):

* **Ownership by host hash.**  :func:`shard_of` assigns every host to
  exactly one shard with a seed-independent stable hash, so politeness
  schedules, robots caches, circuit breakers, and per-host URL budgets
  — all host-keyed state — live on a single shard no matter what N is.
* **Per-host clocks.**  A shared shard-wide clock would advance
  differently depending on which hosts share a shard, and three pieces
  of crawl behaviour read the clock: flaky-host recovery, breaker
  cooldowns, and politeness waits.  :class:`ShardCrawler` therefore
  times every host on its own :class:`SimulatedClock`, making each
  host's timeline a pure function of that host's own fetch history.
* **Superstep barriers (BSP).**  The crawl advances in supersteps: each
  shard drains up to ``host_quota`` URLs from every host it owns
  (hosts in sorted order — :meth:`CrawlDb.next_batch_per_host`), and
  *every* discovered outlink — including links a shard itself owns —
  is buffered, exchanged at the barrier, and applied by its owner at
  the start of the next superstep in a canonical order (sorted by
  source host and emission sequence).  Buffering own links too is what
  makes the frontier evolution independent of N: a link discovered on
  the owning shard takes effect at exactly the same superstep as one
  that crossed shards.
* **Budget at barriers only.**  The page budget is checked at
  superstep barriers (total across shards), never mid-superstep, so
  the stop decision sees the same totals at any N.  A crawl may
  therefore overshoot ``max_pages`` by up to one superstep's worth of
  pages — the documented cost of determinism.
* **Single collective checkpoint.**  The parent writes one atomic file
  holding every shard's state plus the pending cross-shard link
  buffers (:func:`~repro.crawler.checkpoint.save_sharded_checkpoint`),
  so a killed shard — or a killed parent — resumes the whole topology
  from one consistent barrier.

A sharded crawl is a *different deterministic schedule* from the
single-coordinator crawl (per-host batching and per-host clocks change
which pages are reached within the budget); the invariant is equality
across shard counts, not equality with ``FocusedCrawler.crawl``.

:class:`ShardedCrawl` runs shards either in-process (determinism
tests; zero IPC) or as forked child processes exchanging link buffers
over pipes (``processes=True`` — the mode that buys wall-clock, since
each shard fetches, parses, and classifies its partition locally and
only host-routed links plus one final result payload ever cross a
process boundary).  Either way a shard is a :mod:`repro.workers`
worker answering :func:`_answer` commands (docs/performance.md,
"Worker processes"); what this client adds is the BSP schedule.
"""

from __future__ import annotations

import gc
import hashlib
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable

from repro.crawler.checkpoint import (
    frontier_from_dict, frontier_to_dict, crawler_state_to_dict,
    load_sharded_checkpoint, restore_crawler_state, result_from_dict,
    result_to_dict, save_sharded_checkpoint,
)
from repro.crawler.crawl import CrawlResult, FocusedCrawler
from repro.crawler.frontier import CrawlDb
from repro.obs.metrics import MetricsRegistry
from repro.web.server import SimulatedClock
from repro.web.urls import host_of, normalize
from repro.workers import ForkedWorker, InlineWorker, WorkerDied, can_fork

#: Effectively-unbounded page budget used to neutralize the per-batch
#: budget check inside a superstep (the driver enforces the real budget
#: at barriers).
_UNBOUNDED = 1 << 62

#: An exchanged link: (source_host, emission_seq, url, depth,
#: irrelevant_steps).  The first two fields form the canonical apply
#: order; emission_seq numbers the links a source host discovered
#: within one superstep.
LinkRecord = tuple[str, int, str, int, int]


def shard_of(host: str, n_shards: int) -> int:
    """The shard that owns ``host`` — stable and total.

    Uses a SHA-256 prefix so the assignment is identical across
    processes, runs, and machines (Python's builtin ``hash`` is
    randomized per process and would shatter resume determinism).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    digest = hashlib.sha256(host.encode("utf-8", "surrogatepass")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class ShardCrashed(RuntimeError):
    """A shard child process died mid-crawl.  The crawl is resumable
    from the last collective checkpoint."""


class ShardCrawler(FocusedCrawler):
    """One shard: a :class:`FocusedCrawler` over its host partition.

    Differs from the base crawler in exactly the three hooks the base
    class exposes for it: per-host clocks (:meth:`_clock_for`),
    buffered outlinks (:meth:`_add_outlink`), and no per-batch metric
    (:meth:`_record_batch_start` — the driver counts supersteps
    instead).  Everything else — fetching, retries, breakers, the
    document stage, merging — is inherited unchanged.
    """

    def __init__(self, shard_id: int, n_shards: int, *args,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shard_id = shard_id
        self.n_shards = n_shards
        # The driver mutates max_pages around supersteps; decouple from
        # any config object the factory might share across shards.
        self.config = replace(self.config)
        self.frontier = CrawlDb(
            host_fetch_list_cap=self.config.host_fetch_list_cap,
            max_urls_per_host=self.config.max_urls_per_host)
        self.result = CrawlResult()
        self._host_clocks: dict[str, SimulatedClock] = {}
        self._link_buffer: list[LinkRecord] = []
        self._emit_seq: dict[str, int] = {}
        self._pool = None

    # -- hook overrides ------------------------------------------------------

    def _clock_for(self, host: str) -> SimulatedClock:
        clock = self._host_clocks.get(host)
        if clock is None:
            clock = self._host_clocks[host] = SimulatedClock()
        return clock

    def _add_outlink(self, frontier: CrawlDb, entry, link: str,
                     irrelevant_steps: int) -> None:
        source_host = host_of(entry.url)
        seq = self._emit_seq.get(source_host, 0)
        self._emit_seq[source_host] = seq + 1
        self._link_buffer.append((source_host, seq, link,
                                  entry.depth + 1, irrelevant_steps))

    def _record_batch_start(self) -> None:
        pass

    # -- recrawl rounds ------------------------------------------------------

    def begin_round(self, rnd: int) -> None:
        """Enter recrawl round ``rnd`` on this shard: evolve the web
        epoch / fold the scheduler (the inherited hook), then start the
        round from a fresh frontier and a fresh per-round result —
        exactly what :class:`~repro.crawler.checkpoint.ResumableCrawl`
        does for the single-coordinator crawl.  Host clocks persist
        across rounds (a host's timeline is continuous), as does all
        host-keyed robustness state."""
        super().begin_round(rnd)
        self.frontier = CrawlDb(
            host_fetch_list_cap=self.config.host_fetch_list_cap,
            max_urls_per_host=self.config.max_urls_per_host)
        self.result = CrawlResult()

    def round_report(self, rnd: int) -> dict:
        """This shard's per-round counter summary (merged by the
        driver; documents are not shipped — just the line items)."""
        from repro.crawler.recrawl import round_summary

        self.finalize_totals()
        return round_summary(rnd, self.result)

    # -- superstep interface -------------------------------------------------

    def apply_inbound(self, links: list[LinkRecord]) -> None:
        """Apply exchanged links in canonical (source_host, seq) order.

        Every shard sorts the same way, and a host's links always come
        from the same sources with the same sequence numbers at any N,
        so its queue evolves identically at any topology.
        """
        for _host, _seq, url, depth, steps in sorted(
                tuple(link) for link in links):
            self.frontier.add(url, depth=depth, irrelevant_steps=steps)

    def run_superstep(self, host_quota: int) -> list[LinkRecord]:
        """Fetch/process/merge one superstep batch; returns the links
        discovered in it (for the barrier exchange)."""
        self._emit_seq = {}
        batch = self.frontier.next_batch_per_host(host_quota)
        if batch:
            if self._pool is None and self.config.parallel_workers > 1:
                self._pool = self._make_pool(None)
            budget = self.config.max_pages
            self.config.max_pages = _UNBOUNDED
            try:
                self._run_batch(batch, self.frontier, self.result,
                                self._pool, None)
            finally:
                self.config.max_pages = budget
        links, self._link_buffer = self._link_buffer, []
        return links

    def finalize_totals(self) -> None:
        """Fill the derived per-shard result fields before merging."""
        self.result.clock_seconds = self.max_clock
        self.result.filter_attrition = self.filters.attrition_report()
        self.result.hosts_quarantined = self.health.quarantined_hosts

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    @property
    def max_clock(self) -> float:
        """The shard's simulated time: its busiest host's clock."""
        return max((clock.now for clock in self._host_clocks.values()),
                   default=0.0)

    # -- state (collective checkpoints) --------------------------------------

    def state_to_dict(self) -> dict:
        state = crawler_state_to_dict(self)
        state["host_clocks"] = {
            host: clock.now
            for host, clock in sorted(self._host_clocks.items())}
        self.finalize_totals()
        return {"frontier": frontier_to_dict(self.frontier),
                "result": result_to_dict(self.result),
                "crawler": state}

    def restore_state(self, payload: dict) -> None:
        self.frontier = frontier_from_dict(payload["frontier"])
        self.result = result_from_dict(payload["result"])
        crawler_state = payload.get("crawler") or {}
        restore_crawler_state(self, crawler_state)
        self._host_clocks = {
            host: SimulatedClock(now)
            for host, now in crawler_state.get("host_clocks",
                                               {}).items()}

    def final_payload(self) -> dict:
        """Everything the cross-shard merge consumes, as plain data
        (shared by the in-process and the forked execution modes)."""
        self.finalize_totals()
        payload = {
            "result": result_to_dict(self.result),
            "filters": {name: [stats.accepted, stats.rejected]
                        for name, stats in self.filters.stats.items()},
            "stage_seconds": dict(self.result.stage_seconds),
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.to_dict(
                include_volatile=True)
        return payload


def merge_shard_payloads(finals: list[dict], stop_reason: str,
                         n_supersteps: int,
                         ) -> tuple[CrawlResult, MetricsRegistry | None]:
    """Deterministically merge per-shard final payloads.

    Hosts are disjoint across shards, so documents and linkdb sources
    never collide; both are ordered by a canonical sort (doc id /
    source URL), counters and filter stats sum, and the merged
    simulated time is the max over shards (= the busiest host
    anywhere).  The output is invariant in the shard count and in the
    order shards finished.
    """
    merged = CrawlResult()
    documents = {"relevant": [], "irrelevant": []}
    edges: list[tuple[str, list[str]]] = []
    failure_reasons: dict[str, int] = {}
    stage_pages: dict[str, int] = {}
    stage_seconds: dict[str, float] = {}
    filter_stats: dict[str, list[int]] = {}
    registries = []
    for final in finals:
        payload = final["result"]
        for bucket in ("relevant", "irrelevant"):
            documents[bucket].extend(payload[bucket])
        edges.extend(payload["outlinks"].items())
        merged.pages_fetched += payload["pages_fetched"]
        merged.fetch_failures += payload["fetch_failures"]
        merged.robots_denied += payload["robots_denied"]
        merged.filtered_out += payload["filtered_out"]
        merged.retries += payload["retries"]
        merged.hosts_quarantined += payload["hosts_quarantined"]
        merged.fetches_skipped += payload.get("fetches_skipped", 0)
        merged.pages_unchanged += payload.get("pages_unchanged", 0)
        merged.pages_changed += payload.get("pages_changed", 0)
        merged.pages_near_unchanged += payload.get(
            "pages_near_unchanged", 0)
        merged.replay_hits += payload.get("replay_hits", 0)
        merged.clock_seconds = max(merged.clock_seconds,
                                   payload["clock_seconds"])
        for reason, count in payload["failure_reasons"].items():
            failure_reasons[reason] = \
                failure_reasons.get(reason, 0) + count
        for stage, pages in payload["stage_pages"].items():
            stage_pages[stage] = stage_pages.get(stage, 0) + pages
        for stage, seconds in final.get("stage_seconds", {}).items():
            stage_seconds[stage] = \
                stage_seconds.get(stage, 0.0) + seconds
        for name, (accepted, rejected) in final["filters"].items():
            totals = filter_stats.setdefault(name, [0, 0])
            totals[0] += accepted
            totals[1] += rejected
        if "metrics" in final:
            registry = MetricsRegistry()
            registry.load_dict(final["metrics"])
            registries.append(registry)
    from repro.crawler.checkpoint import _document_from_dict

    for bucket in ("relevant", "irrelevant"):
        ordered = sorted(documents[bucket],
                         key=lambda doc: doc["doc_id"])
        getattr(merged, bucket).extend(
            _document_from_dict(doc) for doc in ordered)
    for source, targets in sorted(edges):
        merged.linkdb.add_edges(source, targets)
    merged.failure_reasons = dict(sorted(failure_reasons.items()))
    merged.stage_pages = dict(sorted(stage_pages.items()))
    merged.stage_seconds = dict(sorted(stage_seconds.items()))
    merged.stop_reason = stop_reason
    merged.filter_attrition = {
        name: (rejected / (accepted + rejected)
               if accepted + rejected else 0.0)
        for name, (accepted, rejected) in sorted(filter_stats.items())}
    metrics = None
    if registries:
        metrics = MetricsRegistry()
        for registry in registries:
            metrics.merge(registry)
        metrics.counter("crawl.supersteps").inc(n_supersteps)
        metrics.gauge("crawl.clock_seconds").set(merged.clock_seconds)
        metrics.gauge("crawl.hosts_quarantined").set(
            merged.hosts_quarantined)
    return merged, metrics


# -- shard workers -------------------------------------------------------------

def _shard_handler(factory: Callable[[int], ShardCrawler], shard_id: int,
                   restore_payload: dict | None, built: list):
    """Build and vet one shard's crawler — restored from its checkpoint
    section when there is one, noted in ``built`` — and return the
    handler its :mod:`repro.workers` worker runs."""
    crawler = factory(shard_id)
    if not isinstance(crawler, ShardCrawler):
        raise TypeError("the sharded crawl factory must build "
                        "ShardCrawler instances")
    if crawler.tracer is not None:
        raise ValueError("tracing is not supported in sharded "
                         "mode (span trees are per-process); "
                         "use metrics, which merge")
    if crawler.config.online_learning:
        raise ValueError(
            "online_learning updates the classifier between "
            "pages, which a sharded crawl cannot replay "
            "deterministically; run with --shards 1 and "
            "parallel_workers=1")
    if restore_payload is not None:
        crawler.restore_state(restore_payload)
        crawler.resume_round()
    built.append(crawler)
    return partial(_answer, crawler)


def _answer(crawler: ShardCrawler, message: tuple):
    """One shard's reply to one driver command.

    Protocol (driver -> shard): ``("apply", links)``, ``("step",
    host_quota)``, ``("round", rnd)``, ``("summary", rnd)``,
    ``("snapshot",)``, ``("final",)``.  Every command gets exactly one
    reply, and both are plain data — what the JSON checkpoint stores.
    """
    command = message[0]
    if command == "apply":
        crawler.apply_inbound(message[1])
        return (crawler.result.pages_visited, crawler.frontier.is_empty())
    if command == "step":
        reply = (crawler.run_superstep(message[1]),
                 crawler.result.pages_visited)
        if not gc.isenabled():
            # A forked shard: automatic gc is off, so cycles from
            # parsed pages are collected here, at the superstep boundary.
            gc.collect()
        return reply
    if command == "round":
        crawler.begin_round(message[1])
        return True
    if command == "summary":
        return crawler.round_report(message[1])
    if command == "snapshot":
        return crawler.state_to_dict()
    if command == "final":
        return crawler.final_payload()
    raise ValueError(f"unknown shard command: {command!r}")


def _ask(shards, *message) -> list:
    """Send one command to every shard before reading any reply, so
    forked shards work in parallel."""
    for shard in shards:
        shard.send(message)
    return [shard.recv() for shard in shards]


class ShardedCrawl:
    """Superstep driver over N host-sharded crawlers.

    ``factory(shard_id)`` must build a fresh, fully independent
    :class:`ShardCrawler` — in particular its own filter chain (the
    attrition counters are per-shard state) and its own
    :class:`MetricsRegistry` if observability is wanted.  Tracing is
    not supported in sharded mode.

    ``processes=False`` runs every shard in this process (the
    determinism-test mode); ``processes=True`` forks one child per
    shard and exchanges link buffers over pipes.  Both modes execute
    the identical superstep schedule and produce identical merged
    artifacts.
    """

    def __init__(self, factory: Callable[[int], ShardCrawler],
                 n_shards: int, max_pages: int, *,
                 host_quota: int = 4,
                 rounds: int = 1,
                 checkpoint_path: str | Path | None = None,
                 checkpoint_every: int = 0,
                 processes: bool = False) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if host_quota < 1:
            raise ValueError("host_quota must be >= 1")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.factory = factory
        self.n_shards = n_shards
        self.max_pages = max_pages
        self.host_quota = host_quota
        self.rounds = rounds
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path else None)
        self.checkpoint_every = checkpoint_every
        self.processes = processes
        #: Set after run(): merged deterministic metrics (or None).
        self.metrics: MetricsRegistry | None = None
        #: Child pids in process mode (for kill-one-shard tests).
        self.child_pids: list[int] = []
        self.supersteps = 0
        #: Per-round merged counter summaries (multi-round runs only).
        self.round_reports: list[dict] = []

    # -- public API ----------------------------------------------------------

    def run(self, seeds: list[str] | None = None, *,
            resume: bool = False,
            barrier_callback: Callable[[int], None] | None = None,
            ) -> CrawlResult:
        """Crawl to completion; returns the merged result.

        ``barrier_callback(total_pages_visited)`` fires after every
        superstep barrier (post-checkpoint) — the sharded analog of
        the page callback, used by kill/resume harnesses.
        """
        superstep = 0
        start_round = 0
        need_begin = self.rounds > 1
        inbound: dict[int, list[LinkRecord]] = {
            shard: [] for shard in range(self.n_shards)}
        restore_payloads: list[dict | None] = [None] * self.n_shards
        if self.rounds > 1 and seeds is None:
            raise ValueError("a multi-round sharded crawl requires "
                             "seeds (every round re-crawls from them)")
        if resume and self.checkpoint_path is not None \
                and self.checkpoint_path.exists():
            payload = load_sharded_checkpoint(self.checkpoint_path)
            if payload["n_shards"] != self.n_shards:
                raise ValueError(
                    f"checkpoint has {payload['n_shards']} shards, "
                    f"driver has {self.n_shards}; the shard count of "
                    "a crawl is fixed at its first checkpoint")
            superstep = payload["superstep"]
            start_round = int(payload.get("round", 0))
            restore_payloads = list(payload["shards"])
            if payload.get("round_complete", False):
                # The checkpoint sits at a round boundary: either the
                # whole crawl finished (rebuild its merged result) or
                # the next round starts fresh from the restored state.
                if start_round >= self.rounds - 1:
                    return self._finished_result(
                        superstep, restore_payloads,
                        payload.get("stop_reason", ""))
                start_round += 1
                need_begin = True
            else:
                need_begin = False
                for shard, links in payload["inbound"].items():
                    inbound[int(shard)] = [tuple(link)
                                           for link in links]
        elif seeds is None:
            raise ValueError("a fresh sharded crawl requires seeds")
        elif self.rounds == 1:
            # Single-round crawls never call begin_round (bit-compat
            # with the pre-recrawl schedule); seeds route up front.
            inbound = self._seed_inbound(seeds)
        forked = self.processes and can_fork(
            "a sharded crawl in processes", "in-process shards")
        with self._shards(forked, restore_payloads) as shards:
            if forked:
                self.child_pids = [shard.pid for shard in shards]
            try:
                return self._drive(shards, superstep, start_round,
                                   need_begin, seeds, inbound,
                                   self._restored_pages(restore_payloads),
                                   barrier_callback)
            except WorkerDied as died:
                raise ShardCrashed(
                    f"{died}; resume from the last collective "
                    "checkpoint") from died

    @contextmanager
    def _shards(self, forked: bool, restore_payloads):
        """One worker per shard, answering :func:`_answer` commands —
        all stopped on the way out, also when the factory fails for a
        later shard."""
        shards = []
        crawlers = []  # the ones built in this process
        try:
            for shard_id, payload in enumerate(restore_payloads):
                make_handler = partial(_shard_handler, self.factory,
                                       shard_id, payload, crawlers)
                shards.append(
                    ForkedWorker(make_handler, f"repro-shard-{shard_id}")
                    if forked else InlineWorker(make_handler))
            yield shards
        finally:
            for shard in shards:
                shard.stop()
            # A forked shard's crawler dies with its process, inner
            # pool included; an inline one is ours to close.
            for crawler in crawlers:
                crawler.close()

    def _drive(self, shards, superstep, start_round, need_begin, seeds,
               inbound, pages_at_last_save,
               barrier_callback) -> CrawlResult:
        """The superstep / round / checkpoint loop, the same for both
        modes."""
        ask = partial(_ask, shards)
        snapshot = partial(ask, "snapshot")

        for rnd in range(start_round, self.rounds):
            if need_begin:
                ask("round", rnd)
                inbound = self._seed_inbound(seeds)
                pages_at_last_save = 0
            need_begin = True
            while True:
                for shard_id, shard in enumerate(shards):
                    shard.send(("apply", inbound[shard_id]))
                inbound = {shard_id: []
                           for shard_id in range(self.n_shards)}
                replies = [shard.recv() for shard in shards]
                total = sum(pages for pages, _empty in replies)
                stop_reason = self._stop_reason(
                    total, all(empty for _pages, empty in replies))
                if stop_reason:
                    break
                emitted: list[LinkRecord] = []
                total = 0
                for links, pages in ask("step", self.host_quota):
                    emitted.extend(links)
                    total += pages
                superstep += 1
                self._route(emitted, inbound)
                pages_at_last_save = self._maybe_checkpoint(
                    rnd, superstep, inbound, total,
                    pages_at_last_save, snapshot)
                if barrier_callback is not None:
                    barrier_callback(total)
            if self.rounds > 1:
                self.round_reports.append(self._merge_round_reports(
                    rnd, ask("summary", rnd)))
            if rnd < self.rounds - 1:
                self._round_checkpoint(rnd, superstep, stop_reason,
                                       snapshot)
        self.supersteps = superstep
        return self._finish(ask("final"), stop_reason, self.rounds - 1,
                            superstep, inbound, snapshot)

    # -- shared plumbing -----------------------------------------------------

    def _stop_reason(self, total_pages: int, all_empty: bool) -> str:
        if total_pages >= self.max_pages:
            return "page_budget"
        if all_empty:
            return "frontier_empty"
        return ""

    def _route(self, emitted: list[LinkRecord],
               inbound: dict[int, list[LinkRecord]]) -> None:
        for link in emitted:
            owner = shard_of(host_of(normalize(link[2])), self.n_shards)
            inbound[owner].append(link)

    def _seed_inbound(self, seeds: list[str]
                      ) -> dict[int, list[LinkRecord]]:
        inbound: dict[int, list[LinkRecord]] = {
            shard: [] for shard in range(self.n_shards)}
        for index, url in enumerate(seeds):
            owner = shard_of(host_of(normalize(url)), self.n_shards)
            inbound[owner].append(("", index, url, 0, 0))
        return inbound

    def _restored_pages(self, restore_payloads) -> int:
        return sum(payload["result"]["pages_fetched"]
                   + payload["result"].get("fetches_skipped", 0)
                   for payload in restore_payloads
                   if payload is not None)

    def _maybe_checkpoint(self, round_, superstep, inbound, total_pages,
                          pages_at_last_save,
                          snapshot: Callable[[], list[dict]]) -> int:
        if self.checkpoint_path is None:
            return pages_at_last_save
        if (self.checkpoint_every > 0
                and total_pages - pages_at_last_save
                < self.checkpoint_every):
            return pages_at_last_save
        save_sharded_checkpoint(
            self.checkpoint_path, n_shards=self.n_shards,
            superstep=superstep, inbound=inbound, shards=snapshot(),
            round_=round_)
        return total_pages

    def _round_checkpoint(self, round_, superstep, stop_reason,
                          snapshot: Callable[[], list[dict]]) -> None:
        """Mark a completed non-final round at its closing barrier; a
        resume from this file starts the *next* round."""
        if self.checkpoint_path is None:
            return
        save_sharded_checkpoint(
            self.checkpoint_path, n_shards=self.n_shards,
            superstep=superstep,
            inbound={shard: [] for shard in range(self.n_shards)},
            shards=snapshot(), round_=round_, round_complete=True,
            stop_reason=stop_reason)

    def _finished_result(self, superstep, restore_payloads,
                         stop_reason) -> CrawlResult:
        """The checkpoint says the final round already completed:
        rebuild the merged result from the per-shard snapshots without
        re-running anything (resume of a finished crawl)."""
        with self._shards(False, restore_payloads) as shards:
            finals = _ask(shards, "final")
        self.supersteps = superstep
        merged, metrics = merge_shard_payloads(finals, stop_reason,
                                               superstep)
        self.metrics = metrics
        return merged

    @staticmethod
    def _merge_round_reports(rnd: int, reports: list[dict]) -> dict:
        """Sum per-shard round summaries (clock is a max — the busiest
        host anywhere, same rule as the result merge)."""
        merged = dict.fromkeys(reports[0], 0)
        merged["round"] = rnd
        merged["clock_seconds"] = 0.0
        for report in reports:
            for key, value in report.items():
                if key == "round":
                    continue
                if key == "clock_seconds":
                    merged[key] = max(merged[key], value)
                else:
                    merged[key] += value
        return merged

    def _finish(self, finals, stop_reason, round_, superstep, inbound,
                snapshot) -> CrawlResult:
        merged, metrics = merge_shard_payloads(finals, stop_reason,
                                               superstep)
        self.metrics = metrics
        if self.checkpoint_path is not None:
            # Final collective checkpoint (mirrors the single-crawler
            # final save): byte-identical for a resumed and an
            # uninterrupted run of the same topology.  Marked
            # round-complete so a re-resume rebuilds instead of
            # re-crawling.
            save_sharded_checkpoint(
                self.checkpoint_path, n_shards=self.n_shards,
                superstep=superstep, inbound=inbound,
                shards=snapshot(), round_=round_,
                round_complete=True, stop_reason=stop_reason)
        return merged
