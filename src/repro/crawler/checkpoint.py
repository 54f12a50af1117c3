"""Crash-safe crawl checkpointing.

The paper's crawl ran for more than 80 days; nothing that long survives
without restartability.  This module persists the crawl state — the
frontier (pending URLs + seen set + per-host budgets), the harvested
corpora, the link graph, the counters, and the crawler's runtime state
(politeness schedule, robots cache, circuit breakers, filter counters)
— as JSON, and restores a
:class:`~repro.crawler.crawl.FocusedCrawler` run from it.

Checkpoints are durable :mod:`repro.persist` formats ("On-disk
formats" in ``docs/robustness.md``), only taken at batch boundaries,
which is what makes a killed crawl resume to *byte identical* final
results: at a batch boundary there are no in-flight fetches, and every
fetch outcome is a deterministic function of state the checkpoint
captures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.annotations import Document
from repro.crawler.crawl import CrawlResult, FocusedCrawler
from repro.crawler.frontier import CrawlDb, FrontierEntry
from repro.crawler.linkdb import LinkDb
from repro.persist import FileFormat
from repro.web.robots import RobotsPolicy

#: Version 2 adds failure_reasons / retries / hosts_quarantined /
#: document raw bodies to the result, and the crawler-state section.
#: Version 3 adds the deterministic per-stage page counters
#: (``stage_pages``).  Version 4 adds the incremental-recrawl state:
#: the recrawl counters on the result, the crawler-state ``recrawl``
#: subsection (round, page memory, revisit scheduler), the optional
#: ``neardup`` subsection, and — for sharded checkpoints — the round
#: marker and completion flag.  Older payloads still load (missing
#: fields default); payloads with a *newer* version are rejected with
#: a clear :class:`CheckpointError` instead of surfacing as a stray
#: ``KeyError`` deep in restore.  Per-stage *seconds* are deliberately
#: not checkpointed: they are wall-clock observability, meaningless
#: across process restarts, and excluded from resume-equivalence
#: guarantees.  The crawler-state section may carry an optional
#: ``obs`` subsection (deterministic metrics + finished trace spans)
#: when observability is attached; its absence is always valid.
FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """A checkpoint file is missing, truncated, or malformed."""


_CHECKPOINT = FileFormat("checkpoint", FORMAT_VERSION,
                         sections=("frontier", "result", "clock_now"),
                         error=CheckpointError)
_SHARDED = replace(
    _CHECKPOINT, what="sharded checkpoint", kind="sharded",
    sections=("n_shards", "superstep", "inbound", "shards"))


def frontier_to_dict(frontier: CrawlDb) -> dict:
    return {
        "host_fetch_list_cap": frontier.host_fetch_list_cap,
        "max_urls_per_host": frontier.max_urls_per_host,
        "queues": {host: [[e.url, e.depth, e.irrelevant_steps]
                          for e in queue]
                   for host, queue in frontier._queues.items()},
        "seen": sorted(frontier._seen),
        "per_host_added": dict(frontier._per_host_added),
        "dropped_host_cap": frontier.dropped_host_cap,
    }


def frontier_from_dict(payload: dict) -> CrawlDb:
    from collections import deque

    frontier = CrawlDb(
        host_fetch_list_cap=payload["host_fetch_list_cap"],
        max_urls_per_host=payload["max_urls_per_host"])
    frontier._seen = set(payload["seen"])
    frontier._per_host_added = dict(payload["per_host_added"])
    frontier.dropped_host_cap = payload["dropped_host_cap"]
    for host, entries in payload["queues"].items():
        frontier._queues[host] = deque(
            FrontierEntry(url, depth, steps)
            for url, depth, steps in entries)
    return frontier


def _document_to_dict(document: Document) -> dict:
    return {"doc_id": document.doc_id, "text": document.text,
            "raw": document.raw, "meta": document.meta}


def _document_from_dict(payload: dict) -> Document:
    return Document(doc_id=payload["doc_id"], text=payload["text"],
                    raw=payload.get("raw", ""),
                    meta=dict(payload["meta"]))


def result_to_dict(result: CrawlResult) -> dict:
    return {
        "relevant": [_document_to_dict(d) for d in result.relevant],
        "irrelevant": [_document_to_dict(d) for d in result.irrelevant],
        "outlinks": {s: list(t) for s, t in result.linkdb.outlinks.items()},
        "pages_fetched": result.pages_fetched,
        "fetch_failures": result.fetch_failures,
        "robots_denied": result.robots_denied,
        "filtered_out": result.filtered_out,
        "clock_seconds": result.clock_seconds,
        "stop_reason": result.stop_reason,
        "failure_reasons": dict(result.failure_reasons),
        "retries": result.retries,
        "hosts_quarantined": result.hosts_quarantined,
        "stage_pages": dict(result.stage_pages),
        "fetches_skipped": result.fetches_skipped,
        "pages_unchanged": result.pages_unchanged,
        "pages_changed": result.pages_changed,
        "pages_near_unchanged": result.pages_near_unchanged,
        "replay_hits": result.replay_hits,
    }


def result_from_dict(payload: dict) -> CrawlResult:
    result = CrawlResult(
        relevant=[_document_from_dict(d) for d in payload["relevant"]],
        irrelevant=[_document_from_dict(d)
                    for d in payload["irrelevant"]],
        pages_fetched=payload["pages_fetched"],
        fetch_failures=payload["fetch_failures"],
        robots_denied=payload["robots_denied"],
        filtered_out=payload["filtered_out"],
        clock_seconds=payload["clock_seconds"],
        stop_reason=payload["stop_reason"],
        failure_reasons=dict(payload.get("failure_reasons", {})),
        retries=payload.get("retries", 0),
        hosts_quarantined=payload.get("hosts_quarantined", 0),
        stage_pages=dict(payload.get("stage_pages", {})),
        fetches_skipped=payload.get("fetches_skipped", 0),
        pages_unchanged=payload.get("pages_unchanged", 0),
        pages_changed=payload.get("pages_changed", 0),
        pages_near_unchanged=payload.get("pages_near_unchanged", 0),
        replay_hits=payload.get("replay_hits", 0))
    linkdb = LinkDb()
    for source, targets in payload["outlinks"].items():
        linkdb.add_edges(source, targets)
    result.linkdb = linkdb
    return result


def crawler_state_to_dict(crawler: FocusedCrawler) -> dict:
    """Runtime state a resumed crawler needs to behave identically:
    politeness schedule, robots cache (a re-fetch would cost clock
    time), circuit breakers, and filter attrition counters.

    When observability is attached, the *deterministic* metrics and
    the finished trace spans are included too, so a resumed crawl's
    exports stay byte-identical to an uninterrupted run's.  Volatile
    metrics (wall-clock, pool attribution) are deliberately dropped —
    they are meaningless across process restarts, same as
    ``CrawlResult.stage_seconds``.
    """
    payload = {
        "host_ready": dict(crawler._host_ready),
        "robots": {host: {"disallow": list(policy.disallow),
                          "allow": list(policy.allow),
                          "crawl_delay": policy.crawl_delay}
                   for host, policy in crawler._robots_cache.items()},
        "breakers": crawler.health.to_dict(),
        "filters": {name: [stats.accepted, stats.rejected]
                    for name, stats in crawler.filters.stats.items()},
    }
    if (crawler.round or crawler.memory is not None
            or crawler.scheduler is not None):
        recrawl: dict = {"round": crawler.round}
        if crawler.memory is not None:
            recrawl["memory"] = crawler.memory.to_dict()
        if crawler.scheduler is not None:
            recrawl["scheduler"] = crawler.scheduler.state_dict()
        payload["recrawl"] = recrawl
    if crawler.neardup is not None:
        payload["neardup"] = crawler.neardup.state_dict()
    obs = {}
    if crawler.metrics is not None:
        obs["metrics"] = crawler.metrics.to_dict()
    if crawler.tracer is not None:
        obs["trace"] = crawler.tracer.state_dict()
    if obs:
        payload["obs"] = obs
    return payload


def restore_crawler_state(crawler: FocusedCrawler, payload: dict) -> None:
    crawler._host_ready = dict(payload.get("host_ready", {}))
    crawler._robots_cache = {
        host: RobotsPolicy(disallow=list(entry["disallow"]),
                           allow=list(entry["allow"]),
                           crawl_delay=entry["crawl_delay"])
        for host, entry in payload.get("robots", {}).items()}
    crawler.health.restore(payload.get("breakers", {}))
    for name, (accepted, rejected) in payload.get("filters", {}).items():
        if name in crawler.filters.stats:
            stats = crawler.filters.stats[name]
            stats.accepted = accepted
            stats.rejected = rejected
    recrawl = payload.get("recrawl")
    if recrawl:
        from repro.crawler.recrawl import PageMemory, RecrawlScheduler

        crawler.round = int(recrawl.get("round", 0))
        if "memory" in recrawl:
            if crawler.memory is None:
                crawler.memory = PageMemory()
            crawler.memory.load_dict(recrawl["memory"])
        if "scheduler" in recrawl:
            if crawler.scheduler is None:
                crawler.scheduler = RecrawlScheduler()
            crawler.scheduler.load_state(recrawl["scheduler"])
    neardup_state = payload.get("neardup")
    if neardup_state is not None and crawler.neardup is not None:
        crawler.neardup.load_state(neardup_state)
    obs = payload.get("obs", {})
    if crawler.metrics is not None and "metrics" in obs:
        crawler.metrics.load_dict(obs["metrics"])
    if crawler.tracer is not None and "trace" in obs:
        crawler.tracer.load_state(obs["trace"])


@dataclass
class CheckpointState:
    """Everything one checkpoint restores."""

    frontier: CrawlDb
    result: CrawlResult
    clock_now: float
    crawler_state: dict | None = None


def save_checkpoint(path: str | Path, frontier: CrawlDb,
                    result: CrawlResult, clock_now: float,
                    crawler_state: dict | None = None) -> Path:
    """Persist mid-crawl state to one JSON file, atomically."""
    return _CHECKPOINT.save(path, {
        "clock_now": clock_now,
        "frontier": frontier_to_dict(frontier),
        "result": result_to_dict(result),
        "crawler": crawler_state,
    })


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Restore crawl state from a checkpoint.

    Raises :class:`CheckpointError` on unreadable, truncated,
    malformed, or unsupported payloads — a caller should treat that as
    "no usable checkpoint", not as a crawl bug.
    """
    payload = _CHECKPOINT.load(path)
    try:
        return CheckpointState(
            frontier=frontier_from_dict(payload["frontier"]),
            result=result_from_dict(payload["result"]),
            clock_now=float(payload["clock_now"]),
            crawler_state=payload.get("crawler"))
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"checkpoint {path} is malformed: {error!r}") from error


def save_sharded_checkpoint(path: str | Path, *, n_shards: int,
                            superstep: int, inbound: dict,
                            shards: list[dict], round_: int = 0,
                            round_complete: bool = False,
                            stop_reason: str = "") -> Path:
    """Persist the *collective* state of a sharded crawl atomically.

    One file holds every shard's (frontier, result, crawler state)
    plus the driver's superstep counter and the cross-shard link
    buffers pending application — the single consistency point of the
    superstep barrier.  Written only by the coordinating parent, so a
    crash of any shard (or the parent itself) can never leave shards
    checkpointed at different supersteps.  ``round_`` is the recrawl
    round the barrier belongs to; ``round_complete`` marks the final
    barrier of a round (a resume continues with the *next* round) and
    carries the driver-level ``stop_reason``.
    """
    return _SHARDED.save(path, {
        "n_shards": n_shards,
        "superstep": superstep,
        "round": round_,
        "round_complete": round_complete,
        "stop_reason": stop_reason,
        "inbound": {str(shard): [list(link) for link in links]
                    for shard, links in inbound.items()},
        "shards": shards,
    })


def load_sharded_checkpoint(path: str | Path) -> dict:
    """Load a collective sharded checkpoint; validates shape.

    Returns the raw payload dict; the shard driver rebuilds its
    crawlers from the per-shard sections.  Raises
    :class:`CheckpointError` on unreadable, truncated, or
    wrong-kind payloads.
    """
    payload = _SHARDED.load(path)
    shards = payload["shards"]
    if not isinstance(shards, list) or len(shards) != payload["n_shards"]:
        raise CheckpointError(
            f"sharded checkpoint {path} does not carry one shard section "
            f"for each of n_shards={payload['n_shards']!r}")
    return payload


class ResumableCrawl:
    """A focused crawl that checkpoints itself and survives kills.

    :meth:`run` drives :meth:`FocusedCrawler.crawl` to completion,
    writing an atomic checkpoint every ``checkpoint_every`` fetched
    pages (at batch boundaries).  If the process dies at any point —
    including mid-batch — rerunning :meth:`run` with ``resume=True``
    restores the last checkpoint (frontier, partial corpus, clock,
    politeness/robots/breaker state) and continues to results byte
    identical to an uninterrupted run.

    :meth:`run_leg` is the budgeted-leg interface: it runs up to
    ``leg_pages`` fetches per call and checkpoints at the end of the
    leg.
    """

    def __init__(self, crawler: FocusedCrawler,
                 checkpoint_path: str | Path) -> None:
        self.crawler = crawler
        self.checkpoint_path = Path(checkpoint_path)

    # -- full-run interface -------------------------------------------------

    def run(self, seeds: list[str] | None = None,
            checkpoint_every: int = 200, resume: bool = False,
            page_callback=None) -> CrawlResult:
        """Crawl to completion with periodic atomic checkpoints."""
        frontier = result = None
        state = self.restore() if resume else None
        if state is not None:
            frontier, result = state.frontier, state.result
        elif seeds is None:
            raise ValueError("a fresh crawl requires seeds")
        return self.crawler.crawl(seeds, frontier=frontier, result=result,
                                  checkpoint=self.saver(checkpoint_every,
                                                        result),
                                  page_callback=page_callback)

    # -- legged interface ---------------------------------------------------

    def run_leg(self, seeds: list[str] | None, leg_pages: int,
                ) -> CrawlResult:
        """Run up to ``leg_pages`` fetches, then checkpoint.

        The first leg needs ``seeds``; later legs resume from the
        checkpoint and ignore the argument.
        """
        crawler = self.crawler
        config = crawler.config
        state = self.restore()
        if state is not None:
            frontier, result = state.frontier, state.result
        else:
            if seeds is None:
                raise ValueError("first leg requires seeds")
            frontier = CrawlDb(
                host_fetch_list_cap=config.host_fetch_list_cap,
                max_urls_per_host=config.max_urls_per_host)
            frontier.add_seeds(seeds)
            result = CrawlResult()
        total_budget = config.max_pages
        leg_budget = result.pages_fetched + leg_pages
        config.max_pages = min(total_budget, leg_budget)
        try:
            result = crawler.crawl(frontier=frontier, result=result)
        finally:
            config.max_pages = total_budget
        if (result.stop_reason == "page_budget"
                and result.pages_fetched < total_budget):
            result.stop_reason = "leg_budget"
        self._save(frontier, result)
        return result

    # -- the two halves ------------------------------------------------------

    def restore(self) -> CheckpointState | None:
        """Load the checkpoint, if there is one, and put the crawler
        back where it was (clock, politeness/robots/breaker state);
        the returned state's frontier and result are the caller's to
        continue from.  None when no checkpoint exists."""
        if not self.checkpoint_path.exists():
            return None
        state = load_checkpoint(self.checkpoint_path)
        self.crawler.clock.now = state.clock_now
        if state.crawler_state is not None:
            restore_crawler_state(self.crawler, state.crawler_state)
        return state

    def saver(self, every: int,
              result: CrawlResult | None) -> "_PeriodicSaver":
        """The ``checkpoint=`` callback for :meth:`FocusedCrawler.crawl`:
        saves every ``every`` visited pages, counted from ``result``
        (the restored one, when resuming), and at the end."""
        return _PeriodicSaver(
            self, every, result.pages_visited if result is not None else 0)

    def _save(self, frontier: CrawlDb, result: CrawlResult) -> None:
        save_checkpoint(self.checkpoint_path, frontier, result,
                        self.crawler.clock.now,
                        crawler_state_to_dict(self.crawler))


class _PeriodicSaver:
    """Checkpoint callback: persists every N fetched pages (and at the
    final boundary, where the crawl loop always invokes it)."""

    def __init__(self, resumable: ResumableCrawl, every: int,
                 pages_done: int) -> None:
        self.resumable = resumable
        self.every = max(1, every)
        self.pages_at_last_save = pages_done
        self.saves = 0

    def __call__(self, frontier: CrawlDb, result: CrawlResult) -> None:
        due = (result.pages_visited - self.pages_at_last_save
               >= self.every)
        final = bool(result.stop_reason)
        if not (due or final):
            return
        self.resumable._save(frontier, result)
        self.pages_at_last_save = result.pages_visited
        self.saves += 1
