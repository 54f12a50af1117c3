"""Incremental recrawl: page memory, change detection, scheduling.

A production crawler runs continuously over a changing web; refetching
and reprocessing everything every round is unaffordable when most
pages did not change (source-level churn is heavy-tailed).  This
module supplies the three pieces the crawl loop composes into an
incremental path (the round loop itself, with checkpoint/resume at
batch and round boundaries, is
:class:`~repro.crawler.checkpoint.ResumableCrawl`'s):

* :class:`PageMemory` — a content-addressed replay store.  For every
  cleanly fetched page it records the content fingerprint, the served
  content version, a MinHash revision signature, and the page's full
  :class:`~repro.crawler.parallel.DocumentOutcome` (wire form).  On a
  later round, a page whose content is provably unchanged — the server
  answered a conditional GET with *not modified*, or the refetched
  body hashes to the stored fingerprint — *replays* its stored outcome
  without re-running repair/parse/boilerplate/classify.  This extends
  the content-addressed keying of the automaton cache through the
  whole per-page pipeline.

* change detection — exact change via :func:`content_fingerprint`;
  near-identical revisions (minor wording edits) via
  :func:`revision_signature`, the :mod:`repro.html.neardup` shingling
  estimator over the raw body.  Near-unchanged revisions still
  reprocess (replay is keyed on *exact* content so corpora stay
  byte-identical to a cold crawl), but they feed the scheduler as
  "effectively stable".

* :class:`RecrawlScheduler` — per-host revisit intervals driven by the
  observed change rates, AIMD-style: any observed real change snaps the
  host back to the minimum interval, an all-stable round doubles it up
  to the maximum.  A host that is not yet due has its recorded pages
  *skipped* (no network, outcome replayed as assumed-unchanged).
  Interval phases carry deterministic seeded jitter so revisits
  stagger instead of thundering in lockstep.

Everything here is deterministic and topology-invariant: memory and
scheduler state are keyed per URL / per host (hosts are disjoint
across shards), serialized in canonical sorted order, and replayed
outcomes carry no volatile wall-clock, so merged results and metric
exports stay byte-identical at any worker or shard count, including
kill+resume mid-round.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.html.neardup import MinHasher, shingles
from repro.util import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.crawl import CrawlResult

#: Estimated-Jaccard threshold above which a changed revision counts
#: as *near-unchanged* (minor edit) for scheduling purposes.
NEAR_UNCHANGED_THRESHOLD = 0.6

#: One shared MinHasher for revision signatures: every process (and
#: every checkpoint) must agree on the hash family, so it is fixed
#: here rather than configured.
_SIGNATURE_HASHER = MinHasher(n_hashes=16, seed=97)


def content_fingerprint(body: str) -> str:
    """Exact content hash of a fetched body (hex, 16 bytes)."""
    return hashlib.blake2b(body.encode("utf-8", "surrogatepass"),
                           digest_size=16).hexdigest()


def revision_signature(body: str) -> tuple[int, ...]:
    """MinHash signature of a body's word shingles — compact enough to
    checkpoint per page, close enough to classify a revision as a
    minor edit (high estimated Jaccard) or a rewrite."""
    return _SIGNATURE_HASHER.signature(shingles(body))


def near_unchanged(old_signature: tuple[int, ...] | None,
                   new_signature: tuple[int, ...]) -> bool:
    """Was this revision a near-identical (minor) edit?"""
    if old_signature is None or len(old_signature) != len(new_signature):
        return False
    similarity = MinHasher.estimated_jaccard(tuple(old_signature),
                                             new_signature)
    return similarity >= NEAR_UNCHANGED_THRESHOLD


@dataclass
class PageRecord:
    """Everything :class:`PageMemory` keeps for one frontier URL."""

    #: URL the content was finally served from (after the canonical
    #: redirect, if any) — the replayed document's ``doc_id``.
    final_url: str
    #: Content version the stored outcome corresponds to.
    version: int
    #: Exact content hash of the stored body.
    fingerprint: str
    #: MinHash revision signature (None when never computed).
    signature: tuple[int, ...] | None
    #: ``outcome_to_wire`` tuple with volatile ``stage_seconds``
    #: stripped, so checkpoints stay byte-deterministic.
    outcome: tuple
    #: Raw body — retained only for pages that reached classification
    #: (only those land in the corpus and need ``Document.raw``).
    body: str | None
    content_type: str
    #: Round this page was last actually visited (fetched or 304'd).
    last_round: int = 0

    def to_dict(self) -> dict:
        return {
            "final_url": self.final_url,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "signature": (list(self.signature)
                          if self.signature is not None else None),
            "outcome": _wire_to_json(self.outcome),
            "body": self.body,
            "content_type": self.content_type,
            "last_round": self.last_round,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PageRecord":
        signature = payload.get("signature")
        return cls(
            final_url=payload["final_url"],
            version=int(payload["version"]),
            fingerprint=payload["fingerprint"],
            signature=(tuple(int(v) for v in signature)
                       if signature is not None else None),
            outcome=_wire_from_json(payload["outcome"]),
            body=payload.get("body"),
            content_type=payload.get("content_type", "text/html"),
            last_round=int(payload.get("last_round", 0)),
        )


def _wire_to_json(wire: tuple) -> list:
    """JSON-safe form of an ``outcome_to_wire`` tuple."""
    (mime_ok, transcodable, net_text, title, outlinks, rejected_by,
     relevant, _stage_seconds) = wire
    return [mime_ok, transcodable, net_text, title, list(outlinks),
            rejected_by, relevant]


def _wire_from_json(payload: list) -> tuple:
    (mime_ok, transcodable, net_text, title, outlinks, rejected_by,
     relevant) = payload
    return (mime_ok, transcodable, net_text, title, tuple(outlinks),
            rejected_by, relevant, {})


def strip_stage_seconds(wire: tuple) -> tuple:
    """Drop the volatile per-stage wall times before storing a wire
    outcome: replayed outcomes must not reinject old wall-clock into
    results or checkpoints."""
    return wire[:-1] + ({},)


class PageMemory:
    """Replay store: frontier URL -> :class:`PageRecord`.

    ``context_key`` plays the role the content key plays for the
    automaton cache: a stored outcome is only valid for the pipeline
    configuration that produced it, so restoring a checkpointed memory
    into a crawler keyed differently is refused.
    """

    def __init__(self, context_key: str = "") -> None:
        self.context_key = context_key
        self._records: dict[str, PageRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, url: str) -> bool:
        return url in self._records

    def get(self, url: str) -> PageRecord | None:
        return self._records.get(url)

    def put(self, url: str, record: PageRecord) -> None:
        self._records[url] = record

    def to_dict(self) -> dict:
        return {
            "context_key": self.context_key,
            "records": {url: self._records[url].to_dict()
                        for url in sorted(self._records)},
        }

    def load_dict(self, payload: dict) -> None:
        stored_key = payload.get("context_key", "")
        if (stored_key and self.context_key
                and stored_key != self.context_key):
            raise ValueError(
                "page memory belongs to a different pipeline "
                f"configuration (checkpoint {stored_key!r}, "
                f"crawler {self.context_key!r})")
        self._records = {url: PageRecord.from_dict(record)
                         for url, record in
                         payload.get("records", {}).items()}


@dataclass(frozen=True)
class SchedulerConfig:
    """AIMD revisit policy knobs (rounds, not seconds — the recrawl
    cadence is the unit of time here)."""

    #: Interval for hosts with recently observed changes (and the
    #: floor every change snaps a host back to).
    min_interval: int = 1
    #: Interval cap for hosts that never change.
    max_interval: int = 8
    #: Multiplicative interval growth per all-stable round.
    backoff: int = 2


class RecrawlScheduler:
    """Per-host revisit intervals driven by observed change rates.

    Purely deterministic: interval evolution is a function of the
    observation history, and the revisit phase jitter is seeded by
    ``(seed, host, round)``.  Hosts never observed (or not yet seen)
    are always due, so new discoveries are fetched promptly.
    """

    def __init__(self, config: SchedulerConfig | None = None,
                 seed: int = 0) -> None:
        self.config = config or SchedulerConfig()
        self.seed = seed
        self.round = 0
        self._intervals: dict[str, int] = {}
        self._next_due: dict[str, int] = {}
        # Current-round observation buffer, folded at the next
        # ``begin_round``.
        self._round_seen: set[str] = set()
        self._round_changed: set[str] = set()

    def due(self, host: str) -> bool:
        """Should this host's recorded pages be revisited this round?"""
        due_round = self._next_due.get(host)
        return due_round is None or due_round <= self.round

    def observe(self, host: str, changed: bool) -> None:
        """Record one visited page's change verdict for its host."""
        self._round_seen.add(host)
        if changed:
            self._round_changed.add(host)

    def begin_round(self, rnd: int) -> None:
        """Fold the previous round's observations into the intervals
        and move to round ``rnd``.  AIMD: any observed change resets a
        host to the minimum interval; an all-stable round multiplies
        its interval (capped).  The next-due phase carries seeded
        jitter so stable hosts stagger instead of all falling due on
        the same round."""
        if rnd < self.round:
            raise ValueError(
                f"recrawl round may not move backwards "
                f"({self.round} -> {rnd})")
        cfg = self.config
        for host in sorted(self._round_seen):
            if host in self._round_changed:
                interval = cfg.min_interval
            else:
                interval = min(
                    cfg.max_interval,
                    self._intervals.get(host, cfg.min_interval)
                    * cfg.backoff)
            self._intervals[host] = interval
            jitter = 0
            if interval > cfg.min_interval:
                jitter = seeded_rng(self.seed, "phase", host,
                                    self.round).randrange(0, 2)
            self._next_due[host] = self.round + interval + jitter
        self._round_seen = set()
        self._round_changed = set()
        self.round = rnd

    def state_dict(self) -> dict:
        return {
            "seed": self.seed,
            "round": self.round,
            "intervals": {host: self._intervals[host]
                          for host in sorted(self._intervals)},
            "next_due": {host: self._next_due[host]
                         for host in sorted(self._next_due)},
            "round_seen": sorted(self._round_seen),
            "round_changed": sorted(self._round_changed),
        }

    def load_state(self, payload: dict) -> None:
        self.seed = payload.get("seed", self.seed)
        self.round = int(payload.get("round", 0))
        self._intervals = {host: int(v) for host, v in
                           payload.get("intervals", {}).items()}
        self._next_due = {host: int(v) for host, v in
                          payload.get("next_due", {}).items()}
        self._round_seen = set(payload.get("round_seen", []))
        self._round_changed = set(payload.get("round_changed", []))


def round_summary(rnd: int, result: "CrawlResult") -> dict:
    """The per-round line item the CLI (and tests) report."""
    return {
        "round": rnd,
        "pages_fetched": result.pages_fetched,
        "fetches_skipped": result.fetches_skipped,
        "pages_unchanged": result.pages_unchanged,
        "pages_changed": result.pages_changed,
        "pages_near_unchanged": result.pages_near_unchanged,
        "replay_hits": result.replay_hits,
        "relevant": len(result.relevant),
        "irrelevant": len(result.irrelevant),
        "clock_seconds": result.clock_seconds,
    }
