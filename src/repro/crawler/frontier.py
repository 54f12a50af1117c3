"""CrawlDB: the crawl frontier.

Holds not-yet-visited URLs grouped by host, with the paper's two
operational guards: host-specific fetch lists capped (at 500 in the
deployment) so no host monopolizes the fetcher threads, and a per-host
URL budget that bounds spider traps (a trap host can mint unbounded
dynamic URLs; the cap turns an infinite loop into a bounded detour).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.web.urls import host_of, normalize


@dataclass(frozen=True)
class FrontierEntry:
    """A URL awaiting fetch.

    ``irrelevant_steps`` counts consecutive irrelevant ancestors — 0
    for seeds and children of relevant pages.  The paper's default
    policy stops at the first irrelevant page; the "follow irrelevant
    links for n steps" alternative (Section 5) raises the allowance.
    """

    url: str
    depth: int = 0
    irrelevant_steps: int = 0


@dataclass
class CrawlDb:
    """Frontier with per-host queues and global dedup."""

    host_fetch_list_cap: int = 500
    max_urls_per_host: int = 10_000
    _queues: dict[str, deque[FrontierEntry]] = field(default_factory=dict)
    _seen: set[str] = field(default_factory=set)
    _per_host_added: dict[str, int] = field(default_factory=dict)
    dropped_host_cap: int = 0

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def add(self, url: str, depth: int = 0, irrelevant_steps: int = 0) -> bool:
        """Enqueue a URL unless seen or host-budget exhausted."""
        url = normalize(url)
        if url in self._seen:
            return False
        host = host_of(url)
        if not host:
            return False
        added = self._per_host_added.get(host, 0)
        if added >= self.max_urls_per_host:
            self.dropped_host_cap += 1
            return False
        self._seen.add(url)
        self._per_host_added[host] = added + 1
        self._queues.setdefault(host, deque()).append(
            FrontierEntry(url, depth, irrelevant_steps))
        return True

    def add_seeds(self, urls: list[str]) -> int:
        """Inject seed URLs (the Nutch injector); returns #accepted."""
        return sum(1 for url in urls if self.add(url, depth=0))

    def mark_seen(self, url: str) -> None:
        """Record a URL as seen without queueing (e.g. redirect targets)."""
        self._seen.add(normalize(url))

    def next_batch(self, size: int) -> list[FrontierEntry]:
        """Dequeue up to ``size`` entries, round-robin over hosts,
        taking at most ``host_fetch_list_cap`` per host per batch."""
        batch: list[FrontierEntry] = []
        taken_per_host: dict[str, int] = {}
        hosts = [h for h, q in self._queues.items() if q]
        index = 0
        while len(batch) < size and hosts:
            host = hosts[index % len(hosts)]
            queue = self._queues[host]
            if not queue or taken_per_host.get(host, 0) >= self.host_fetch_list_cap:
                hosts.remove(host)
                continue
            batch.append(queue.popleft())
            taken_per_host[host] = taken_per_host.get(host, 0) + 1
            index += 1
        self._gc_empty()
        return batch

    def next_batch_per_host(self, quota: int) -> list[FrontierEntry]:
        """Dequeue up to ``quota`` entries from *every* non-empty host,
        hosts visited in sorted order.

        This is the superstep batch rule of the sharded crawl
        (:mod:`repro.crawler.shard`): because each host's queue evolves
        independently and hosts are drained in a canonical order, the
        entries a host contributes per superstep are the same no matter
        which shard owns it — the property that makes an N-shard crawl
        reproduce the 1-shard crawl exactly.
        """
        batch: list[FrontierEntry] = []
        for host in sorted(h for h, q in self._queues.items() if q):
            queue = self._queues[host]
            for _ in range(min(quota, len(queue))):
                batch.append(queue.popleft())
        self._gc_empty()
        return batch

    def requeue_front(self, entries: list[FrontierEntry]) -> None:
        """Push dequeued-but-unprocessed entries back to the front of
        their host queues, preserving order.

        Used when a budget boundary interrupts a batch mid-way: the
        leftover entries must survive into the next batch (and into
        checkpoints) instead of being silently dropped.
        """
        for entry in reversed(entries):
            host = host_of(entry.url)
            self._queues.setdefault(host, deque()).appendleft(entry)

    def is_empty(self) -> bool:
        return len(self) == 0

    def hosts(self) -> list[str]:
        return [h for h, q in self._queues.items() if q]

    def _gc_empty(self) -> None:
        for host in [h for h, q in self._queues.items() if not q]:
            del self._queues[host]
