"""Simulated HTTP layer over the synthetic web graph.

Serves rendered HTML (with boilerplate and markup defects), binary
payloads, robots.txt, redirects, errors, and unbounded spider-trap
pages.  Latency is modelled with a deterministic per-URL pseudo-random
draw and accumulated on a :class:`SimulatedClock`, so crawl experiments
measure politeness and throughput without real sleeping.

Content evolution: the web carries an ``epoch`` counter (the recrawl
round) and a ``churn_rate``.  Each page has a deterministic *content
version* — the number of epochs in ``1..epoch`` whose seeded change
draw fell below the churn rate — and its body is evolved through that
many chained revisions (mostly minor word-level edits, occasionally a
major rewrite that also re-renders the page chrome).  ``fetch`` takes
an ``if_version`` argument simulating a conditional GET: when the
stored version still matches, the server answers 304-style with
``not_modified=True`` and no body, at latency-only cost.  Epoch 0 (or
churn 0) reproduces the historical single-snapshot web bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.web.faults import FaultConfig, FaultDecision, FaultInjector
from repro.web.htmlgen import PageRenderer
from repro.util import seeded_rng
from repro.web.robots import render_robots
from repro.web.urls import host_of, normalize
from repro.web.webgraph import PageSpec, WebGraph, _next_trap_url, is_trap_url

#: What a canonicalizing redirect appends to an article URL.
REDIRECT_SUFFIX = "?ref=r"


def strip_redirect(url: str) -> str:
    """The planted page's URL behind a possibly redirected one."""
    return url.partition(REDIRECT_SUFFIX)[0]


def _evolve_text(text: str, rng: random.Random,
                 fraction: float) -> str:
    """One deterministic revision: swap ``fraction`` of the word
    positions (plus one word dropped and one duplicated on heavy
    edits).  Swapping keeps the vocabulary distribution intact — the
    page stays on-topic for the relevance classifier — while changing
    word order, which is what both exact hashes and w-shingles key on.
    """
    words = text.split()
    if len(words) < 2:
        return text
    swaps = max(1, int(len(words) * fraction))
    for _ in range(swaps):
        i = rng.randrange(len(words))
        j = rng.randrange(len(words))
        words[i], words[j] = words[j], words[i]
    if fraction >= 0.2:
        del words[rng.randrange(len(words))]
        words.insert(rng.randrange(len(words) + 1),
                     words[rng.randrange(len(words))])
    return " ".join(words)


class SimulatedClock:
    """A manually-advanced wall clock for politeness accounting."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += seconds
        return self.now


@dataclass
class FetchResult:
    """Outcome of one simulated HTTP GET.

    ``status`` 0 denotes a network-level failure (timeout or refused
    connection; ``failure`` tells them apart).  Binary payloads are
    returned as latin-1 decodable strings carrying their magic bytes.
    """

    url: str
    status: int
    content_type: str
    body: str
    elapsed: float
    redirected_from: str | None = None
    #: Reason code when the fetch failed ("timeout", "server_error",
    #: "rate_limited", "truncated", "redirect_loop", "connect_failed",
    #: "unavailable", "not_found"); None for clean responses.
    failure: str | None = None
    #: Retry-After hint (seconds) on 429 responses.
    retry_after: float = 0.0
    #: Body was cut mid-stream (content-length mismatch).
    truncated: bool = False
    #: Conditional fetch hit: the page's content version still matches
    #: the caller's ``if_version`` (status 304, empty body).
    not_modified: bool = False
    #: The page's content version at serve time (0 on the epoch-0 web
    #: and for non-page responses).  Carried on 200s and 304s so the
    #: crawler can key its replay memory.
    content_version: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.truncated


class SimulatedWeb:
    """Fetch interface over a :class:`WebGraph`."""

    def __init__(self, graph: WebGraph, seed: int = 53,
                 error_rate: float = 0.02, timeout_rate: float = 0.01,
                 redirect_rate: float = 0.03,
                 base_latency: float = 0.15,
                 faults: FaultConfig | FaultInjector | None = None,
                 churn_rate: float = 0.0,
                 major_change_fraction: float = 0.3) -> None:
        if not 0.0 <= churn_rate <= 1.0:
            raise ValueError("churn_rate must be in [0, 1]")
        self.graph = graph
        self.seed = seed
        self.error_rate = error_rate
        self.timeout_rate = timeout_rate
        self.redirect_rate = redirect_rate
        self.base_latency = base_latency
        self.renderer = PageRenderer(seed=seed + 7)
        self.fetch_count = 0
        if isinstance(faults, FaultConfig):
            faults = FaultInjector(faults)
        self.faults = faults
        #: Per-epoch probability that a page's content changes.
        self.churn_rate = churn_rate
        #: Of the pages that change, the fraction whose revision is a
        #: major rewrite (heavy edit + chrome re-render) rather than a
        #: minor word-level touch-up.
        self.major_change_fraction = major_change_fraction
        #: Current recrawl round; 0 is the original snapshot.
        self.epoch = 0
        # url -> (epoch the cached version was computed at, version);
        # versions are monotone in epoch, so the cache extends
        # incrementally as the epoch advances.
        self._version_cache: dict[str, tuple[int, int]] = {}

    def set_epoch(self, epoch: int) -> None:
        """Move the web to a recrawl round (content evolves between
        rounds; setting the same epoch twice is a no-op)."""
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        self.epoch = epoch

    def content_version(self, url: str) -> int:
        """Deterministic content version of ``url`` at the current
        epoch: the number of epochs in ``1..epoch`` whose seeded churn
        draw changed the page."""
        if self.churn_rate <= 0.0 or self.epoch == 0:
            return 0
        cached_epoch, version = self._version_cache.get(url, (0, 0))
        if cached_epoch > self.epoch:
            cached_epoch, version = 0, 0
        for past in range(cached_epoch + 1, self.epoch + 1):
            if (seeded_rng(self.seed, "churn", url, past).random()
                    < self.churn_rate):
                version += 1
        self._version_cache[url] = (self.epoch, version)
        return version

    # -- public API ---------------------------------------------------------

    def robots_txt(self, host: str) -> str:
        return render_robots(self.graph.host_robots(host))

    def fetch(self, url: str, attempt: int = 0,
              now: float | None = None,
              if_version: int | None = None) -> FetchResult:
        """Simulate one GET; follows at most one internal redirect.

        ``attempt`` keys the fault-injection draw (so retries see fresh
        outcomes) and ``now`` is the simulated clock time (flaky hosts
        recover once it passes their recovery point).  Both default to
        the fault-free single-shot behaviour.  ``if_version`` makes the
        GET conditional: when the resolved page's content version still
        equals it, the response is a body-less 304 with
        ``not_modified=True`` (latency is paid, bandwidth is not).
        """
        self.fetch_count += 1
        url = normalize(url)
        rng = seeded_rng(self.seed, url)
        elapsed = self.base_latency + rng.expovariate(1 / 0.1)
        injected: FaultDecision | None = None
        if self.faults is not None:
            elapsed *= self.faults.latency_factor(host_of(url))
            injected = self.faults.decide(url, attempt, now,
                                          epoch=self.epoch)
            if injected is not None and injected.kind != "truncated":
                return self._faulted(url, injected, elapsed)
        if url.endswith("/robots.txt"):
            body = self.robots_txt(host_of(url))
            return FetchResult(url, 200, "text/plain", body, elapsed)
        roll = rng.random()
        if roll < self.timeout_rate:
            return FetchResult(url, 0, "", "", elapsed + 30.0,
                               failure="timeout")
        if roll < self.timeout_rate + self.error_rate:
            return FetchResult(url, 500, "text/html",
                               "<html>Internal Server Error</html>", elapsed,
                               failure="server_error")
        page = self._resolve_page(url)
        if page is None:
            return FetchResult(url, 404, "text/html",
                               "<html>Not Found</html>", elapsed,
                               failure="not_found")
        if (page.kind == "article" and rng.random() < self.redirect_rate
                and not url.endswith("/") and REDIRECT_SUFFIX not in url):
            # Canonicalizing redirect: …/itemN.html -> …/itemN.html?ref=r
            target = url + REDIRECT_SUFFIX
            if url != normalize(target):
                inner = self.fetch(target, attempt=attempt, now=now,
                                   if_version=if_version)
                inner.redirected_from = url
                inner.elapsed += elapsed
                return inner
        # The version is keyed on the canonical page URL so direct and
        # redirected fetches of the same page agree.  The conditional
        # check sits *after* the redirect roll so the per-URL RNG
        # consumes identical draws on the 304 and 200 paths.
        version = self.content_version(page.url)
        if (if_version is not None and version == if_version
                and injected is None):
            return FetchResult(url, 304, "", "", elapsed,
                               not_modified=True, content_version=version)
        body, content_type = self._render(page, url, version)
        size_penalty = len(body) / 2_000_000  # 2 MB/s effective bandwidth
        if injected is not None:  # injected.kind == "truncated"
            body = body[:max(1, int(len(body) * injected.keep_fraction))]
            return FetchResult(url, 200, content_type, body,
                               elapsed + size_penalty, failure="truncated",
                               truncated=True, content_version=version)
        return FetchResult(url, 200, content_type, body,
                           elapsed + size_penalty, content_version=version)

    def _faulted(self, url: str, fault: FaultDecision,
                 elapsed: float) -> FetchResult:
        """Materialize an injected fault as a FetchResult."""
        kind = fault.kind
        if kind == "timeout":
            return FetchResult(url, 0, "", "", elapsed + 30.0,
                               failure="timeout")
        if kind == "connect_failed":
            # Refused connections fail fast.
            return FetchResult(url, 0, "", "", min(elapsed, 0.05),
                               failure="connect_failed")
        if kind == "unavailable":
            return FetchResult(url, 503, "text/html",
                               "<html>Service Unavailable</html>", elapsed,
                               failure="unavailable")
        if kind == "server_error":
            return FetchResult(url, 500, "text/html",
                               "<html>Internal Server Error</html>", elapsed,
                               failure="server_error")
        if kind == "rate_limited":
            return FetchResult(url, 429, "text/html",
                               "<html>Too Many Requests</html>", elapsed,
                               failure="rate_limited",
                               retry_after=fault.retry_after)
        if kind == "redirect_loop":
            # The client walks several hops before giving up.
            return FetchResult(url, 310, "", "", elapsed * 4,
                               failure="redirect_loop")
        raise ValueError(f"unknown fault kind: {kind!r}")

    # -- internals ------------------------------------------------------------

    def _resolve_page(self, url: str) -> PageSpec | None:
        stripped = strip_redirect(url)
        page = self.graph.page(stripped)
        if page is not None:
            return page
        # Spider-trap URLs are generated on demand, unboundedly.
        if is_trap_url(stripped):
            host = host_of(stripped)
            if host in self.graph.hosts and self.graph.hosts[host].kind == "trap":
                return PageSpec(url=stripped, host=host,
                                biomedical=self.graph.hosts[host].biomedical,
                                kind="trap", doc_index=0)
        return None

    def _render(self, page: PageSpec, url: str,
                version: int = 0) -> tuple[str, str]:
        if page.content_type.startswith("application/"):
            # Versioned binaries draw a fresh payload; version 0 keeps
            # the historical key so the epoch-0 web is bit-identical.
            if version:
                rng = seeded_rng(self.seed, "bin", page.url, version)
            else:
                rng = seeded_rng(self.seed, "bin", page.url)
            magic = ("%PDF-1.4" if "pdf" in page.content_type else
                     "\xd0\xcf\x11\xe0")
            payload = magic + "".join(
                chr(rng.randint(32, 255)) for _ in range(2000))
            # Some servers mislabel binaries as HTML (the paper's
            # unreliable-MIME-detection pitfall).
            mislabeled = rng.random() < 0.4
            return payload, ("text/html" if mislabeled else page.content_type)
        if page.kind == "trap":
            next_url = _next_trap_url(page.url)
            body = (f"<html><head><title>Calendar</title></head><body>"
                    f"<p>Calendar of events.</p>"
                    f'<a href="{next_url}">next</a></body></html>')
            return body, "text/html"
        text, chrome_salt = self._evolved_text(page.url, version)
        html = self.renderer.render(
            url=page.url, title=self.graph.title_of(page.url),
            body_text=text, outlinks=page.outlinks,
            nav_links=page.nav_links,
            page_index=page.doc_index + chrome_salt * 7919)
        return html, "text/html"

    def _evolved_text(self, url: str, version: int) -> tuple[str, int]:
        """Body text after ``version`` chained revisions, plus the
        chrome salt (last major-revision number; 0 means the original
        page chrome).

        Minor revisions reorder a few percent of the words — enough to
        break exact content hashes while keeping shingle similarity
        high.  Major revisions reorder about half the text and bump
        the chrome salt so the rendered page changes wholesale.
        """
        text = self.graph.body_text(url)
        salt = 0
        for revision in range(1, version + 1):
            rng = seeded_rng(self.seed, "rev", url, revision)
            if rng.random() < self.major_change_fraction:
                text = _evolve_text(text, rng, 0.5)
                salt = revision
            else:
                text = _evolve_text(text, rng, 0.03)
        return text, salt
