"""Synthetic host/page graph with topical locality.

Models the structural facts the paper's focused crawl depends on:

* **Topical locality** — relevant pages mostly link to relevant pages
  (Davison [8]); the ``topical_locality`` parameter controls this.
* **Weakly-linked biomedical sites** — biomedical pages carry few
  cross-host links; most outlinks are navigational, to the same host
  (Section 2.2 / 4.1 of the paper).
* **Portal front pages** — authoritative hub pages that search engines
  return for general keywords; they are link-dense with little topical
  text, so the relevance classifier rejects them and the crawl branch
  dies (the paper's first seed-generation failure).
* **Spider traps** — hosts generating unbounded dynamic link chains.
* **Noise classes** — binary (PDF-like) payloads, non-English pages,
  too-short and extremely long pages, sized to reproduce the paper's
  filter attrition (MIME 9.5 %, language 14 %, length 17 %).

Pages and their link structure are materialized eagerly; page *text*
is generated lazily (and cached per graph) from the corpus generators.
``body_text`` renders text only (``DocumentGenerator.text``);
``gold_document`` builds the gold layers of the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.annotations import Document
from repro.corpora.foreign import FOREIGN_WORDS, generate_foreign_text
from repro.corpora.pmc import concat_gold_documents
from repro.corpora.profiles import IRRELEVANT, RELEVANT
from repro.corpora.textgen import DocumentGenerator, GoldDocument
from repro.corpora.vocabulary import BiomedicalVocabulary
from repro.web.robots import RobotsPolicy
from repro.util import seeded_rng

#: Authority hosts seeded into every graph; biomedical ones echo the
#: flavour of the paper's Table 2 page-rank listing.
AUTHORITY_HOSTS_BIO = [
    "nih.example.gov", "cancer.example.org", "biomedcentral.example.com",
    "healthline.example.com", "cdc.example.gov", "rightdiagnosis.example.com",
    "arxiv.example.org", "nature-blogs.example.com", "ourhealth.example.com",
    "sideeffects.example.de",
]
AUTHORITY_HOSTS_GENERAL = [
    "wikipedia.example.org", "blogger.example.com", "slideshare.example.net",
    "reuters.example.com", "wordpress.example.org", "disqus.example.com",
    "about.example.com", "statcounter.example.com",
]

_BIO_HOST_STEMS = ["genomeportal", "medinfo", "clinicnews", "pharmaguide",
                   "oncowiki", "biolab", "diseasehub", "drugfacts",
                   "patientforum", "labnotes"]
_GENERAL_HOST_STEMS = ["sportsnews", "travelblog", "recipebox", "carreview",
                       "musicdaily", "fashionfeed", "gamezone", "moneytalk",
                       "weatherlive", "cityguide"]

#: A short page is its article cut to this many characters.
_SHORT_PAGE_CHARS = 150
#: A long page joins articles until their text reaches this length.
_LONG_PAGE_CHARS = 25_000
_LONG_PAGE_SEPARATOR = "\n\n"


@dataclass
class WebGraphConfig:
    """Knobs for synthetic web generation (defaults: test-friendly)."""

    n_hosts: int = 60
    biomedical_host_fraction: float = 0.4
    pages_per_host_mean: float = 18.0
    #: P(cross-host link from a relevant page targets a relevant host).
    #: Calibrated so the focused crawl's harvest rate lands near the
    #: paper's 38 % (relevant pages link to relevant far more often
    #: than irrelevant ones do, but not overwhelmingly — the web view).
    topical_locality: float = 0.50
    #: P(cross-host link from an irrelevant page targets a relevant host).
    reverse_locality: float = 0.08
    #: Cross-host outlinks per page: biomedical sites are weakly linked.
    cross_links_bio: int = 1
    cross_links_general: int = 5
    nav_links: int = 5
    portal_host_fraction: float = 0.12
    trap_host_fraction: float = 0.05
    #: Noise-class fractions among article pages.
    binary_page_fraction: float = 0.095
    foreign_page_fraction: float = 0.14
    short_page_fraction: float = 0.10
    long_page_fraction: float = 0.07
    #: Fraction of a biomedical host's articles that are off-topic
    #: anyway (about pages, community chatter, shop pages) — the main
    #: dilution that pulls the harvest rate down toward the paper's
    #: 38 % even though the crawl stays on biomedical hosts.
    offtopic_page_fraction: float = 0.45
    #: Fraction of hosts whose robots.txt disallows part of the site.
    robots_restricted_fraction: float = 0.15
    seed: int = 97


@dataclass
class HostSpec:
    name: str
    biomedical: bool
    kind: str  # "site" | "portal" | "trap" | "authority"
    n_pages: int
    robots: RobotsPolicy = field(default_factory=RobotsPolicy)


@dataclass
class PageSpec:
    """One page: structure only; text is rendered lazily."""

    url: str
    host: str
    biomedical: bool
    kind: str  # "article" | "front" | "trap"
    language: str = "en"
    content_type: str = "text/html"
    length_class: str = "normal"  # "short" | "normal" | "long"
    doc_index: int = 0
    outlinks: list[str] = field(default_factory=list)
    nav_links: list[str] = field(default_factory=list)


class WebGraph:
    """Deterministic synthetic web graph."""

    def __init__(self, config: WebGraphConfig | None = None,
                 vocabulary: BiomedicalVocabulary | None = None) -> None:
        self.config = config or WebGraphConfig()
        self.vocabulary = vocabulary or BiomedicalVocabulary(seed=self.config.seed)
        self.hosts: dict[str, HostSpec] = {}
        self.pages: dict[str, PageSpec] = {}
        self._rng = random.Random(self.config.seed)
        self._relevant_gen = DocumentGenerator(
            self.vocabulary, RELEVANT, seed=self.config.seed + 1,
            pathological_fraction=0.02)
        self._irrelevant_gen = DocumentGenerator(
            self.vocabulary, IRRELEVANT, seed=self.config.seed + 2,
            pathological_fraction=0.02)
        self._texts: dict[str, str] = {}
        self._build()

    # -- queries -----------------------------------------------------------

    def urls(self) -> list[str]:
        return list(self.pages)

    def page(self, url: str) -> PageSpec | None:
        return self.pages.get(url)

    def relevant_urls(self) -> list[str]:
        return [u for u, p in self.pages.items() if p.biomedical]

    def host_robots(self, host: str) -> RobotsPolicy:
        spec = self.hosts.get(host)
        return spec.robots if spec else RobotsPolicy()

    def body_text(self, url: str) -> str:
        """Net article text for a page (rendered on first contact, then
        cached on this graph)."""
        text = self._texts.get(url)
        if text is None:
            text = self._texts[url] = self._text_for(url)
        return text

    def gold_document(self, url: str) -> GoldDocument:
        """Gold-annotated net text for evaluation purposes; its text is
        ``body_text(url)``."""
        return self._gold_for(url)

    def title_of(self, url: str) -> str:
        page = self.pages[url]
        topic = "Health" if page.biomedical else "General"
        return f"{topic} article {page.doc_index} at {page.host}"

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        rng = self._rng
        cfg = self.config
        self._make_hosts(rng, cfg)
        for host in self.hosts.values():
            self._make_pages(rng, cfg, host)
        self._link_pages(rng, cfg)

    def _make_hosts(self, rng: random.Random, cfg: WebGraphConfig) -> None:
        names: list[tuple[str, bool, str]] = []
        for name in AUTHORITY_HOSTS_BIO:
            names.append((name, True, "authority"))
        for name in AUTHORITY_HOSTS_GENERAL:
            names.append((name, False, "authority"))
        remaining = max(0, cfg.n_hosts - len(names))
        for i in range(remaining):
            biomedical = rng.random() < cfg.biomedical_host_fraction
            stems = _BIO_HOST_STEMS if biomedical else _GENERAL_HOST_STEMS
            tld = rng.choice(["com", "org", "net", "info"])
            name = f"{rng.choice(stems)}{i}.example.{tld}"
            roll = rng.random()
            if roll < cfg.trap_host_fraction:
                kind = "trap"
            elif roll < cfg.trap_host_fraction + cfg.portal_host_fraction:
                kind = "portal"
            else:
                kind = "site"
            names.append((name, biomedical, kind))
        for name, biomedical, kind in names:
            n_pages = max(3, int(rng.expovariate(1.0 / cfg.pages_per_host_mean)))
            if kind == "authority":
                n_pages = max(n_pages, int(cfg.pages_per_host_mean * 1.5))
            robots = RobotsPolicy()
            if rng.random() < cfg.robots_restricted_fraction:
                robots.disallow.append("/private/")
                if rng.random() < 0.3:
                    robots.crawl_delay = rng.choice([0.5, 1.0, 2.0])
            self.hosts[name] = HostSpec(name=name, biomedical=biomedical,
                                        kind=kind, n_pages=n_pages,
                                        robots=robots)

    def _make_pages(self, rng: random.Random, cfg: WebGraphConfig,
                    host: HostSpec) -> None:
        base = f"http://{host.name}"
        front = PageSpec(url=f"{base}/", host=host.name,
                         biomedical=host.biomedical,
                         kind="front", doc_index=len(self.pages))
        self.pages[front.url] = front
        if host.kind == "trap":
            first_trap = PageSpec(
                url=f"{base}/calendar?page=1", host=host.name,
                biomedical=host.biomedical, kind="trap",
                doc_index=len(self.pages))
            self.pages[first_trap.url] = first_trap
            return
        for i in range(host.n_pages):
            in_private = rng.random() < 0.08
            prefix = "/private" if in_private else "/articles"
            page_biomedical = host.biomedical
            if host.biomedical and rng.random() < cfg.offtopic_page_fraction:
                page_biomedical = False
            page = PageSpec(url=f"{base}{prefix}/item{i}.html",
                            host=host.name, biomedical=page_biomedical,
                            kind="article", doc_index=len(self.pages))
            roll = rng.random()
            if roll < cfg.binary_page_fraction:
                page.content_type = rng.choice(
                    ["application/pdf", "application/vnd.ms-powerpoint"])
                page.url = page.url.replace(
                    ".html", ".pdf" if "pdf" in page.content_type else ".ppt")
            elif roll < cfg.binary_page_fraction + cfg.foreign_page_fraction:
                page.language = rng.choice(list(FOREIGN_WORDS))
            else:
                roll2 = rng.random()
                if roll2 < cfg.short_page_fraction:
                    page.length_class = "short"
                elif roll2 < cfg.short_page_fraction + cfg.long_page_fraction:
                    page.length_class = "long"
            self.pages[page.url] = page

    def _link_pages(self, rng: random.Random, cfg: WebGraphConfig) -> None:
        by_host: dict[str, list[str]] = {}
        for url, page in self.pages.items():
            by_host.setdefault(page.host, []).append(url)
        relevant_targets = [u for u, p in self.pages.items()
                            if p.biomedical and p.kind == "article"]
        general_targets = [u for u, p in self.pages.items()
                           if not p.biomedical and p.kind == "article"]
        authority_fronts = [f"http://{h.name}/" for h in self.hosts.values()
                            if h.kind == "authority"]
        for url, page in self.pages.items():
            host = self.hosts[page.host]
            siblings = by_host[page.host]
            # Navigational links: front page + a few same-host siblings.
            nav = [f"http://{page.host}/"]
            nav.extend(rng.sample(siblings, k=min(cfg.nav_links, len(siblings))))
            page.nav_links = [u for u in dict.fromkeys(nav) if u != url]
            if page.kind == "trap":
                page.outlinks = [_next_trap_url(url)]
                continue
            # Content links: cross-host, governed by topical locality.
            n_cross = (cfg.cross_links_bio if page.biomedical
                       else cfg.cross_links_general)
            if page.kind == "front":
                n_cross = max(n_cross, 8 if host.kind in ("portal", "authority")
                              else n_cross)
            outlinks: list[str] = []
            for _ in range(n_cross):
                to_relevant = (rng.random() < cfg.topical_locality
                               if page.biomedical
                               else rng.random() < cfg.reverse_locality)
                pool = relevant_targets if to_relevant else general_targets
                if rng.random() < 0.2 and authority_fronts:
                    outlinks.append(rng.choice(authority_fronts))
                elif pool:
                    outlinks.append(rng.choice(pool))
            page.outlinks = [u for u in dict.fromkeys(outlinks) if u != url]

    # -- text synthesis ------------------------------------------------------

    def _generator_for(self, page: PageSpec) -> DocumentGenerator | None:
        """The corpus generator that writes an English article; None
        for front, trap and foreign pages."""
        if page.kind != "article" or page.language != "en":
            return None
        return self._relevant_gen if page.biomedical else self._irrelevant_gen

    def _plain_page(self, page: PageSpec) -> tuple[str, dict]:
        """Text and meta flags of a page no corpus generator writes."""
        if page.kind == "front":
            host = self.hosts[page.host]
            topic = "health topics" if host.biomedical else "daily stories"
            return (f"Welcome to {host.name}. Browse our {topic}. "
                    "Latest headlines, featured articles, and community "
                    "picks."), {"front_page": True}
        if page.kind == "trap":
            return ("Calendar of events. Next page. Previous page.",
                    {"trap": True})
        rng = seeded_rng(self.config.seed, "text", page.url)
        return (generate_foreign_text(page.language, 1500, rng),
                {"language": page.language})

    def _text_for(self, url: str) -> str:
        page = self.pages[url]
        generator = self._generator_for(page)
        if generator is None:
            return self._plain_page(page)[0]
        text = generator.text(page.doc_index)
        if page.length_class == "short":
            return text[:_SHORT_PAGE_CHARS]
        if page.length_class == "long":
            return _LONG_PAGE_SEPARATOR.join(_long_page_parts(
                generator.text, page.doc_index, text, len))
        return text

    def _gold_for(self, url: str) -> GoldDocument:
        page = self.pages[url]
        generator = self._generator_for(page)
        if generator is None:
            text, flags = self._plain_page(page)
            return GoldDocument(document=Document(
                doc_id=f"web-{page.doc_index:08d}", text=text,
                meta={"url": url, **flags}))
        gold = generator.document(page.doc_index)
        gold.document.meta["url"] = url
        if page.length_class == "short":
            return _truncate_gold(gold, max_chars=_SHORT_PAGE_CHARS)
        if page.length_class == "long":
            return concat_gold_documents(
                _long_page_parts(generator.document, page.doc_index, gold,
                                 lambda part: len(part.text)),
                doc_id=gold.doc_id, separator=_LONG_PAGE_SEPARATOR,
                meta=gold.document.meta)
        return gold


def _next_trap_url(url: str) -> str:
    """Dynamic-link spider trap: page=N links to page=N+1, forever."""
    base, _sep, n = url.rpartition("=")
    try:
        return f"{base}={int(n) + 1}"
    except ValueError:
        return f"{url}?page=2"


def is_trap_url(url: str) -> bool:
    return "/calendar?page=" in url


def _truncate_gold(gold: GoldDocument, max_chars: int) -> GoldDocument:
    text = gold.text[:max_chars]
    doc = Document(doc_id=gold.doc_id, text=text, meta=dict(gold.document.meta))
    sentences = [s for s in gold.sentences if s.end <= max_chars]
    entities = [e for e in gold.entities if e.mention.end <= max_chars]
    return GoldDocument(document=doc, sentences=sentences, entities=entities)


def _long_page_parts(render, doc_index: int, first, length) -> list:
    """``first`` plus further documents ``render`` draws for a long
    page, until their ``length`` sum reaches ``_LONG_PAGE_CHARS``.
    ``render`` is a generator's ``text`` or ``document``."""
    parts = [first]
    total = length(first)
    k = 1
    while total < _LONG_PAGE_CHARS:
        extra = render(doc_index * 131 + k + 1_000_000)
        parts.append(extra)
        total += length(extra)
        k += 1
    return parts
