"""Focused crawler (Apache Nutch analog).

Architecture follows Fig. 1 of the paper: an injector seeds the
CrawlDB frontier; fetchers download pages under politeness rules; a
parser extracts links and content into the LinkDB; and the focusing
extension chain — MIME filter, language filter, length filter,
boilerplate removal, Naïve Bayes relevance classification — decides
whether a page enters the corpus and its outlinks enter the frontier.

Seed generation queries simulated search engines with keyword
inventories (Table 1), reproducing both seed rounds of Section 2.2.
"""

from repro.crawler.frontier import CrawlDb, FrontierEntry
from repro.crawler.filters import (
    FilterChain, FilterStats, LanguageFilter, LengthFilter, MimeFilter,
)
from repro.crawler.parser import extract_links, extract_title
from repro.crawler.linkdb import LinkDb
from repro.crawler.pagerank import pagerank
from repro.crawler.search import SimulatedSearchEngine, build_search_engines
from repro.crawler.seeds import SeedGenerator, SeedBatch
from repro.crawler.crawl import FocusedCrawler, CrawlConfig, CrawlResult
from repro.crawler.robust import (
    BreakerConfig, CircuitBreaker, HostHealth, RetryPolicy,
)
from repro.crawler.consolidated import (
    EntityAwareClassifier, TwoPhaseClassifier,
)
from repro.crawler.checkpoint import (
    CheckpointError, CheckpointState, ResumableCrawl, load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "EntityAwareClassifier",
    "TwoPhaseClassifier",
    "ResumableCrawl",
    "CheckpointError",
    "CheckpointState",
    "load_checkpoint",
    "save_checkpoint",
    "BreakerConfig",
    "CircuitBreaker",
    "HostHealth",
    "RetryPolicy",
    "CrawlDb",
    "FrontierEntry",
    "FilterChain",
    "FilterStats",
    "MimeFilter",
    "LanguageFilter",
    "LengthFilter",
    "extract_links",
    "extract_title",
    "LinkDb",
    "pagerank",
    "SimulatedSearchEngine",
    "build_search_engines",
    "SeedGenerator",
    "SeedBatch",
    "FocusedCrawler",
    "CrawlConfig",
    "CrawlResult",
]
