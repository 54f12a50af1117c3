"""Synthetic web substrate.

The paper crawls the live 2015 web; offline we substitute a
deterministic synthetic web: a host/page graph with topical locality
(:mod:`repro.web.webgraph`), an HTML renderer that wraps article text
in boilerplate and injects the markup-defect classes real pages show
(:mod:`repro.web.htmlgen`), and a simulated HTTP layer with robots.txt,
politeness, redirects, errors, and spider traps
(:mod:`repro.web.server`).

The crawler exercises exactly the same code paths against this
substrate as it would against live HTTP.
"""

from repro.web.webgraph import WebGraph, WebGraphConfig, PageSpec
from repro.web.htmlgen import PageRenderer
from repro.web.faults import (
    FaultConfig, FaultDecision, FaultInjector, FaultRates,
)
from repro.web.server import SimulatedWeb, FetchResult, SimulatedClock
from repro.web.robots import RobotsPolicy, parse_robots

__all__ = [
    "WebGraph",
    "WebGraphConfig",
    "PageSpec",
    "PageRenderer",
    "FaultConfig",
    "FaultDecision",
    "FaultInjector",
    "FaultRates",
    "SimulatedWeb",
    "FetchResult",
    "SimulatedClock",
    "RobotsPolicy",
    "parse_robots",
]
