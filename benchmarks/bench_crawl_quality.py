"""Section 4.1: focused-crawl operational metrics — harvest rate,
download rate, filter attrition, link topology."""

from reporting import format_table, write_report

from repro.web import strip_redirect


def test_crawl_quality(ctx, benchmark):
    result = benchmark.pedantic(ctx.crawl, rounds=1, iterations=1)
    attrition = result.filter_attrition
    rows = [
        ["harvest rate", "38 %", f"{result.harvest_rate:.0%}"],
        ["download rate (docs/s)", "3-4", f"{result.download_rate:.1f}"],
        ["MIME filter rejection", "9.5 %", f"{attrition['mime']:.1%}"],
        ["language filter rejection", "14 %",
         f"{attrition['language']:.1%}"],
        ["length filter rejection", "17 %", f"{attrition['length']:.1%}"],
        ["pages fetched", "~21 M", f"{result.pages_fetched}"],
        ["relevant docs", "4.2 M (373 GB)", f"{len(result.relevant)}"],
        ["irrelevant docs", "17.7 M (607 GB)",
         f"{len(result.irrelevant)}"],
    ]
    lines = format_table(["metric", "paper", "repro"], rows)
    write_report("crawl_quality", "Section 4.1 — crawl quality", lines)
    assert 0.2 < result.harvest_rate < 0.7
    assert 2.0 < result.download_rate < 7.0
    assert 0.02 < attrition["mime"] < 0.25
    assert 0.05 < attrition["language"] < 0.30
    assert 0.05 < attrition["length"] < 0.35


def test_biomedical_sites_weakly_linked(ctx, benchmark):
    """Section 4.1 / 2.2: biomedical pages link mostly within-host."""
    result = benchmark.pedantic(ctx.crawl, rounds=1, iterations=1)
    graph = ctx.webgraph

    def is_bio(url):
        page = graph.page(strip_redirect(url))
        return bool(page and page.biomedical)

    def is_general(url):
        page = graph.page(strip_redirect(url))
        return bool(page and not page.biomedical)

    bio_nav = result.linkdb.navigational_fraction(is_bio)
    general_nav = result.linkdb.navigational_fraction(is_general)
    lines = [
        f"navigational (same-host) link fraction, biomedical pages: "
        f"{bio_nav:.0%}",
        f"navigational link fraction, general pages: {general_nav:.0%}",
        "paper: 'biomedical sites generally are only weakly linked; "
        "most often, all outgoing links from a page were navigational'",
    ]
    write_report("link_topology", "Section 4.1 — link topology", lines)
    assert bio_nav > general_nav
    assert bio_nav > 0.5
