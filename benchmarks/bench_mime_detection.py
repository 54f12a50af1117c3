"""Section 5 gap: reliable MIME-type detection.

Compares three detectors on a corpus of clean and adversarial
payloads (mislabeled binaries, stripped magic bytes, binary-prefixed
text): server-declared type, magic-byte + extension sniffing (the
Tika-style state of the art the paper used), and the learned
content-statistics detector.
"""

from reporting import format_table, write_report

from benchmarks.arms.mime_ml import (
    build_default_detector, robust_is_textual,
)
from repro.html.mime import is_textual, sniff_mime
from repro.util import seeded_rng


def _binary(rng, length=2000):
    return "".join(chr(rng.randint(0, 255)) for _ in range(length))


def _cases(ctx):
    """(payload, url, declared, truly_textual) test cases."""
    rng = seeded_rng("mime-bench", 7)
    renderer_pages = []
    graph = ctx.webgraph
    for url, page in graph.pages.items():
        if (page.kind == "article" and page.language == "en"
                and not page.content_type.startswith("application/")):
            renderer_pages.append(url)
        if len(renderer_pages) >= 25:
            break
    cases = []
    for url in renderer_pages:
        fetch = ctx.web.fetch(url)
        if fetch.ok:
            cases.append((fetch.body, url, fetch.content_type, True))
    for i in range(25):
        # Honest binary with magic bytes.
        cases.append(("%PDF-1.4" + _binary(rng), f"http://b{i}/f.pdf",
                      "application/pdf", False))
        # Mislabeling server, magic bytes intact (the common case the
        # paper's Tika-style sniffing handles).
        cases.append(("%PDF-1.4" + _binary(rng), f"http://b{i}/doc.html",
                      "text/html", False))
        # Mislabeled binary, magic bytes stripped by a broken proxy.
        cases.append((_binary(rng), f"http://b{i}/page.html",
                      "text/html", False))
        # Binary with a forged HTML prefix.
        cases.append(("<html>" + _binary(rng), f"http://b{i}/x.html",
                      "text/html", False))
    return cases


def test_mime_detector_comparison(ctx, benchmark):
    detector = benchmark.pedantic(
        lambda: build_default_detector(n_examples=40),
        rounds=1, iterations=1)
    cases = _cases(ctx)
    methods = {
        "server-declared": lambda body, url, declared:
            declared.startswith("text/"),
        "magic bytes + extension (paper)": lambda body, url, declared:
            is_textual(sniff_mime(body, url, declared)),
        "content statistics (learned)": lambda body, url, declared:
            robust_is_textual(body, url, declared, detector),
    }
    rows = []
    accuracies = {}
    for name, method in methods.items():
        correct = sum(method(body, url, declared) == truth
                      for body, url, declared, truth in cases)
        accuracy = correct / len(cases)
        accuracies[name] = accuracy
        rows.append([name, f"{accuracy:.0%}"])
    lines = format_table(["detector", f"accuracy (n={len(cases)})"],
                         rows)
    lines.append("")
    lines.append("paper Sect. 5: 'we are not aware of any robust tools "
                 "or ongoing research for reliable MIME-type detection' "
                 "— whole-payload content statistics close the gap the "
                 "prefix-sniffing approach leaves on adversarial cases")
    write_report("mime_detection",
                 "Section 5 gap — MIME-type detection", lines)
    assert accuracies["magic bytes + extension (paper)"] > \
        accuracies["server-declared"]
    assert accuracies["content statistics (learned)"] >= \
        accuracies["magic bytes + extension (paper)"]
    assert accuracies["content statistics (learned)"] > 0.9
