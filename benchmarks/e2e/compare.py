"""Compare two result files written by ``run.py`` (all workloads).

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): both medians, the ratio
with its base, the bound, and a verdict:

``better`` / ``worse``
    the medians differ by more than the metric's bound;
``same``
    they do not;
``unresolved``
    the run-to-run spread (interquartile range over median, of either
    side) is wider than the bound, so the runs cannot tell -- unless
    every run of one side beats every run of the other.

Exits 1 on any ``worse`` row or a higher failed share, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (sign * (statistics.median(new) - statistics.median(base))
                / statistics.median(base))
    if max(spread(base), spread(new)) > bound:
        gaps = [sign * (b - a) for a in base for b in new]
        if all(gap < 0 for gap in gaps):
            return "better"
        if all(gap > 0 for gap in gaps) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """(report lines, whether anything regressed)."""
    lines = [f"{'workload':<18} {'metric':<12} {'base':>11} {'new':>11} "
             f"{'new/base':>22} {'bound':>6}  verdict"]
    regressed = False
    for name, runs in base["workloads"].items():
        other = new["workloads"][name]
        for entry in base["end_to_end"]:
            metric = entry["name"]
            a, b = runs["end_to_end"][metric], other["end_to_end"][metric]
            row = verdict(a, b, entry["better"], entry["bound"])
            regressed = regressed or row == "worse"
            base_median = statistics.median(a)
            ratio = (f"{statistics.median(b) / base_median:.3f}x of "
                     f"{base_median:.4g} {entry['unit']}")
            lines.append(
                f"{name:<18} {metric:<12} {base_median:>11.4g} "
                f"{statistics.median(b):>11.4g} {ratio:>22} "
                f"{entry['bound']:>6.0%}  {row} (n={len(a)}/{len(b)})")
        shares = [side["failed"] / max(1, side["attempted"])
                  for side in (runs, other)]
        if shares[1] > shares[0]:
            regressed = True
            lines.append(f"{name:<18} failed share rose from "
                         f"{shares[0]:.4%} to {shares[1]:.4%}  worse")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    lines, regressed = compare(base, new)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
