"""End-to-end benchmark driver (see README.md).

One workload, as the pipeline's benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload crawl_cold --seed 29 \\
        --seconds 10 --trace 0

prints what it measured and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).

Every workload, both ways, as a person runs it::

    python3 benchmarks/e2e/run.py            # add --smoke for tiny sizes

runs each (workload, trace) pair in its own process, prints every
metric by name and unit, and writes ``benchmarks/e2e/out/result.json``
for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

#: The CLI's own pipeline configuration (``repro.cli._context``), with
#: CRF training shortened from 25 to 8 iterations so that set-up fits
#: the driver's time cap: the weights differ, the feature space and
#: every kernel do not.
CONTEXT = {"seed": 19, "n_training_docs": 30, "crf_iterations": 8}
SMOKE_CONTEXT = {"seed": 19, "n_training_docs": 10, "crf_iterations": 2}

#: ``obs.unattributed_share`` above this fails the traced run.
MAX_UNATTRIBUTED = 0.05


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# -- memory -------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- one workload -----------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    row = {"n": len(ordered), "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1]}
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
        row.update(q1=q1, q3=q3)
    return row


def environment() -> dict:
    """Where a result was measured: goes into every result file."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def run_one(args, spec: dict) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict, workdir: Path) -> int:
    started = time.perf_counter()
    load_average = os.getloadavg()
    sys.path[:0] = [str(HERE), str(REPO / "src")]
    import spans
    from workloads import WORKLOADS, f1_of

    from repro.core.experiment import default_context

    name, traced_run = args.workload, bool(args.trace)
    context = SMOKE_CONTEXT if args.smoke else CONTEXT
    ctx = default_context(**context)
    build_started = time.perf_counter()
    pipeline = ctx.pipeline
    layer = {
        "core.pipeline_build_s": time.perf_counter() - build_started,
        "core.dictionary_build_s": sum(
            tagger.dictionary.build_seconds
            for tagger in pipeline.dictionary_taggers.values()),
    }
    workload = WORKLOADS[name](ctx, args.seed, args.smoke, workdir)
    layer.update(workload.setup())
    workload.warm()
    setup_s = time.perf_counter() - started

    repeats = max(1, round(args.seconds / workload.unit_seconds))
    if args.smoke:
        repeats = min(repeats, 2)
    # The traced run interleaves untraced and traced passes, so the
    # tracing overhead is a ratio of like with like.
    schedule = ([False, True] * math.ceil(repeats / 2) if traced_run
                else [False] * repeats)
    plain, traced, recorded = [], [], []
    for index, with_spans in enumerate(schedule):
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        tracer = (spans.SpanRecorder(f"{name}-{index}")
                  if with_spans else None)
        repeat = workload.run_once(tracer)
        (traced if with_spans else plain).append(repeat)
        if tracer is not None:
            recorded.extend(tracer.spans)
    gc.unfreeze()
    peak = peak_rss_mb()

    every = plain + traced
    # Problems a repeat found are already in its ``failed``; each one
    # found here adds one.
    problems = []
    if len({repeat.digest for repeat in every}) != 1:
        problems.append("output digests differ between repeats "
                        "(or between traced and untraced passes)")
    walls = [repeat.wall for repeat in plain]
    print(f"{name} seed {args.seed}: {len(plain)} untraced"
          f"{f' + {len(traced)} traced' if traced else ''} repeats, "
          f"wall {quartiles(walls)}")
    if traced_run:
        listed = spec["per_layer"]
        measured = layer
        problems += trace_metrics(layer, workload, plain, traced, recorded)
        spans.write_jsonl(recorded, OUT / f"trace-{name}.jsonl")
    else:
        listed = spec["end_to_end"]
        measured = {
            "setup_s": setup_s + statistics.median(r.prep for r in plain),
            # Best repeat, not the median: interference on a shared box
            # comes in bursts of seconds that only ever add time, and
            # a median of three repeats still carries one of them.
            "wall_s": min(walls),
            "cpu_s": min(r.cpu for r in plain),
            "peak_rss_mb": peak,
            "quality_f1": f1_of(plain[0].quality["all"]),
        }

    metrics = {entry["name"]: {"value": measured.get(entry["name"], 0.0),
                               "unit": entry["unit"]}
               for entry in listed}
    for metric, cell in metrics.items():
        if cell["value"]:
            print(f"  {metric:<34} {cell['value']:>14.6g} {cell['unit']}")
    idle = sum(not cell["value"] for cell in metrics.values())
    if idle:
        print(f"  ({idle} metrics read 0: this workload does not "
              "exercise their layer)")
    failed = sum(repeat.failed for repeat in every) + len(problems)
    problems += [problem for repeat in every for problem in repeat.problems]
    for problem in problems:
        print(f"PROBLEM: {problem}")
    result = {"correct": failed == 0,
              "attempted": sum(repeat.attempted for repeat in every),
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{name}-trace{int(traced_run)}.json").write_text(
        json.dumps({
            **result, "problems": problems, "workload": name,
            "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "context": context,
            "repeats": {"untraced": len(plain), "traced": len(traced)},
            "wall_s": quartiles(walls),
            "cpu_s": quartiles([r.cpu for r in plain]),
            "unlisted": {key: value for key, value in measured.items()
                         if key not in metrics},
            **environment(), "load_average_at_start": load_average,
        }, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def trace_metrics(layer: dict, workload, plain, traced,
                  recorded) -> list[str]:
    """Fill ``layer`` with the per-layer numbers of a traced run and
    print the reconciliation table; returns the checks that failed."""
    import spans
    from workloads import f1_of

    row = spans.reconcile(recorded)
    for stem, seconds in row["self"].items():
        layer[f"{stem}_s"] = seconds / len(traced)
    for key in traced[0].detail:
        layer.setdefault(key, statistics.median(
            repeat.detail[key] for repeat in traced))
    extra, problems = workload.extras(plain)
    layer.update(extra)
    layer["obs.unattributed_share"] = row["unattributed_share"]
    layer["obs.trace_overhead_ratio"] = (
        min(r.wall for r in traced) / min(r.wall for r in plain))
    for label, tally in traced[0].quality.items():
        if label != "all":
            layer[f"ner.{label}_f1"] = f1_of(tally)
    for line in spans.format_table(row):
        print(line)
    ner = sum(layer.get(key, 0.0) for key in (
        "ner.dictionary_s", "ner.crf_s", "ner.relations_s"))
    nlp = sum(layer.get(key, 0.0) for key in (
        "nlp.split_tokenize_s", "nlp.pos_s", "nlp.linguistics_s",
        "dataflow.linguistic_s"))
    if ner + nlp > 0:
        layer["ner.share_of_annotate"] = ner / (ner + nlp)
        layer["nlp.pos_share_of_annotate"] = (
            layer.get("nlp.pos_s", 0.0) / (ner + nlp))
        print(f"entity extraction is {layer['ner.share_of_annotate']:.0%} "
              f"of annotation time (paper Fig. 3: 70%), POS tagging "
              f"{layer['nlp.pos_share_of_annotate']:.0%} (paper: 12%)")
    if row["unattributed_share"] > MAX_UNATTRIBUTED:
        problems.append(
            f"unattributed share {row['unattributed_share']:.1%} "
            f"exceeds {MAX_UNATTRIBUTED:.0%}")
    return problems


# -- every workload ---------------------------------------------------------------

def run_all(args, spec: dict) -> int:
    started = time.perf_counter()
    names = [entry["name"] for entry in spec["workloads"]]
    runs: dict = {name: {"end_to_end": {}, "per_layer": {},
                         "attempted": 0, "failed": 0}
                  for name in names}
    correct = True
    for _ in range(args.runs):
        for name in names:
            for trace in (0, 1):
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, capture_output=True,
                                      text=True, cwd=REPO)
                lines = done.stdout.strip().splitlines()
                print("\n".join(lines[:-1]))
                if done.returncode not in (0, 1) or not lines:
                    print(done.stderr, file=sys.stderr)
                    return 2
                result = json.loads(lines[-1])
                correct = correct and result["correct"]
                entry = runs[name]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                kind = "per_layer" if trace else "end_to_end"
                for metric, cell in result["metrics"].items():
                    entry[kind].setdefault(metric, []).append(
                        cell["value"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "meta": {"seed": args.seed, "seconds": args.seconds,
                 "smoke": args.smoke, "runs": args.runs, **environment(),
                 "total_wall_s": time.perf_counter() - started},
        "end_to_end": spec["end_to_end"],
        "workloads": runs}, indent=1))
    print(f"\nall workloads {'correct' if correct else 'INCORRECT'}; "
          f"{time.perf_counter() - started:.0f} s; wrote {out}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no program to benchmark: {REPO / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=29,
                        help="workload input seed (default 29; 31 is "
                             "held out for later claims)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and models (schema check, "
                             "not a measurement)")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: sets of runs")
    parser.add_argument("--out", default=str(OUT / "result.json"),
                        help="with --workload all: result file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
