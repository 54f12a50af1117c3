"""Smoke test of the end-to-end benchmark itself.

Outside tier-1's ``testpaths``; run as::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Checks the ``BENCHMARK.json`` contract, the self-time arithmetic of
``spans.py`` on a hand-built tree, ``compare.py`` verdicts on
fabricated inputs, and one ``run.py --smoke`` over every workload,
traced and untraced.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("crawl_cold", "crawl_to_facts", "flow_pages",
             "serve_closed_loop")
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "quality_f1")
#: Per-layer counters that read 0 on a healthy run of every workload.
ZERO_WHEN_HEALTHY = {"web.fetch_failed", "serve.shed",
                     "serve.worker_failures"}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == END_TO_END
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = SPEC["end_to_end"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024


def _span(ident, parent, name, start, end, **extra):
    return {"id": ident, "parent": parent, "run": "r", "name": name,
            "start": start, "end": end, **extra}


def test_self_time_arithmetic_on_a_hand_built_tree():
    tree = [
        _span(0, None, spans.ROOT, 0.0, 10.0),
        _span(1, 0, "a.outer", 1.0, 9.0),
        _span(2, 1, "b.inner", 2.0, 4.0),
        # Overlapping siblings cover [3, 6] once, not twice.
        _span(3, 1, "b.inner", 3.0, 6.0),
        # A child that overruns its parent is clipped to it.
        _span(4, 1, "c.late", 8.0, 12.0),
        # Synthetic parts subtract their duration wherever they sit.
        _span(5, 1, "d.part", 1.0, 1.5, synthetic=True),
    ]
    times = spans.self_times(tree)
    # a.outer: 8 - covered([2,6] + [8,9] = 5) - part 0.5
    assert times["a.outer"] == pytest.approx(2.5)
    assert times["b.inner"] == pytest.approx(5.0)
    assert times["c.late"] == pytest.approx(4.0)
    assert times["d.part"] == pytest.approx(0.5)
    assert times[spans.ROOT] == pytest.approx(2.0)
    row = spans.reconcile(tree)
    assert row["wall"] == pytest.approx(10.0)
    assert row["unattributed_share"] == pytest.approx(0.2)
    table = spans.format_table(row)
    assert table[1].startswith("b.inner")  # largest share first
    assert "(unattributed)" in table[-2]


def test_recorder_nests_wraps_and_unwraps():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder("r", clock=lambda: float(next(ticks)))

    class Layer:
        def work(self, value):
            return value + 1

    layer, seen = Layer(), []
    recorder.wrap(layer, "work", "layer.work", observe=seen.append)
    with recorder.span(spans.ROOT) as root:
        assert layer.work(1) == 2
    recorder.add_parts(root, {"layer.part": 0.5, "layer.none": 0.0})
    recorder.unwrap_all()
    assert "work" not in vars(layer) and seen == [2]
    by_name = {span["name"]: span for span in recorder.spans}
    assert by_name["layer.work"]["parent"] == root["id"]
    assert by_name["layer.part"]["synthetic"] and "layer.none" not in by_name
    # root [0, 3], child [1, 2], part 0.5 -> 1.5 unattributed
    assert spans.self_times(recorder.spans)[spans.ROOT] == pytest.approx(1.5)


def test_compare_verdicts_on_fabricated_runs():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [10.2, 10.3, 10.1, 10.2],
                           "lower", 0.1) == "same"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0],
                           "lower", 0.1) == "worse"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0],
                           "lower", 0.1) == "better"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0],
                           "higher", 0.1) == "worse"
    noisy = [8.0, 12.0, 9.0, 11.5]
    assert compare.verdict(noisy, [9.0, 11.0, 10.0, 12.5],
                           "lower", 0.1) == "unresolved"
    # Wide spread, but every new run beats every base run.
    assert compare.verdict(noisy, [5.0, 7.0, 6.0, 7.5],
                           "lower", 0.1) == "better"
    assert compare.verdict([10.0], [10.5], "lower", 0.1) == "same"


def _result(wall, failed=0):
    return {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "workloads": {"w": {"end_to_end": {"wall_s": wall},
                                "attempted": 100, "failed": failed}}}


def test_compare_exit_status(tmp_path, capsys):
    paths = {}
    for label, result in (("base", _result([10.0, 10.1])),
                          ("slow", _result([12.0, 12.1])),
                          ("wrong", _result([10.0, 10.1], failed=1))):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(result))
    assert compare.main([str(paths["base"]), str(paths["base"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["slow"])]) == 1
    assert "1.199x of 10.05 s" in capsys.readouterr().out
    assert compare.main([str(paths["base"]), str(paths["wrong"])]) == 1
    assert "failed share rose" in capsys.readouterr().out


def test_smoke_run_reports_every_metric(tmp_path):
    out = tmp_path / "result.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, cwd=REPO, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert time.monotonic() - started < 90
    result = json.loads(out.read_text())
    assert tuple(result["workloads"]) == WORKLOADS
    moved = set()
    for name, runs in result["workloads"].items():
        assert runs["failed"] == 0 and runs["attempted"] >= 1
        assert tuple(runs["end_to_end"]) == END_TO_END
        for metric, values in runs["end_to_end"].items():
            assert all(value > 0 for value in values), (name, metric)
        assert list(runs["per_layer"]) == [m["name"]
                                           for m in SPEC["per_layer"]]
        assert runs["per_layer"]["obs.unattributed_share"][0] <= 0.05
        moved |= {metric for metric, values in runs["per_layer"].items()
                  if any(values)}
    unmoved = set(runs["per_layer"]) - moved - ZERO_WHEN_HEALTHY
    assert not unmoved, f"no workload measures {sorted(unmoved)}"
    for name in WORKLOADS:
        trace = HERE / "out" / f"trace-{name}.jsonl"
        rows = [json.loads(line)
                for line in trace.read_text().splitlines()]
        assert any(row["name"] == spans.ROOT for row in rows)
        assert {"id", "parent", "run", "name", "start", "end"} <= set(
            rows[0])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "crawl_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
