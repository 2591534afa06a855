"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            report = next(json.loads(x[len("report "):]) for x in lines
                          if x.startswith("report "))
            cache[workload, trace] = (json.loads(lines[-1]), report)
        return cache[workload, trace]

    return get


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == \
        list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [row[:3] for row in layers.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    line, report = runs(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    for name, stats in report["end_to_end"].items():
        assert stats["n"] >= 1 and stats["unit"] == next(
            m["unit"] for m in BENCH["end_to_end"] if m["name"] == name)
    assert report["machine"]["nproc"] >= 1 and report["seed"] == 5
    if trace:
        assert report["tracing"]["digests_equal_untraced"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_two_smoke_runs_give_identical_digests(runs, workload):
    first, second = runs(workload, 0)[1], runs(workload, 1)[1]
    assert first["digests"] and first["digests"] == second["digests"]


def test_wrappers_are_gone_after_a_traced_run(monkeypatch):
    import aslyap.cli
    import aslyap.model
    import aslyap.simulate

    monkeypatch.chdir(ROOT)
    originals = (aslyap.simulate.simulate_ensemble,
                 aslyap.model.ControlledDiffusion.__dict__["drift"])
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        assert aslyap.cli.simulate_ensemble is not originals[0]
        assert tracing.leftover_wrappers()
        state = workloads.setup("pipeline", ROOT, "smoke")
        rep = workloads.run_rep(workloads.WORKLOADS["pipeline"], state, 5, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rep.failed == 0
    assert tracing.leftover_wrappers() == []
    assert aslyap.cli.simulate_ensemble is originals[0]
    assert aslyap.simulate.simulate_ensemble is originals[0]
    assert aslyap.model.ControlledDiffusion.__dict__["drift"] is originals[1]
    names = {s.name for s in tracer.spans}
    assert {"model.drift", "simulate.ensemble", "values.sup", "verifier.supersolution"} <= names


def test_self_time_subtracts_the_union_of_children():
    span = tracing.Span(0, "p", 0.0, 10.0, None, None)
    kids = [tracing.Span(1, "a", 1.0, 4.0, 0, None), tracing.Span(2, "b", 3.0, 5.0, 0, None),
            tracing.Span(3, "c", 8.0, 12.0, 0, None)]
    assert tracing.self_time(span, kids) == pytest.approx(10.0 - 4.0 - 2.0)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0 and '"correct"' not in done.stdout
