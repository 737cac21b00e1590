"""The whole command at smoke size: names, safety gate, time."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from conftest import E2E, ROOT


def _run(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_runs_all_workloads_quickly_and_passes_the_safety_gate(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = _run("--smoke", "--seed", "5", "--json", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    benchmark = _benchmark()
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == [
        w["name"] for w in benchmark["workloads"]
    ]
    declared = {m["name"] for m in benchmark["end_to_end"]}
    for run in runs:
        plain = run["plain"]
        assert set(plain["e2e"]) == declared
        assert all(value > 0 for value in plain["e2e"].values()), run["workload"]
        assert plain["violation"] is None and plain["failed"] == 0
        assert plain["attempted"] >= 1
        # The printed report names every metric with its unit.
        for metric in benchmark["end_to_end"]:
            assert metric["name"] in done.stdout


def test_the_last_line_carries_exactly_the_declared_metrics():
    benchmark = _benchmark()
    for flag, declared in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(
            "--workload", "svc_topics", "--seed", "2", "--smoke", "--trace", flag
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in benchmark[declared]}
        for metric in benchmark[declared]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    # A directory that holds only BENCHMARK.json and the benchmark.
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        E2E,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "udp_eager_small",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
