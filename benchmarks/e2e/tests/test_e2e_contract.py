"""BENCHMARK.json against the benchmark's own definitions."""

from __future__ import annotations

import json
import os
import re

import workloads as wl
from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_keys_are_exactly_the_contracts():
    assert set(_benchmark()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_workloads_match_the_definitions():
    declared = _benchmark()["workloads"]
    assert [w["name"] for w in declared] == [w.name for w in wl.WORKLOADS]
    for entry, workload in zip(declared, wl.WORKLOADS):
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workload.why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_every_name_and_unit_is_well_formed_and_unique():
    benchmark = _benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_end_to_end_metrics_carry_bounds_and_setup():
    benchmark = _benchmark()
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    assert setup[0]["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert len(benchmark["per_layer"]) == 51


def test_the_run_fits_the_time_cap():
    benchmark = _benchmark()
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert benchmark["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(benchmark["run_seconds"], int)
    assert 12 <= benchmark["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
