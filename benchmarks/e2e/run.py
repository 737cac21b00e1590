"""End-to-end benchmark of the EpTO reproduction: one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --seed S [--trace] [--smoke]

With ``--workload`` it runs that workload once and prints, as the last
line of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. Without
``--workload`` it runs all six, one after another. Every pass runs in
a fresh child interpreter (``worker.py``); the exit code is non-zero
when any safety check, determinism pin or operation failed.

See README.md in this directory for what the workloads and metrics
mean.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: Where traces and journals go; listed in the root ``.gitignore``.
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Extra child interpreters that only set the workload up and exit, so
#: that ``setup_s`` is the median of several cold set-ups.
EXTRA_SETUPS = 2
#: All passes of one workload must end within this (the contract
#: allows one invocation 180 s).
WORKLOAD_TIMEOUT_S = 170.0


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_child(spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its result; the
    child is killed when *deadline* (``time.monotonic()``) passes."""
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
    spec = dict(spec, spawned_at=time.time())
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"pass of {spec['workload']} exited with code {done.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict[str, Any]:
    """All passes of one workload: set-up samples, the untraced pass
    and, when asked, the traced pass."""
    spec = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": False,
        "setup_only": False,
        "out_dir": os.path.join(OUT_DIR, name),
    }
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setups = [
        run_child(dict(spec, setup_only=True), deadline)["setup_s"]
        for _ in range(0 if smoke or traced else EXTRA_SETUPS)
    ]
    plain = run_child(spec, deadline)
    setups.append(plain["e2e"]["setup_s"])
    plain["e2e"]["setup_s"] = statistics.median(setups)
    plain["info"]["setup_samples_s"] = setups
    outcome = {"workload": name, "seed": seed, "plain": plain, "traced": None}
    if traced:
        traced_pass = run_child(dict(spec, traced=True), deadline)
        traced_pass["layers"]["bench.trace_overhead_ratio"] = (
            traced_pass["e2e"]["cpu_us_per_delivery"]
            / plain["e2e"]["cpu_us_per_delivery"]
        )
        outcome["traced"] = traced_pass
    try:
        os.rmdir(spec["out_dir"])
    except OSError:
        pass  # the traced pass left its span file there
    return outcome


def verdict(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Fold the passes of one workload into correct/attempted/failed."""
    passes = [p for p in (outcome["plain"], outcome["traced"]) if p is not None]
    violations = [p["violation"] for p in passes if p["violation"]]
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": not violations and failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "violations": violations,
    }


def contract_line(
    outcome: Dict[str, Any], benchmark: Dict[str, Any], traced: bool
) -> Dict[str, Any]:
    """The object the benchmark contract wants on the last line."""
    if traced:
        declared, values = benchmark["per_layer"], outcome["traced"]["layers"]
    else:
        declared, values = benchmark["end_to_end"], outcome["plain"]["e2e"]
    names = {metric["name"] for metric in declared}
    if names != set(values):
        raise RuntimeError(
            "metrics emitted and metrics declared in BENCHMARK.json differ: "
            f"{sorted(names ^ set(values))}"
        )
    result = verdict(outcome)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def print_report(
    outcome: Dict[str, Any], benchmark: Dict[str, Any], out: Any
) -> None:
    """Every metric by name, with its unit, for a reader."""
    plain = outcome["plain"]
    result = verdict(outcome)
    info = plain["info"]
    print(f"== {outcome['workload']} (seed {outcome['seed']}) ==", file=out)
    print(
        f"   operations: attempted {result['attempted']}, failed {result['failed']}; "
        f"latency samples {info['samples']} (highest percentile with >=10 "
        f"samples beyond it: p{info['highest_supported_percentile']:g}); "
        f"K={info['fanout']} TTL={info['ttl']}",
        file=out,
    )
    for metric in benchmark["end_to_end"]:
        value = plain["e2e"][metric["name"]]
        print(f"   {metric['name']:<44}{value:>16.4f} {metric['unit']}", file=out)
    if outcome["traced"] is not None:
        layers = outcome["traced"]["layers"]
        print("   -- per layer (traced pass) --", file=out)
        for metric in benchmark["per_layer"]:
            value = layers[metric["name"]]
            print(f"   {metric['name']:<44}{value:>16.4f} {metric['unit']}", file=out)
        print(f"   spans: {outcome['traced']['info'].get('trace_file')}", file=out)
    for text in result["violations"]:
        print(f"   SAFETY: {text}", file=out)
    if info.get("first_failure"):
        print(f"   FAILED: {info['first_failure']}", file=out)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured window (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: also run the traced pass and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="n=8, 2 s windows, sims at n=128: checks the harness, measures nothing",
    )
    parser.add_argument("--json", help="also write every result to this file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"{ROOT} holds no src/repro: the benchmark runs the program from "
            "its source tree and there is none here",
            file=sys.stderr,
        )
        return 2
    benchmark = load_benchmark()
    seconds = args.seconds
    if seconds is None:
        seconds = wl.SMOKE_WINDOW_S if args.smoke else benchmark["run_seconds"]
    names = [args.workload] if args.workload else [w.name for w in wl.WORKLOADS]
    traced = bool(args.trace)
    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, seconds, traced, args.smoke)
        outcomes.append(outcome)
        # The report goes to stderr when stdout must end in the one line.
        print_report(outcome, benchmark, sys.stderr if args.workload else sys.stdout)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seconds": seconds, "smoke": args.smoke, "runs": outcomes}, handle)
    if args.workload:
        print(json.dumps(contract_line(outcomes[0], benchmark, traced)))
    return 0 if all(verdict(o)["correct"] for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
