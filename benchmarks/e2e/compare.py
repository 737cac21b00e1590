"""Compare two sets of benchmark results under the benchmark's bounds.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py --base B1.json B2.json ... --new N1.json N2.json ...

The files are what ``run.py --json FILE`` writes. For every (workload,
end-to-end metric) one row says whether the new side is the *same*,
*worse*, *better* — the medians differ by more than the metric's bound
in ``BENCHMARK.json`` — or *unresolved*: the spread between runs of one
side (quartile distance over median) is wider than the bound, so the
data cannot tell. Every ratio is printed with its base. The share of
failed operations is compared too. Exit code 1 when anything is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

Samples = Dict[Tuple[str, str], List[float]]


def load(paths: Sequence[str]) -> Tuple[Samples, Dict[str, List[int]]]:
    """Values per (workload, metric) and ``[attempted, failed]`` per
    workload over all result files in *paths*."""
    samples: Samples = {}
    operations: Dict[str, List[int]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for run in document["runs"]:
            plain = run["plain"]
            for metric, value in plain["e2e"].items():
                samples.setdefault((run["workload"], metric), []).append(value)
            counts = operations.setdefault(run["workload"], [0, 0])
            counts[0] += plain["attempted"]
            counts[1] += plain["failed"]
    return samples, operations


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile (all the value itself
    when there is only one)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0


def judge(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, worsening)``: *worsening* is the share of the base
    median by which the new median is worse (negative: better)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def compare(
    base_paths: Sequence[str], new_paths: Sequence[str], benchmark: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present on both sides,
    then one ``failed_share`` row per workload."""
    base, base_ops = load(base_paths)
    new, new_ops = load(new_paths)
    rows: List[Dict[str, Any]] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            verdict, worsening = judge(
                base[key], new[key], metric["better"], metric["bound"]
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "base": quartiles(base[key]),
                    "new": quartiles(new[key]),
                    "runs": (len(base[key]), len(new[key])),
                    "worsening": worsening,
                    "verdict": verdict,
                }
            )
        if workload in base_ops and workload in new_ops:
            base_share = base_ops[workload][1] / max(1, base_ops[workload][0])
            new_share = new_ops[workload][1] / max(1, new_ops[workload][0])
            rows.append(
                {
                    "workload": workload,
                    "metric": "failed_share",
                    "unit": "ratio",
                    "bound": 0.0,
                    "base": (base_share,) * 3,
                    "new": (new_share,) * 3,
                    "runs": (base_ops[workload][0], new_ops[workload][0]),
                    "worsening": new_share - base_share,
                    "verdict": "worse" if new_share > base_share else "same",
                }
            )
    return rows


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(
        f"{'workload':<26}{'metric':<26}{'base median [q1..q3]':>36}"
        f"{'new median [q1..q3]':>36}{'new/base':>10}{'bound':>7}  verdict"
    )
    for row in rows:
        first, median, third = row["base"]
        base_text = f"{median:.4g} [{first:.4g}..{third:.4g}] {row['unit']}"
        first, new_median, third = row["new"]
        new_text = f"{new_median:.4g} [{first:.4g}..{third:.4g}] {row['unit']}"
        ratio = f"{new_median / median:.3f}" if median else "-"
        print(
            f"{row['workload']:<26}{row['metric']:<26}{base_text:>36}{new_text:>36}"
            f"{ratio:>10}{row['bound']:>7.2f}  {row['verdict']}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.files and (args.base or args.new or len(args.files) != 2):
        parser.error("give BASE.json NEW.json, or --base FILES --new FILES")
    base = args.base or args.files[:1]
    new = args.new or args.files[1:]
    if not base or not new:
        parser.error("give BASE.json NEW.json, or --base FILES --new FILES")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows = compare(base, new, benchmark)
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
