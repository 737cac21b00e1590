#!/usr/bin/env python
"""Gate on the committed benchmark results: every recorded ``speedup``
in ``BENCH_core.json`` must be at least the floor (default 1.0).

The perf harness records machine-dependent timings, so CI never asserts
wall-clock numbers from a shared runner. What it CAN assert is the
committed record: each optimization documented in ``BENCH_core.json``
claims a ``speedup`` over an in-harness baseline (encode-once fan-out,
flat engine vs object engine). A committed value below 1.0 means a
regeneration recorded an optimization that no longer optimizes — fail
loudly and make the regression a review conversation, not a silent
drift.

Usage::

    python benchmarks/perf/check_regression.py              # BENCH_core.json
    python benchmarks/perf/check_regression.py BENCH_x.json --min 1.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]


def find_speedups(node, path: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(json.path, value)`` for every key named ``speedup``."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            if key == "speedup" and isinstance(value, (int, float)):
                yield here, float(value)
            else:
                yield from find_speedups(value, here)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from find_speedups(value, f"{path}[{index}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default=str(REPO_ROOT / "BENCH_core.json"),
        help="benchmark results JSON (default: committed BENCH_core.json)",
    )
    parser.add_argument(
        "--min",
        type=float,
        default=1.0,
        help="minimum acceptable speedup (default: 1.0)",
    )
    args = parser.parse_args(argv)

    path = Path(args.path)
    if not path.exists():
        print(f"check_regression: {path} not found", file=sys.stderr)
        return 2
    data = json.loads(path.read_text())
    speedups = sorted(find_speedups(data))
    if not speedups:
        print(
            f"check_regression: no speedup entries in {path} — "
            "wrong file or schema drift",
            file=sys.stderr,
        )
        return 2

    failures = []
    for where, value in speedups:
        verdict = "ok" if value >= args.min else "REGRESSED"
        print(f"  {value:6.2f}x  {verdict:9s}  {where}")
        if value < args.min:
            failures.append((where, value))
    if failures:
        print(
            f"check_regression: {len(failures)}/{len(speedups)} recorded "
            f"speedups below {args.min:.2f}x in {path.name}",
            file=sys.stderr,
        )
        return 1
    print(
        f"check_regression: {len(speedups)} recorded speedups >= "
        f"{args.min:.2f}x in {path.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
