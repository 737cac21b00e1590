"""Command-line entry point: ``epto-experiment <figure-id>``.

Runs one paper artifact and prints the same rows/series the paper
plots. Example::

    epto-experiment fig6 --scale small
    epto-experiment fig3
    REPRO_SCALE=paper epto-experiment fig7b
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Sequence

from .registry import REGISTRY, get_experiment
from .scale import get_scale


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epto-experiment",
        description="Reproduce one EpTO paper figure/table.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(REGISTRY),
        help="experiment id from DESIGN.md (e.g. fig6)",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default=None,
        help="size preset (default: $REPRO_SCALE or 'small')",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's default seed",
    )
    parser.add_argument(
        "--fault-scenario",
        metavar="PATH",
        default=None,
        help=(
            "JSON FaultSchedule scenario file (fault-aware experiments "
            "like 'drill' only)"
        ),
    )
    parser.add_argument(
        "--sync",
        action="store_true",
        help=(
            "enable the anti-entropy catch-up protocol (sync-aware "
            "experiments like 'drill' only; see docs/SYNC.md)"
        ),
    )
    parser.add_argument(
        "--auth",
        action="store_true",
        help=(
            "authenticate ball entries with per-node HMAC keys "
            "(auth-aware experiments like 'drill' only; see "
            "docs/SECURITY.md)"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    entry = get_experiment(args.experiment)
    print(f"# {entry.id}: {entry.description}")

    kwargs: dict[str, object] = {}
    if entry.takes_scale:
        kwargs["scale"] = get_scale(args.scale)
    if args.seed is not None:
        if "seed" not in inspect.signature(entry.runner).parameters:
            print(f"experiment {entry.id!r} does not take --seed", file=sys.stderr)
            return 2
        kwargs["seed"] = args.seed
    if args.fault_scenario is not None:
        if not entry.takes_faults:
            parser_error = (
                f"experiment {entry.id!r} does not take --fault-scenario"
            )
            print(parser_error, file=sys.stderr)
            return 2
        from pathlib import Path

        from ..faults.schedule import FaultSchedule

        kwargs["schedule"] = FaultSchedule.from_json(
            Path(args.fault_scenario).read_text(encoding="utf-8")
        )
    if args.sync:
        if not entry.takes_sync:
            print(
                f"experiment {entry.id!r} does not take --sync",
                file=sys.stderr,
            )
            return 2
        kwargs["sync"] = True
    if args.auth:
        if not entry.takes_auth:
            print(
                f"experiment {entry.id!r} does not take --auth",
                file=sys.stderr,
            )
            return 2
        kwargs["auth"] = True

    result = entry.runner(**kwargs)
    if hasattr(result, "render"):
        print(result.render())
    elif hasattr(result, "table"):
        print(result.table())
    else:  # pragma: no cover - all current results render
        print(result)
    # Results that carry a verdict (e.g. the drill's safety/convergence
    # checks) gate the exit code so CI can fail on violations.
    return 0 if getattr(result, "exit_ok", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
