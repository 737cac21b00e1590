"""Experiment registry: one entry per paper table/figure (DESIGN.md §3)."""

from __future__ import annotations

import importlib
from dataclasses import InitVar, dataclass, field
from typing import Callable, Dict, Optional


class _Runner:
    """``entry.runner``: the driver the entry was built with, else the
    one its ``target`` names, imported on first use."""

    def __get__(self, entry: Optional["ExperimentEntry"], owner: type) -> object:
        if entry is None:
            return None  # the default of the ``runner`` argument
        if entry._given_runner is not None:
            return entry._given_runner
        module, function = entry.target.split(":")
        return getattr(importlib.import_module(f".{module}", __package__), function)


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artifact or ablation."""

    id: str
    description: str
    #: ``"module:function"`` of the driver under :mod:`repro.experiments`;
    #: listing the experiments imports none of them.
    target: str
    takes_scale: bool = True
    #: Accepts a ``schedule=`` FaultSchedule (CLI ``--fault-scenario``).
    takes_faults: bool = False
    #: Accepts a ``sync=`` bool enabling anti-entropy (CLI ``--sync``).
    takes_sync: bool = False
    #: Accepts an ``auth=`` bool enabling HMAC event authentication
    #: (CLI ``--auth``).
    takes_auth: bool = False
    #: A driver to run instead of the one ``target`` names. Read the
    #: driver as ``entry.runner`` either way.
    runner: InitVar[Optional[Callable[..., object]]] = _Runner()
    _given_runner: Optional[Callable[..., object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self, runner: Optional[Callable[..., object]]) -> None:
        object.__setattr__(self, "_given_runner", runner)


_ENTRIES = [
    ExperimentEntry(
        id="fig3",
        description="Figure 3a/3b — analytic hole-probability upper bounds",
        target="fig3_bounds:run_fig3",
        takes_scale=False,
    ),
    ExperimentEntry(
        id="fig5",
        description="Figure 5 — PlanetLab latency distribution (synthetic fit)",
        target="fig5_latency:run_fig5",
        takes_scale=False,
    ),
    ExperimentEntry(
        id="fig6",
        description="Figure 6 — ordering cost vs unordered baseline",
        target="fig6_baseline:run_fig6",
    ),
    ExperimentEntry(
        id="fig7a",
        description="Figure 7a — broadcast-rate sweep",
        target="fig7_scalability:run_fig7a",
    ),
    ExperimentEntry(
        id="fig7b",
        description="Figure 7b — system-size sweep",
        target="fig7_scalability:run_fig7b",
    ),
    ExperimentEntry(
        id="fig7b-flat",
        description=(
            "Figure 7b — system-size sweep on the flat engine "
            "(paper-scale n; stats recording; budgeted workload)"
        ),
        target="fig7b_flat:run_fig7b_flat",
    ),
    ExperimentEntry(
        id="fig8",
        description="Figure 8 — churn sweep (idealized PSS)",
        target="fig8_churn:run_fig8",
    ),
    ExperimentEntry(
        id="fig9",
        description="Figure 9 — churn sweep (Cyclon PSS)",
        target="fig9_cyclon:run_fig9",
    ),
    ExperimentEntry(
        id="fig10",
        description="Figure 10 — message-loss sweep",
        target="fig10_loss:run_fig10",
    ),
    ExperimentEntry(
        id="ablation-ttl",
        description="A1 — TTL sensitivity (§6's conservative bound)",
        target="ablations:run_ablation_ttl",
    ),
    ExperimentEntry(
        id="ablation-fanout",
        description="A2 — fanout starvation (Lemma 7's K-vs-rounds trade)",
        target="ablations:run_ablation_fanout",
    ),
    ExperimentEntry(
        id="ablation-phase",
        description="A3 — synchronized vs staggered round phases",
        target="ablations:run_ablation_phase",
    ),
    ExperimentEntry(
        id="ablation-guards",
        description="A4 — ordering guards vs Pbcast-style delivery (§7)",
        target="ablations:run_ablation_guards",
    ),
    ExperimentEntry(
        id="ablation-empirical",
        description="A5 — empirical hole probability vs the Figure 3 bound (§8.1)",
        target="ablations:run_empirical_bounds",
        takes_scale=False,
    ),
    ExperimentEntry(
        id="drill",
        description=(
            "Fault drill — scenario file vs journaled cluster with "
            "durable same-id recovery"
        ),
        target="drill:run_drill",
        takes_faults=True,
        takes_sync=True,
        takes_auth=True,
    ),
    ExperimentEntry(
        id="service-drill",
        description=(
            "Multi-topic fault drill — per-topic partitions/loss and "
            "host-level crash/respawn over shared sockets "
            "(scenarios/multi_topic_drill.json)"
        ),
        target="service_drill:run_service_drill",
        takes_scale=False,
    ),
]

#: Experiment id -> entry.
REGISTRY: Dict[str, ExperimentEntry] = {entry.id: entry for entry in _ENTRIES}


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up an experiment by its DESIGN.md id (e.g. ``"fig6"``)."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(REGISTRY)}"
        ) from None
