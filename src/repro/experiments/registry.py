"""Experiment registry: one entry per paper table/figure (DESIGN.md §3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from .ablations import (
    run_ablation_fanout,
    run_ablation_guards,
    run_ablation_phase,
    run_ablation_ttl,
    run_empirical_bounds,
)
from .drill import run_drill
from .fig3_bounds import run_fig3
from .fig5_latency import run_fig5
from .fig6_baseline import run_fig6
from .fig7_scalability import run_fig7a, run_fig7b
from .fig7b_flat import run_fig7b_flat
from .fig8_churn import run_fig8
from .fig9_cyclon import run_fig9
from .fig10_loss import run_fig10
from .service_drill import run_service_drill


@dataclass(frozen=True, slots=True)
class ExperimentEntry:
    """One reproducible paper artifact or ablation."""

    id: str
    description: str
    runner: Callable[..., object]
    takes_scale: bool = True
    #: Accepts a ``schedule=`` FaultSchedule (CLI ``--fault-scenario``).
    takes_faults: bool = False
    #: Accepts a ``sync=`` bool enabling anti-entropy (CLI ``--sync``).
    takes_sync: bool = False
    #: Accepts an ``auth=`` bool enabling HMAC event authentication
    #: (CLI ``--auth``).
    takes_auth: bool = False


_ENTRIES = [
    ExperimentEntry(
        id="fig3",
        description="Figure 3a/3b — analytic hole-probability upper bounds",
        runner=run_fig3,
        takes_scale=False,
    ),
    ExperimentEntry(
        id="fig5",
        description="Figure 5 — PlanetLab latency distribution (synthetic fit)",
        runner=run_fig5,
        takes_scale=False,
    ),
    ExperimentEntry(
        id="fig6",
        description="Figure 6 — ordering cost vs unordered baseline",
        runner=run_fig6,
    ),
    ExperimentEntry(
        id="fig7a",
        description="Figure 7a — broadcast-rate sweep",
        runner=run_fig7a,
    ),
    ExperimentEntry(
        id="fig7b",
        description="Figure 7b — system-size sweep",
        runner=run_fig7b,
    ),
    ExperimentEntry(
        id="fig7b-flat",
        description=(
            "Figure 7b — system-size sweep on the flat engine "
            "(paper-scale n; stats recording; budgeted workload)"
        ),
        runner=run_fig7b_flat,
    ),
    ExperimentEntry(
        id="fig8",
        description="Figure 8 — churn sweep (idealized PSS)",
        runner=run_fig8,
    ),
    ExperimentEntry(
        id="fig9",
        description="Figure 9 — churn sweep (Cyclon PSS)",
        runner=run_fig9,
    ),
    ExperimentEntry(
        id="fig10",
        description="Figure 10 — message-loss sweep",
        runner=run_fig10,
    ),
    ExperimentEntry(
        id="ablation-ttl",
        description="A1 — TTL sensitivity (§6's conservative bound)",
        runner=run_ablation_ttl,
    ),
    ExperimentEntry(
        id="ablation-fanout",
        description="A2 — fanout starvation (Lemma 7's K-vs-rounds trade)",
        runner=run_ablation_fanout,
    ),
    ExperimentEntry(
        id="ablation-phase",
        description="A3 — synchronized vs staggered round phases",
        runner=run_ablation_phase,
    ),
    ExperimentEntry(
        id="ablation-guards",
        description="A4 — ordering guards vs Pbcast-style delivery (§7)",
        runner=run_ablation_guards,
    ),
    ExperimentEntry(
        id="ablation-empirical",
        description="A5 — empirical hole probability vs the Figure 3 bound (§8.1)",
        runner=run_empirical_bounds,
        takes_scale=False,
    ),
    ExperimentEntry(
        id="drill",
        description=(
            "Fault drill — scenario file vs journaled cluster with "
            "durable same-id recovery"
        ),
        runner=run_drill,
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
        runner=run_service_drill,
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
