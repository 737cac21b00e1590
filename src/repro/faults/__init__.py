"""Unified fault injection and self-healing (robustness layer).

One declarative :class:`~repro.faults.schedule.FaultSchedule` — crash
and recover, partition and heal, loss bursts, latency spikes, datagram
corruption — and one interpreter of what each action means
(:mod:`repro.faults.interpreter`) with two drivers, so the exact same
scenario runs against the discrete-event simulator
(:class:`~repro.faults.sim_injector.SimFaultInjector`, on ticks) and
the asyncio runtime
(:class:`~repro.faults.runtime_injector.AsyncFaultInjector`, on
wall-clock timers).
Self-healing comes from
:class:`~repro.faults.supervisor.NodeSupervisor` (backoff restarts of
crashed nodes), post-mortems from
:func:`~repro.faults.verify.check_survivors`, and parameter feedback
from the Lemma 7 helpers in :mod:`repro.faults.adaptive`.
"""

from .adaptive import (
    MAX_RATE,
    ObservedConditions,
    adapt_config,
    lemma7_parameters,
    supervisor_adaptation,
)
from .byzantine import ByzantineRouter, ByzantineStats, scramble_journal
from .interpreter import FaultStats
from .runtime_injector import AsyncFaultInjector
from .schedule import (
    BYZANTINE_BEHAVIORS,
    ByzantineNodes,
    CorruptDatagrams,
    CrashNodes,
    FaultAction,
    FaultSchedule,
    HealPartition,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
    ScrambleState,
)
from .sim_injector import SimFaultInjector
from .supervisor import NodeSupervisor, SupervisorStats
from .verify import SurvivorReport, check_survivors

__all__ = [
    "AsyncFaultInjector",
    "BYZANTINE_BEHAVIORS",
    "ByzantineNodes",
    "ByzantineRouter",
    "ByzantineStats",
    "CorruptDatagrams",
    "CrashNodes",
    "FaultAction",
    "FaultSchedule",
    "FaultStats",
    "HealPartition",
    "LatencySpike",
    "LossBurst",
    "MAX_RATE",
    "NodeSupervisor",
    "ObservedConditions",
    "PartitionNetwork",
    "ScrambleState",
    "SimFaultInjector",
    "SupervisorStats",
    "SurvivorReport",
    "adapt_config",
    "check_survivors",
    "lemma7_parameters",
    "scramble_journal",
    "supervisor_adaptation",
]
