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

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".adaptive": (
            "MAX_RATE", "ObservedConditions", "adapt_config",
            "lemma7_parameters", "supervisor_adaptation",
        ),
        ".byzantine": (
            "ByzantineRouter", "ByzantineStats", "scramble_journal",
        ),
        ".interpreter": ("FaultStats",),
        ".runtime_injector": ("AsyncFaultInjector",),
        ".schedule": (
            "BYZANTINE_BEHAVIORS", "ByzantineNodes", "CorruptDatagrams",
            "CrashNodes", "FaultAction", "FaultSchedule", "HealPartition",
            "LatencySpike", "LossBurst", "PartitionNetwork", "ScrambleState",
        ),
        ".sim_injector": ("SimFaultInjector",),
        ".supervisor": ("NodeSupervisor", "SupervisorStats"),
        ".verify": ("SurvivorReport", "check_survivors"),
    },
)
