"""EpTO: an epidemic total order algorithm for large-scale distributed systems.

Reproduction of Matos, Mercier, Felber, Oliveira and Pereira,
*EpTO: An Epidemic Total Order Algorithm for Large-Scale Distributed
Systems*, Middleware 2015 (DOI 10.1145/2814576.2814804).

Package layout
--------------

- :mod:`repro.core` — the EpTO algorithm: events, stability oracles
  (global/logical clock), dissemination (Alg. 1) and ordering (Alg. 2)
  components, parameter derivation (Theorem 2, Lemmas 3–7), and the
  §8.2/§8.4 extensions.
- :mod:`repro.sim` — the discrete-event simulation substrate used by
  the paper's evaluation: engine, network (latency/loss/partitions),
  churn, drift, cluster orchestration.
- :mod:`repro.fabric` — the faults every message fabric applies
  (partitions, hostile relays, loss bursts, latency spikes,
  corruption), each defined once.
- :mod:`repro.pss` — peer sampling: idealized uniform view and Cyclon.
- :mod:`repro.broadcast` — baselines: unordered balls-and-bins and
  per-source FIFO epidemic broadcast.
- :mod:`repro.analysis` — the analytic bounds behind Figure 3 and the
  balls-in-bins machinery of Theorem 2.
- :mod:`repro.metrics` — delivery metrics, CDFs and the Table 1
  specification checker.
- :mod:`repro.workloads` — broadcast workload generators.
- :mod:`repro.experiments` — one driver per paper figure/table plus
  the ``epto-experiment`` CLI.
- :mod:`repro.runtime` — an asyncio runtime (§8.5's "real system
  implementation" future work).
- :mod:`repro.service` — the multi-topic broadcast service: many
  independent EpTO streams multiplexed over one shared transport per
  host, with an async publish/subscribe API (docs/SERVICE.md).

Quickstart
----------

>>> from repro import EpToConfig, Simulator, SimNetwork, ClusterConfig, SimCluster
>>> sim = Simulator(seed=7)
>>> network = SimNetwork(sim)
>>> cluster = SimCluster(sim, network, ClusterConfig(epto=EpToConfig.for_system_size(8)))
>>> _ = cluster.add_nodes(8)
>>> _ = cluster.broadcast_from(cluster.alive_ids()[0], "hello")
>>> sim.run(until=10_000)
>>> cluster.collector.delivery_count
8
"""

from __future__ import annotations

import importlib


def _lazy_exports(
    namespace: dict, exports: dict[str, tuple[str, ...]]
) -> tuple:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    globals are *namespace*, and its ``__all__``: *exports* maps a
    submodule (``".core"``) to the public names it defines.

    Every package of :mod:`repro` exports this way, so a process pays at
    start only for what it reads: ``import repro`` loads one module and
    ``import repro.runtime.udp`` loads no simulator. A submodule is
    imported on the first read of one of its names, and the name is then
    bound in the package, so later reads never come back here.
    """
    package = namespace["__name__"]
    homes = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__, sorted(homes)


__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".broadcast": ("BallsBinsProcess", "FifoProcess"),
        ".core": (
            "Ball", "ConfigurationError", "DeliveryLog", "EpToConfig",
            "EpToProcess", "Event", "EventId", "GlobalClockOracle",
            "LogicalClockOracle", "OrderingInvariantError", "ReproError",
            "StabilityEstimate", "StabilityEstimator", "TaggedEvent",
            "derive_parameters", "min_fanout", "min_ttl",
        ),
        ".faults": (
            "AsyncFaultInjector", "FaultSchedule", "NodeSupervisor",
            "ObservedConditions", "SimFaultInjector", "adapt_config",
        ),
        ".metrics": (
            "DeliveryCollector", "SpecReport", "check_run", "check_survivors",
        ),
        ".pss": ("CyclonPss", "MembershipDirectory", "UniformViewPss"),
        ".service": (
            "BackpressureError", "BroadcastService", "ServiceCluster",
            "ServiceReplica",
        ),
        ".smr": ("KeyValueStore", "Replica", "ReplicatedService"),
        ".sim": (
            "ChurnDriver", "ClusterConfig", "PlanetLabLatency", "SimCluster",
            "SimNetwork", "Simulator",
        ),
    },
)
__all__.append("__version__")
