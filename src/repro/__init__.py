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

from .broadcast import BallsBinsProcess, FifoProcess
from .core import (
    Ball,
    ConfigurationError,
    DeliveryLog,
    EpToConfig,
    EpToProcess,
    Event,
    EventId,
    GlobalClockOracle,
    LogicalClockOracle,
    OrderingInvariantError,
    ReproError,
    StabilityEstimate,
    StabilityEstimator,
    TaggedEvent,
    derive_parameters,
    min_fanout,
    min_ttl,
)
from .faults import (
    AsyncFaultInjector,
    FaultSchedule,
    NodeSupervisor,
    ObservedConditions,
    SimFaultInjector,
    SurvivorReport,
    adapt_config,
    check_survivors,
)
from .metrics import DeliveryCollector, SpecReport, check_run
from .pss import CyclonPss, MembershipDirectory, UniformViewPss
from .service import (
    BackpressureError,
    BroadcastService,
    ServiceCluster,
    ServiceReplica,
)
from .smr import KeyValueStore, Replica, ReplicatedService
from .sim import (
    ChurnDriver,
    ClusterConfig,
    PlanetLabLatency,
    SimCluster,
    SimNetwork,
    Simulator,
)

__version__ = "1.0.0"

__all__ = [
    "AsyncFaultInjector",
    "BackpressureError",
    "Ball",
    "BallsBinsProcess",
    "BroadcastService",
    "ChurnDriver",
    "ClusterConfig",
    "ConfigurationError",
    "CyclonPss",
    "DeliveryCollector",
    "DeliveryLog",
    "EpToConfig",
    "EpToProcess",
    "Event",
    "EventId",
    "FaultSchedule",
    "FifoProcess",
    "GlobalClockOracle",
    "KeyValueStore",
    "LogicalClockOracle",
    "MembershipDirectory",
    "NodeSupervisor",
    "ObservedConditions",
    "OrderingInvariantError",
    "PlanetLabLatency",
    "Replica",
    "ReplicatedService",
    "ReproError",
    "ServiceCluster",
    "ServiceReplica",
    "SimCluster",
    "SimFaultInjector",
    "SimNetwork",
    "Simulator",
    "SpecReport",
    "StabilityEstimate",
    "StabilityEstimator",
    "SurvivorReport",
    "TaggedEvent",
    "UniformViewPss",
    "adapt_config",
    "check_run",
    "check_survivors",
    "derive_parameters",
    "min_fanout",
    "min_ttl",
    "__version__",
]
