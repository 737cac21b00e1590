"""Simulated cluster: hosts gossip processes over the simulated network.

Ties together everything a §6 experiment needs: the discrete-event
engine, the network model, per-node peer sampling (idealized uniform
view or Cyclon), round scheduling with drift, delivery instrumentation,
and membership management (used by the churn driver).

The cluster is generic over the hosted process type: any object with
``broadcast(payload)``, ``on_ball(ball)`` and ``on_round()`` can be
hosted, which is how the EpTO processes (:class:`repro.core.EpToProcess`)
and the unordered baseline (:class:`repro.broadcast.BallsBinsProcess`)
share all the surrounding machinery in the Figure 6 comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from ..core.config import EpToConfig
from ..core.errors import MembershipError
from ..core.event import Ball, Event
from ..metrics.collector import DeliveryCollector
from ..pss.base import MembershipDirectory
from ..stack import (
    PSS_KINDS,
    NodeStack,
    build_pss,
    open_journal,
    reopen_journal,
    validate_modes,
)
from .drift import DriftModel, UniformDrift
from .engine import PeriodicTask, Simulator
from .network import SimNetwork

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..storage.journal import DeliveryJournal
    from ..storage.recovery import RecoveredState
    from ..sync.config import SyncConfig
    from ..sync.manager import SyncManager


class GossipProcess(Protocol):
    """Minimal interface a cluster-hosted process must implement."""

    def broadcast(self, payload: Any = None) -> Event: ...

    def on_ball(self, ball: Ball) -> None: ...

    def on_round(self) -> None: ...


#: Builds a hosted process. Receives everything the cluster provisions
#: per node; returns the process object.
ProcessFactory = Callable[..., GossipProcess]

#: Default slack, in rounds, added on top of the TTL for the respawn
#: catch-up gate (docs/SYNC.md). A respawned sync-enabled node holds its
#: epidemic rounds for ``ttl + slack`` rounds: ``ttl`` covers the full
#: dissemination window of any event broadcast before the gate opened,
#: and the slack absorbs round-phase offsets, period drift, and the
#: network latency tail (up to several round durations under the
#: PlanetLab model) so every such event has reached peers' delivery
#: logs before the node starts relaying again.
RESPAWN_HOLD_SLACK_ROUNDS = 6


@dataclass(slots=True)
class ClusterConfig:
    """Static description of a simulated deployment.

    Attributes:
        epto: EpTO algorithm configuration shared by every node.
        pss: ``"uniform"`` (idealized, paper default), ``"cyclon"``
            (realistic, paper Figure 9), ``"hyparview"`` (two-tier
            views with reactive repair) or ``"brahms"``
            (Byzantine-resilient sampling); see docs/OVERLAY.md.
        drift: Round-period drift model (paper default: 1% uniform).
        cyclon_view_size: Cyclon view capacity; defaults to
            ``2 * fanout`` so the view always has enough entries to
            serve a fanout-sized sample.
        cyclon_shuffle_size: Entries exchanged per shuffle; defaults to
            half the view size, the original paper's recommendation.
        cyclon_period: Ticks between shuffles; defaults to the EpTO
            round interval.
        expected_size: System-size hint forwarded to processes that
            need it (the §8.4 stability estimator).
        round_phase: ``"synchronized"`` starts every node's round timer
            a full round interval after it joins — the paper simulator's
            ``now() + delta ± Delta`` schedule, under which an event's
            TTL ages about once per ``delta`` and delivery delays match
            the paper's ``~TTL * delta`` magnitudes. ``"staggered"``
            starts each node at a random phase instead; relay chains
            then hop between phase-offset nodes and age TTLs faster
            than once per ``delta``, delivering earlier at identical
            relay-generation counts (safety is unaffected — stability
            counts relay generations, not wall time). See the phase
            ablation benchmark.
        respawn_hold_slack: Rounds added on top of the TTL for the
            respawn catch-up gate of sync-enabled nodes (defaults to
            :data:`RESPAWN_HOLD_SLACK_ROUNDS`; see its docs for why 6).
    """

    epto: EpToConfig
    pss: str = "uniform"
    drift: DriftModel = field(default_factory=lambda: UniformDrift(0.01))
    cyclon_view_size: Optional[int] = None
    cyclon_shuffle_size: Optional[int] = None
    cyclon_period: Optional[int] = None
    expected_size: Optional[int] = None
    round_phase: str = "synchronized"
    respawn_hold_slack: int = RESPAWN_HOLD_SLACK_ROUNDS

    def __post_init__(self) -> None:
        if self.pss not in PSS_KINDS:
            raise MembershipError(f"unknown PSS kind {self.pss!r}")
        if self.round_phase not in ("synchronized", "staggered"):
            raise MembershipError(f"unknown round phase {self.round_phase!r}")
        if self.respawn_hold_slack < 0:
            raise MembershipError(
                f"respawn_hold_slack must be >= 0, got {self.respawn_hold_slack}"
            )

    def respawn_hold_rounds(self) -> int:
        """Rounds a respawned sync-enabled node gates its epidemic rounds."""
        return self.epto.ttl + self.respawn_hold_slack


class _ClusterNode:
    """Internal per-node wiring: the node's stack + its scheduled tasks."""

    __slots__ = ("stack", "tasks")

    def __init__(self, stack: NodeStack, tasks: Sequence[PeriodicTask]) -> None:
        self.stack = stack
        self.tasks = tasks

    def stop(self) -> None:
        for task in self.tasks:
            task.stop()


class SimCluster:
    """A set of gossip processes hosted on one simulated network.

    Args:
        sim: Discrete-event engine.
        network: Message router (latency, loss, partitions).
        config: Deployment description.
        collector: Delivery instrumentation; a fresh one is created
            when omitted.
        process_factory: Alternative process constructor (defaults to
            building :class:`~repro.core.process.EpToProcess`). The
            factory is called with keyword arguments ``node_id``,
            ``pss``, ``transport``, ``on_deliver``, ``time_source``,
            ``rng``.
        storage_dir: Root directory for durable per-node journals
            (:mod:`repro.storage`). When set, every node's deliveries
            and broadcast sequence are journaled under
            ``storage_dir/node-<id>/`` and :meth:`respawn_node`
            recovers crashed nodes from disk (snapshot + log replay,
            with re-delivery dedupe ahead of the collector — and so
            ahead of any :class:`~repro.smr.replica.ReplicatedService`
            riding it). ``None`` keeps the simulation fully in-memory.
        storage_fsync: Log fsync policy for journaled nodes
            (:data:`repro.storage.log.FSYNC_POLICIES`).
        sync: Optional :class:`repro.sync.SyncConfig` enabling the
            anti-entropy catch-up protocol (requires ``storage_dir``).
            Every EpTO node then runs a deterministic, round-scheduled
            :class:`~repro.sync.SyncManager`; respawned nodes probe on
            their very next tick so recovery catch-up starts before the
            first epidemic round (docs/SYNC.md).
    """

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        config: ClusterConfig,
        collector: DeliveryCollector | None = None,
        process_factory: ProcessFactory | None = None,
        storage_dir: Union[str, Path, None] = None,
        storage_fsync: str = "rotate",
        sync: Optional[SyncConfig] = None,
    ) -> None:
        validate_modes(
            config.epto, sync, storage_dir is not None, config.expected_size
        )
        self.sim = sim
        self.network = network
        self.config = config
        self.collector = collector if collector is not None else DeliveryCollector()
        self._process_factory = process_factory
        self.storage_dir = Path(storage_dir) if storage_dir is not None else None
        self.storage_fsync = storage_fsync
        self.sync = sync
        #: node id -> live anti-entropy manager (only when ``sync``);
        #: survives crashes so drill reports can aggregate stats, and is
        #: overwritten by the respawned incarnation's manager.
        self.sync_managers: Dict[int, SyncManager] = {}
        #: node id -> live durable journal (only when ``storage_dir``).
        self.journals: Dict[int, "DeliveryJournal"] = {}
        #: node id -> recovery outcomes, one per respawn-from-disk.
        self.recoveries: Dict[int, List["RecoveredState"]] = {}
        self.directory = MembershipDirectory()
        self._nodes: Dict[int, _ClusterNode] = {}
        self._next_id = 0
        self._rng = sim.fork_rng("cluster")
        # Crash corpses: node id -> broadcast sequence issued so far,
        # kept so a same-id respawn can resume where its predecessor
        # stopped (mirrors AsyncCluster.respawn_node).
        self._crashed: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live nodes."""
        return len(self._nodes)

    def alive_ids(self) -> Sequence[int]:
        """Snapshot of live node ids."""
        return self.directory.alive_ids()

    def stack_of(self, node_id: int) -> NodeStack:
        """The protocol stack of *node_id* (:mod:`repro.stack`)."""
        try:
            return self._nodes[node_id].stack
        except KeyError:
            raise MembershipError(f"node {node_id} is not in the cluster") from None

    def node(self, node_id: int) -> GossipProcess:
        """The hosted process of *node_id*."""
        return self.stack_of(node_id).process

    def pss_of(self, node_id: int) -> object:
        """The PSS instance of *node_id* (for tests and metrics)."""
        return self.stack_of(node_id).pss

    def add_node(self) -> int:
        """Provision, register and start one new node; returns its id."""
        node_id = self._next_id
        self._next_id += 1
        journal = None
        if self.storage_dir is not None:
            journal = open_journal(self.node_storage_dir(node_id), self.storage_fsync)
        return self._start_node(node_id, journal)

    def node_storage_dir(self, node_id: int) -> Path:
        """The durable storage directory of *node_id*."""
        if self.storage_dir is None:
            raise MembershipError("cluster has no storage_dir configured")
        return self.storage_dir / f"node-{node_id}"

    def _start_node(
        self,
        node_id: int,
        journal: "DeliveryJournal | None",
        resume_seq: Optional[int] = None,
    ) -> int:
        """Wire up and start a process under *node_id* — fresh, or a
        respawn resuming its predecessor's sequence at *resume_seq*."""
        config = self.config
        node_rng = self.sim.fork_rng(f"node:{node_id}")
        pss = build_pss(
            config.pss,
            node_id,
            config.epto.fanout,
            self.directory,
            self.network,
            node_rng,
            bootstrap_rng=self._rng,
            view_size=config.cyclon_view_size,
            shuffle_size=config.cyclon_shuffle_size,
        )

        def record(event: Event) -> None:
            self.collector.record_delivery(node_id, event, self.sim.now())

        stack = NodeStack(
            node_id,
            config.epto,
            pss,
            self.network,
            record,
            self.sim.now,
            node_rng,
            system_size_hint=config.expected_size,
            journal=journal,
            sync=self.sync,
            process_factory=self._process_factory,
        )
        respawned = resume_seq is not None
        if respawned:
            stack.resume_sequence(resume_seq)
            stack.hold(config.respawn_hold_rounds())
        if journal is not None:
            self.journals[node_id] = journal
        sync_manager = stack.sync_manager
        if sync_manager is not None:
            self.sync_managers[node_id] = sync_manager

        self.network.register(node_id, stack.handle_message)
        self.directory.add(node_id)
        self.collector.record_node_added(node_id, self.sim.now())

        interval = config.epto.round_interval
        drift = config.drift
        if config.round_phase == "staggered":
            first_round = self._rng.randrange(max(1, interval)) + 1
        else:
            # Paper schedule: first round a full (drifted) interval
            # after joining.
            first_round = drift.next_period(node_rng, node_id, interval)
        tasks = [
            PeriodicTask(
                self.sim,
                stack.on_round,
                period_source=lambda: drift.next_period(node_rng, node_id, interval),
                initial_delay=first_round,
            )
        ]
        shuffle_fn = getattr(pss, "shuffle", None)
        if callable(shuffle_fn):
            # Any self-maintaining PSS (Cyclon, HyParView, Brahms)
            # shares the shuffle cadence; the idealized uniform view
            # has no shuffle and needs no task.
            period = config.cyclon_period or interval
            tasks.append(
                PeriodicTask(
                    self.sim,
                    shuffle_fn,
                    period_source=lambda: period,
                    initial_delay=self._rng.randrange(max(1, period)),
                )
            )
        if sync_manager is not None:
            # The manager counts rounds itself, so tick it once per
            # round interval (undrifted — anti-entropy needs no phase
            # realism). A respawned node ticks on the very next
            # simulator step: its post-recovery catch-up probe fires
            # before its first epidemic round can advance the order
            # mark past the still-missing suffix.
            if respawned:
                sync_manager.kick()
            tasks.append(
                PeriodicTask(
                    self.sim,
                    sync_manager.on_round,
                    period_source=lambda: interval,
                    initial_delay=1 if respawned else interval,
                )
            )

        self._nodes[node_id] = _ClusterNode(stack, tasks)
        return node_id

    def add_nodes(self, count: int) -> Sequence[int]:
        """Provision *count* nodes; returns their ids."""
        return [self.add_node() for _ in range(count)]

    def remove_node(self, node_id: int) -> None:
        """Stop and deregister *node_id* (simulating a crash/leave)."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise MembershipError(f"node {node_id} is not in the cluster")
        node.stop()
        self.network.unregister(node_id)
        self.directory.remove(node_id)
        self.collector.record_node_removed(node_id, self.sim.now())
        journal = self.journals.pop(node_id, None)
        if journal is not None and not journal.closed:
            journal.close()

    def crash_node(self, node_id: int) -> None:
        """Crash *node_id*, remembering its broadcast sequence.

        Identical to :meth:`remove_node` on the network and membership
        surface, but the issued event-id sequence is kept so
        :meth:`respawn_node` can later bring a replacement up under the
        *same* identity — mirroring
        :meth:`repro.runtime.cluster.AsyncCluster.crash_node` /
        ``respawn_node`` semantics in the simulator.
        """
        issued = self.stack_of(node_id).issued_sequence
        self.remove_node(node_id)
        self._crashed[node_id] = issued

    def respawn_node(self, node_id: int) -> int:
        """Replace a crashed node with a fresh process of the same id.

        The replacement resumes the predecessor's broadcast sequence
        (event ids stay unique — the same guarantee
        :meth:`repro.runtime.cluster.AsyncCluster.respawn_node` gives
        the asyncio runtime), re-registers with the network and the PSS
        directory, and starts a new round timer. Its *ordering* state
        always starts empty, exactly like a real process restarted
        after a crash; on a cluster with ``storage_dir``, the durable
        history does not — :func:`repro.storage.recovery.recover` runs
        over the corpse's directory first, the broadcast sequence
        resumes from the maximum of the in-memory and durable records,
        and the fresh journal inherits the recovered dedupe watermark
        so re-gossiped pre-crash events never reach the collector (or
        the replicas above it) twice. Recovery outcomes accumulate in
        :attr:`recoveries`.
        """
        try:
            issued = self._crashed.pop(node_id)
        except KeyError:
            raise MembershipError(
                f"node {node_id} has not crashed (or already respawned)"
            ) from None
        journal = None
        if self.storage_dir is not None:
            journal, recovered, issued = reopen_journal(
                node_id, self.node_storage_dir(node_id), self.storage_fsync, issued
            )
            self.recoveries.setdefault(node_id, []).append(recovered)
        return self._start_node(node_id, journal, resume_seq=issued)

    def crashed_ids(self) -> Sequence[int]:
        """Ids crashed via :meth:`crash_node` and not yet respawned."""
        return sorted(self._crashed)

    def random_alive(self, rng: random.Random | None = None) -> int:
        """A uniformly random live node id."""
        rng = rng if rng is not None else self._rng
        ids = self.directory.alive_ids()
        if not ids:
            raise MembershipError("cluster is empty")
        return ids[rng.randrange(len(ids))]

    # ------------------------------------------------------------------
    # Broadcasting
    # ------------------------------------------------------------------

    def broadcast_from(self, node_id: int, payload: Any = None) -> Event:
        """EpTO-broadcast *payload* from *node_id*, recording metrics."""
        event = self.stack_of(node_id).broadcast(payload)
        self.collector.record_broadcast(event, self.sim.now())
        return event

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimCluster(size={self.size}, pss={self.config.pss!r})"
