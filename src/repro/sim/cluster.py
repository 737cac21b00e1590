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
from ..core.process import EpToProcess
from ..lazy.process import LazyEpToProcess
from ..lazy.protocol import LAZY_MESSAGE_TYPES
from ..metrics.collector import DeliveryCollector
from ..pss import OVERLAY_MESSAGE_TYPES
from ..pss.base import MembershipDirectory
from ..pss.brahms import BrahmsPss
from ..pss.cyclon import CyclonPss, CyclonRequest, CyclonResponse
from ..pss.hyparview import HyParViewPss
from ..pss.uniform import UniformViewPss
from ..sync.config import SyncConfig
from ..sync.manager import SyncManager, epto_chunk_applier
from ..sync.protocol import SYNC_MESSAGE_TYPES
from .drift import DriftModel, UniformDrift
from .engine import PeriodicTask, Simulator
from .network import SimNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.journal import DeliveryJournal
    from ..storage.recovery import RecoveredState


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
        if self.pss not in ("uniform", "cyclon", "hyparview", "brahms"):
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
    """Internal per-node wiring: process + PSS + scheduled tasks."""

    __slots__ = (
        "node_id",
        "process",
        "pss",
        "round_task",
        "shuffle_task",
        "sync_task",
    )

    def __init__(
        self,
        node_id: int,
        process: GossipProcess,
        pss: object,
        round_task: PeriodicTask,
        shuffle_task: Optional[PeriodicTask],
        sync_task: Optional[PeriodicTask] = None,
    ) -> None:
        self.node_id = node_id
        self.process = process
        self.pss = pss
        self.round_task = round_task
        self.shuffle_task = shuffle_task
        self.sync_task = sync_task

    def stop(self) -> None:
        self.round_task.stop()
        if self.shuffle_task is not None:
            self.shuffle_task.stop()
        if self.sync_task is not None:
            self.sync_task.stop()


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
        if sync is not None and storage_dir is None:
            raise MembershipError(
                "anti-entropy sync requires storage_dir (it exchanges "
                "delivery-log suffixes)"
            )
        if sync is not None and config.epto.mode == "lazy":
            raise MembershipError(
                "anti-entropy sync is not supported in lazy mode (repaired "
                "events bypass the payload store; run mode='eager' with sync)"
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

    def node(self, node_id: int) -> GossipProcess:
        """The hosted process of *node_id*."""
        try:
            return self._nodes[node_id].process
        except KeyError:
            raise MembershipError(f"node {node_id} is not in the cluster") from None

    def pss_of(self, node_id: int) -> object:
        """The PSS instance of *node_id* (for tests and metrics)."""
        try:
            return self._nodes[node_id].pss
        except KeyError:
            raise MembershipError(f"node {node_id} is not in the cluster") from None

    def add_node(self) -> int:
        """Provision, register and start one new node; returns its id."""
        node_id = self._next_id
        self._next_id += 1
        return self._start_node(node_id)

    def node_storage_dir(self, node_id: int) -> Path:
        """The durable storage directory of *node_id*."""
        if self.storage_dir is None:
            raise MembershipError("cluster has no storage_dir configured")
        return self.storage_dir / f"node-{node_id}"

    def _open_journal(
        self, node_id: int, resume: "RecoveredState | None" = None
    ) -> "DeliveryJournal | None":
        if self.storage_dir is None:
            return None
        from ..storage.journal import DeliveryJournal

        journal = DeliveryJournal(
            self.node_storage_dir(node_id),
            fsync=self.storage_fsync,
            resume=resume,
        )
        self.journals[node_id] = journal
        return journal

    def _start_node(
        self,
        node_id: int,
        resume_seq: Optional[int] = None,
        recovered: "RecoveredState | None" = None,
    ) -> int:
        """Wire up and start a process under *node_id* (fresh or respawn)."""
        node_rng = self.sim.fork_rng(f"node:{node_id}")
        pss = self._build_pss(node_id, node_rng)
        journal = self._open_journal(node_id, resume=recovered)
        process = self._build_process(node_id, pss, node_rng, journal)
        if resume_seq is not None:
            # Same-identity restart: never reissue a used (source, seq)
            # event id (see EventIdGenerator.resume). Hosted process
            # kinds without a sequence (the unordered baselines) have
            # nothing to resume.
            resume = getattr(process, "resume_sequence", None)
            if resume is not None:
                resume(resume_seq)

        sync_manager: Optional[SyncManager] = None
        ordering = getattr(process, "ordering", None)
        if self.sync is not None and journal is not None and ordering is not None:
            # Only EpTO-shaped processes can apply repaired events in
            # total order; baseline broadcast processes simply run
            # without anti-entropy.
            sync_manager = SyncManager(
                node_id=node_id,
                journal=journal,
                send=lambda dst, message: self.network.send(node_id, dst, message),
                peer_sampler=pss,
                apply_events=epto_chunk_applier(process),  # type: ignore[arg-type]
                config=self.sync,
            )
            self.sync_managers[node_id] = sync_manager

        def handle_message(src: int, message: Any) -> None:
            # A ball, nearly always (K of them every node-round), so it
            # is tested first — the order of AsyncEpToNode's inbox.
            if isinstance(message, tuple):
                process.on_ball(message)
            elif isinstance(message, CyclonRequest):
                pss.handle_request(src, message)  # type: ignore[union-attr]
            elif isinstance(message, CyclonResponse):
                pss.handle_response(src, message)  # type: ignore[union-attr]
            elif isinstance(message, OVERLAY_MESSAGE_TYPES):
                overlay = getattr(pss, "handle_message", None)
                if overlay is not None:
                    overlay(src, message)
                # else: overlay chatter at a uniform/cyclon node; drop
            elif isinstance(message, LAZY_MESSAGE_TYPES):
                lazy = getattr(process, "on_lazy_message", None)
                if lazy is not None:
                    lazy(src, message)
                # else: stray lazy traffic at an eager node; drop
            elif isinstance(message, SYNC_MESSAGE_TYPES):
                if sync_manager is not None:
                    sync_manager.on_message(src, message)
                # else: not sync-enabled; drop stray anti-entropy traffic
            else:
                process.on_ball(message)

        self.network.register(node_id, handle_message)
        self.directory.add(node_id)
        self.collector.record_node_added(node_id, self.sim.now())

        interval = self.config.epto.round_interval
        drift = self.config.drift
        if self.config.round_phase == "staggered":
            first_round = self._rng.randrange(max(1, interval)) + 1
        else:
            # Paper schedule: first round a full (drifted) interval
            # after joining.
            first_round = drift.next_period(node_rng, node_id, interval)
        round_fn: Callable[[], None] = process.on_round
        if sync_manager is not None and (
            recovered is not None or resume_seq is not None
        ):
            # Respawn catch-up gate (docs/SYNC.md): hold epidemic rounds
            # until anti-entropy reports convergence AND the in-flight
            # horizon has passed — every event broadcast before the gate
            # opens has finished disseminating and reached peers'
            # delivery logs, so it arrives here through contiguous sync
            # pulls instead of a partially-observed TTL window. Balls
            # are still received during the hold (they only accumulate
            # state); the node just neither relays nor delivers, so its
            # order mark cannot advance past a still-missing event.
            # One-way latch, bounded by the catch-up budget so an
            # unservable gap (every peer also gone) degrades to the
            # ungated behaviour instead of parking the node forever.
            round_fn = self._gated_round(
                process,
                sync_manager,
                hold_rounds=self.config.respawn_hold_rounds(),
            )
        round_task = PeriodicTask(
            self.sim,
            round_fn,
            period_source=lambda: drift.next_period(node_rng, node_id, interval),
            initial_delay=first_round,
        )
        shuffle_task = None
        shuffle_fn = getattr(pss, "shuffle", None)
        if callable(shuffle_fn):
            # Any self-maintaining PSS (Cyclon, HyParView, Brahms)
            # shares the shuffle cadence; the idealized uniform view
            # has no shuffle and needs no task.
            period = self.config.cyclon_period or interval
            shuffle_task = PeriodicTask(
                self.sim,
                shuffle_fn,
                period_source=lambda: period,
                initial_delay=self._rng.randrange(max(1, period)),
            )
        sync_task = None
        if sync_manager is not None:
            # The manager counts rounds itself, so tick it once per
            # round interval (undrifted — anti-entropy needs no phase
            # realism). A respawned node ticks on the very next
            # simulator step: its post-recovery catch-up probe fires
            # before its first epidemic round can advance the order
            # mark past the still-missing suffix.
            if recovered is not None or resume_seq is not None:
                sync_manager.kick()
                first_sync = 1
            else:
                first_sync = interval
            sync_task = PeriodicTask(
                self.sim,
                sync_manager.on_round,
                period_source=lambda: interval,
                initial_delay=first_sync,
            )

        self._nodes[node_id] = _ClusterNode(
            node_id, process, pss, round_task, shuffle_task, sync_task
        )
        return node_id

    @staticmethod
    def _gated_round(
        process: GossipProcess, manager: SyncManager, hold_rounds: float
    ) -> Callable[[], None]:
        """Round function for a respawned sync-enabled node: no-op until
        the sync manager reports ``caught_up`` and ``hold_rounds`` round
        ticks have passed (the in-flight dissemination horizon), then
        behave as ``process.on_round`` forever. The hold is abandoned —
        gate opened regardless — once the manager's catch-up budget runs
        out without convergence."""
        state = {"joined": False, "waited": 0}

        def run() -> None:
            if not state["joined"]:
                state["waited"] += 1
                ready = manager.caught_up and state["waited"] >= hold_rounds
                if not ready and state["waited"] < manager.config.catch_up_rounds:
                    return
                state["joined"] = True
            process.on_round()

        return run

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
        process = self.node(node_id)
        issued = getattr(
            getattr(process, "dissemination", None), "issued_sequence", 0
        )
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
        recovered: "RecoveredState | None" = None
        if self.storage_dir is not None:
            from ..storage.recovery import recover

            recovered = recover(node_id, self.node_storage_dir(node_id))
            self.recoveries.setdefault(node_id, []).append(recovered)
            issued = max(issued, recovered.next_seq)
        return self._start_node(node_id, resume_seq=issued, recovered=recovered)

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
        event = self.node(node_id).broadcast(payload)
        self.collector.record_broadcast(event, self.sim.now())
        journal = self.journals.get(node_id)
        if journal is not None:
            journal.record_broadcast(event)
        return event

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_pss(self, node_id: int, node_rng: random.Random):
        if self.config.pss == "uniform":
            return UniformViewPss(node_id, self.directory, node_rng)
        if self.config.pss == "cyclon":
            fanout = self.config.epto.fanout
            view_size = self.config.cyclon_view_size or 2 * fanout
            shuffle_size = self.config.cyclon_shuffle_size or max(1, view_size // 2)
            pss = CyclonPss(
                node_id=node_id,
                view_size=view_size,
                shuffle_size=shuffle_size,
                send=lambda dst, msg: self.network.send(node_id, dst, msg),
                rng=node_rng,
            )
            # Simplified join: seed the view from an introducer sample
            # of the current membership.
            bootstrap = self.directory.sample(self._rng, view_size, exclude=node_id)
            pss.bootstrap(bootstrap)
            return pss
        if self.config.pss == "hyparview":
            fanout = self.config.epto.fanout
            active_size = max(fanout + 1, self.config.cyclon_view_size or 0)
            pss = HyParViewPss(
                node_id=node_id,
                active_size=active_size,
                passive_size=4 * active_size,
                send=lambda dst, msg: self.network.send(node_id, dst, msg),
                rng=node_rng,
            )
            bootstrap = self.directory.sample(
                self._rng, 4 * active_size, exclude=node_id
            )
            pss.bootstrap(bootstrap)
            return pss
        if self.config.pss == "brahms":
            fanout = self.config.epto.fanout
            view_size = self.config.cyclon_view_size or 2 * fanout
            pss = BrahmsPss(
                node_id=node_id,
                view_size=view_size,
                send=lambda dst, msg: self.network.send(node_id, dst, msg),
                rng=node_rng,
            )
            bootstrap = self.directory.sample(self._rng, view_size, exclude=node_id)
            pss.bootstrap(bootstrap)
            return pss
        raise MembershipError(f"unknown PSS kind {self.config.pss!r}")

    def _build_process(
        self,
        node_id: int,
        pss: object,
        node_rng: random.Random,
        journal: "DeliveryJournal | None" = None,
    ) -> GossipProcess:
        def record(event: Event) -> None:
            self.collector.record_delivery(node_id, event, self.sim.now())

        if journal is None:
            on_deliver = record
        else:
            durable = journal

            def on_deliver(event: Event) -> None:
                # Journal first; a post-respawn re-delivery of an event
                # already in the durable history is dropped before the
                # collector (and any replica service above it) sees it.
                if durable.record_delivery(event):
                    record(event)

        if self._process_factory is not None:
            return self._process_factory(
                node_id=node_id,
                pss=pss,
                transport=self.network,
                on_deliver=on_deliver,
                time_source=self.sim.now,
                rng=node_rng,
            )
        if self.config.epto.mode == "lazy":
            return LazyEpToProcess(
                node_id=node_id,
                config=self.config.epto,
                peer_sampler=pss,  # type: ignore[arg-type]
                transport=self.network,
                on_deliver=on_deliver,
                time_source=self.sim.now,
                rng=node_rng,
                system_size_hint=self.config.expected_size,
            )
        return EpToProcess(
            node_id=node_id,
            config=self.config.epto,
            peer_sampler=pss,  # type: ignore[arg-type]
            transport=self.network,
            on_deliver=on_deliver,
            time_source=self.sim.now,
            rng=node_rng,
            system_size_hint=self.config.expected_size,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimCluster(size={self.size}, pss={self.config.pss!r})"
