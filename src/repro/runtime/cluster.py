"""Convenience orchestration for asyncio EpTO clusters (paper §8.5)."""

from __future__ import annotations

import asyncio
import random
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from ..core.config import EpToConfig
from ..core.errors import MembershipError
from ..core.event import Event
from ..pss.base import MembershipDirectory
from ..stack import build_pss, open_journal, respawn, validate_modes
from .node import AsyncEpToNode
from .transport import AsyncNetwork

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..storage.journal import DeliveryJournal
    from ..storage.recovery import RecoveredState
    from ..sync.config import SyncConfig


async def wait_until(
    predicate: Callable[[], bool], timeout: float, poll: float = 0.01
) -> bool:
    """Poll *predicate* until true or *timeout* seconds elapse."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(poll)
    return predicate()


class AsyncCluster:
    """A set of :class:`~repro.runtime.node.AsyncEpToNode` on one loop.

    Mirrors :class:`repro.sim.cluster.SimCluster` for the asyncio
    runtime: node provisioning, PSS wiring (uniform or Cyclon), a
    shared delivery journal, quiescence helpers for tests and examples,
    and crash/respawn support for fault injection
    (:mod:`repro.faults`).

    Args:
        config: EpTO configuration (``round_interval`` in milliseconds).
        network: Message fabric; a lossless zero-latency one is built
            when omitted. Any object with the ``register`` /
            ``unregister`` / ``send`` surface works, including
            :class:`repro.runtime.udp.UdpNetwork` (open its sockets
            with ``await network.open_all()`` before ``start_all``).
        pss: ``"uniform"`` or ``"cyclon"``.
        drift_fraction: Per-round sleep jitter for every node.
        seed: Base seed for node randomness.
        expected_size: System-size hint forwarded to nodes; required
            when ``config.expose_stability`` is set.
        storage_dir: Root directory for durable per-node journals
            (:mod:`repro.storage`). When set, every node appends its
            deliveries and broadcast sequence to
            ``storage_dir/node-<id>/`` and :meth:`respawn_node`
            restores crashed nodes from disk (snapshot + log replay,
            with re-delivery dedupe) instead of starting them blank.
            ``None`` (the default) keeps the cluster fully in-memory
            with zero storage overhead.
        storage_fsync: Log fsync policy for journaled nodes
            (:data:`repro.storage.log.FSYNC_POLICIES`). The default
            ``"rotate"`` is the sweet spot for crash *simulation*:
            every append is flushed to the OS, so in-process "crashes"
            lose nothing.
        sync: Optional :class:`repro.sync.SyncConfig` enabling the
            anti-entropy catch-up protocol on every node (requires
            ``storage_dir``). Respawned nodes then run a blocking
            catch-up against a peer's delivery log *before* rejoining
            dissemination, closing the TTL gap for long outages, and
            are held until the in-flight window has closed
            (docs/SYNC.md).
    """

    def __init__(
        self,
        config: EpToConfig,
        network: AsyncNetwork | None = None,
        pss: str = "uniform",
        drift_fraction: float = 0.0,
        seed: int = 0,
        expected_size: Optional[int] = None,
        storage_dir: Union[str, Path, None] = None,
        storage_fsync: str = "rotate",
        sync: Optional[SyncConfig] = None,
    ) -> None:
        validate_modes(config, sync, storage_dir is not None, expected_size, pss)
        self.config = config
        self.network = network if network is not None else AsyncNetwork(seed=seed)
        self.pss_kind = pss
        self.drift_fraction = drift_fraction
        self.seed = seed
        self.expected_size = expected_size
        self.storage_dir = Path(storage_dir) if storage_dir is not None else None
        self.storage_fsync = storage_fsync
        self.sync = sync
        self.directory = MembershipDirectory()
        self.nodes: Dict[int, AsyncEpToNode] = {}
        #: node id -> events delivered, in order (the shared journal).
        self.deliveries: Dict[int, List[Event]] = {}
        #: node id -> journal indices at which each respawn began, so
        #: checkers can evaluate a recovered node's post-restart suffix.
        self.restart_indices: Dict[int, List[int]] = {}
        #: node id -> live durable journal (only when ``storage_dir``).
        self.journals: Dict[int, "DeliveryJournal"] = {}
        #: node id -> recovery outcomes, one per respawn-from-disk.
        self.recoveries: Dict[int, List["RecoveredState"]] = {}
        #: user delivery callbacks, kept so respawned nodes re-wire them.
        self._on_deliver: Dict[int, Optional[Callable[[Event], None]]] = {}
        self._next_id = 0
        self._rng = random.Random(f"{seed}:async-cluster")

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------

    def add_node(
        self,
        on_deliver: Callable[[Event], None] | None = None,
    ) -> AsyncEpToNode:
        """Create, register and return one node (call :meth:`start_all`
        or ``node.start()`` afterwards to begin gossiping)."""
        node_id = self._next_id
        self._next_id += 1
        self.deliveries[node_id] = []
        self._on_deliver[node_id] = on_deliver
        journal = None
        if self.storage_dir is not None:
            journal = open_journal(self.node_storage_dir(node_id), self.storage_fsync)
        return self._provision(node_id, journal=journal)

    def add_nodes(self, count: int) -> List[AsyncEpToNode]:
        """Provision *count* nodes."""
        return [self.add_node() for _ in range(count)]

    def node_storage_dir(self, node_id: int) -> Path:
        """The durable storage directory of *node_id*."""
        if self.storage_dir is None:
            raise MembershipError("cluster has no storage_dir configured")
        return self.storage_dir / f"node-{node_id}"

    def _provision(
        self,
        node_id: int,
        config: EpToConfig | None = None,
        journal: "DeliveryJournal | None" = None,
    ) -> AsyncEpToNode:
        """Build and register a node object for *node_id* (fresh or
        respawned); the delivery journal must already exist."""

        def record(event: Event) -> None:
            self.deliveries[node_id].append(event)
            callback = self._on_deliver.get(node_id)
            if callback is not None:
                callback(event)

        config = config if config is not None else self.config
        pss = build_pss(
            self.pss_kind,
            node_id,
            config.fanout,
            self.directory,
            self.network,
            random.Random(f"{self.seed}:pss:{node_id}"),
            bootstrap_rng=self._rng,
        )
        node = AsyncEpToNode(
            node_id=node_id,
            config=config,
            network=self.network,
            peer_sampler=pss,
            on_deliver=record,
            drift_fraction=self.drift_fraction,
            seed=self.seed,
            system_size_hint=self.expected_size,
            journal=journal,
            sync_config=self.sync,
        )
        if journal is not None:
            self.journals[node_id] = journal
        self.directory.add(node_id)
        self.nodes[node_id] = node
        return node

    async def remove_node(self, node_id: int) -> None:
        """Stop and deregister *node_id* (graceful leave)."""
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise MembershipError(f"node {node_id} is not in the cluster")
        await node.stop()
        self.directory.remove(node_id)
        journal = self.journals.pop(node_id, None)
        if journal is not None and not journal.closed:
            journal.close()

    def crash_node(self, node_id: int) -> AsyncEpToNode:
        """Abruptly kill *node_id* (fault injection).

        Unlike :meth:`remove_node`, the corpse stays in :attr:`nodes`
        (flagged ``crashed``) so a supervisor or
        :meth:`respawn_node` can resurrect it under the same identity.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise MembershipError(f"node {node_id} is not in the cluster")
        node.crash()
        self.directory.remove(node_id)
        return node

    async def respawn_node(
        self, node_id: int, config: EpToConfig | None = None
    ) -> AsyncEpToNode:
        """Replace a crashed node with a fresh, started process of the
        same id, through :func:`repro.stack.respawn` (which tells the
        whole recovery story: from disk, same sequence, held).

        The replacement keeps the node's delivery journal and user
        callback; on socket-backed fabrics its socket is rebound. With
        anti-entropy it runs one blocking catch-up against a peer's
        delivery log before its timers start, and the hold then counts
        its own rounds; broadcast from it once ``node.stack.held`` is
        false (docs/SYNC.md). Recovery outcomes accumulate in
        :attr:`recoveries`, for the caller to restore application state
        from.

        Args:
            config: Optional replacement EpTO configuration — the hook
                a Lemma 7 adaptation uses to respawn under recomputed
                K/TTL (see
                :func:`repro.faults.adaptive.supervisor_adaptation`).
                ``None`` keeps the cluster-wide configuration.
        """
        corpse = self.nodes.get(node_id)
        if corpse is None:
            raise MembershipError(f"node {node_id} is not in the cluster")
        if corpse.running:
            raise MembershipError(f"node {node_id} is still running")
        self.restart_indices.setdefault(node_id, []).append(
            len(self.deliveries[node_id])
        )
        recovered = respawn(
            node_id,
            corpse.stack.issued_sequence,
            lambda journal: self._provision(node_id, config, journal).stack,
            directory=self.node_storage_dir(node_id) if self.storage_dir else None,
            fsync=self.storage_fsync,
            corpse=self.journals.get(node_id),
        )
        if recovered is not None:
            self.recoveries.setdefault(node_id, []).append(recovered)
        node = self.nodes[node_id]
        open_socket = getattr(self.network, "open", None)
        if open_socket is not None:
            await open_socket(node_id)
        # Repair the TTL-outliving gap before the round loop starts (a
        # no-op without anti-entropy); the hold then covers what is
        # still in flight.
        await node.catch_up()
        node.start()
        return node

    def start_all(self) -> None:
        """Start every node's round loop."""
        for node in self.nodes.values():
            node.start()

    async def stop_all(self) -> None:
        """Stop every node (and close its durable journal, if any)."""
        for node in list(self.nodes.values()):
            await node.stop()
        for journal in self.journals.values():
            if not journal.closed:
                journal.close()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def live_ids(self) -> List[int]:
        """Ids of nodes that are neither crashed nor removed."""
        return [nid for nid, node in self.nodes.items() if not node.crashed]

    wait_until = staticmethod(wait_until)

    async def wait_for_deliveries(self, count: int, timeout: float) -> bool:
        """Wait until every live (non-crashed) node delivered at least
        *count* events."""
        return await self.wait_until(
            lambda: all(
                len(self.deliveries[node_id]) >= count
                for node_id, node in self.nodes.items()
                if not node.crashed
            ),
            timeout,
        )

    def delivery_payload_sequences(self) -> Dict[int, List[Any]]:
        """Per-node delivered payloads, in delivery order."""
        return {
            node_id: [event.payload for event in events]
            for node_id, events in self.deliveries.items()
        }
