"""Orchestration for multi-topic service clusters (tests, drills,
benchmarks).

A :class:`ServiceCluster` is N :class:`~repro.service.BroadcastService`
hosts over one shared fabric — the multi-topic analogue of
:class:`~repro.runtime.cluster.AsyncCluster`, with the same crash /
respawn / wait vocabulary plus per-topic fault helpers and a per-topic
:func:`~repro.metrics.checker.check_survivors` wrapper. Every host
subscribes to every topic opened through the cluster; partial
subscription setups should drive :class:`BroadcastService` directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.config import EpToConfig
from ..core.errors import MembershipError
from ..core.event import Event
from ..pss.base import MembershipDirectory
from ..runtime.cluster import wait_until
from ..runtime.transport import AsyncNetwork
from ..stack import validate_modes
from ..sync.config import SyncConfig
from .service import BroadcastService


class ServiceCluster:
    """A set of :class:`BroadcastService` hosts on one loop.

    Args:
        config: EpTO configuration shared by every topic on every host
            (``round_interval`` in milliseconds).
        network: Shared fabric; a lossless in-memory
            :class:`~repro.runtime.transport.AsyncNetwork` is built
            when omitted. For real sockets pass a
            :class:`~repro.runtime.udp.UdpNetwork` and ``await
            open_all()`` before :meth:`start_all`.
        storage_dir: Optional durable root; host *h*'s topic *t*
            journals under ``storage_dir/host-<h>/topic-<t>/``.
        sync: Optional anti-entropy configuration (requires
            ``storage_dir``).
    """

    def __init__(
        self,
        config: EpToConfig,
        network: Any = None,
        storage_dir: Union[str, Path, None] = None,
        storage_fsync: str = "rotate",
        sync: Optional[SyncConfig] = None,
        expected_size: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        validate_modes(config, sync, storage_dir is not None, expected_size)
        self.config = config
        self.network = network if network is not None else AsyncNetwork(seed=seed)
        self.storage_dir = Path(storage_dir) if storage_dir is not None else None
        self.storage_fsync = storage_fsync
        self.sync = sync
        self.expected_size = expected_size
        self.seed = seed
        #: topic -> shared membership directory (one per topic, shared
        #: by every host so each topic's PSS sees its co-subscribers).
        self.directories: Dict[int, MembershipDirectory] = {}
        self.hosts: Dict[int, BroadcastService] = {}
        #: topics opened through the cluster, in open order.
        self.topics: List[int] = []
        #: topic -> event id -> event, for every cluster-issued publish
        #: (feeds check_survivors' forgery/equivocation checks).
        self.broadcasts: Dict[int, Dict[Any, Event]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------

    def add_host(self) -> BroadcastService:
        """Create and register one host (subscribed to every topic
        already opened through the cluster)."""
        host_id = self._next_id
        self._next_id += 1
        service = BroadcastService(
            host_id=host_id,
            config=self.config,
            network=self.network,
            directories=self.directories,
            storage_dir=self.host_storage_dir(host_id)
            if self.storage_dir is not None
            else None,
            storage_fsync=self.storage_fsync,
            sync=self.sync,
            expected_size=self.expected_size,
            seed=self.seed,
        )
        for topic in self.topics:
            service.open_topic(topic)
        self.hosts[host_id] = service
        return service

    def add_hosts(self, count: int) -> List[BroadcastService]:
        """Provision *count* hosts."""
        return [self.add_host() for _ in range(count)]

    def host_storage_dir(self, host_id: int) -> Path:
        """The durable root of *host_id*."""
        if self.storage_dir is None:
            raise MembershipError("cluster has no storage_dir configured")
        return self.storage_dir / f"host-{host_id}"

    def open_topic(self, topic: int) -> None:
        """Open *topic* on every current host (and every later one)."""
        if topic in self.topics:
            raise MembershipError(f"topic {topic} is already open")
        self.topics.append(topic)
        self.broadcasts[topic] = {}
        for service in self.hosts.values():
            service.open_topic(topic)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def open_all(self) -> None:
        """Bind every host's socket (UDP fabrics; no-op otherwise)."""
        open_socket = getattr(self.network, "open", None)
        if open_socket is not None:
            for host_id in self.hosts:
                await open_socket(host_id)

    def start_all(self) -> None:
        """Start every host's round timer."""
        for service in self.hosts.values():
            service.start()

    async def close_all(self) -> None:
        """Orderly shutdown of every host (and the fabric, if it has a
        ``close``)."""
        for service in self.hosts.values():
            await service.close()
        close = getattr(self.network, "close", None)
        if close is not None:
            await close()

    def crash_host(self, host_id: int) -> BroadcastService:
        """Abruptly kill *host_id* (all its topics at once — a host
        crash takes the shared socket down, not one topic)."""
        service = self._host(host_id)
        service.crash()
        return service

    async def respawn_host(self, host_id: int) -> BroadcastService:
        """Resurrect a crashed host under the same identity; each topic
        recovers from its own journal and catches up independently."""
        service = self._host(host_id)
        await service.respawn()
        return service

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    async def publish(
        self, topic: int, host_id: int, payload: Any = None, *, wait: bool = True
    ) -> Event:
        """Publish on *topic* from *host_id*, recording the issued
        event for later verification."""
        event = await self._host(host_id).publish(topic, payload, wait=wait)
        self.broadcasts.setdefault(topic, {})[event.id] = event
        return event

    def deliveries(self, topic: int) -> Dict[int, List[Event]]:
        """Per-host delivered events on *topic*, in delivery order."""
        return {
            host_id: service.deliveries(topic)
            for host_id, service in self.hosts.items()
        }

    def live_ids(self) -> List[int]:
        """Ids of hosts that are not crashed."""
        return [hid for hid, service in self.hosts.items() if not service.crashed]

    # ------------------------------------------------------------------
    # Per-topic fault surface
    # ------------------------------------------------------------------

    def set_topic_partition(self, topic: int, groups: Dict[int, object]) -> None:
        """Partition one topic across the whole cluster (sender-side on
        every host's channel); other topics keep flowing."""
        for service in self.hosts.values():
            service.channel(topic).set_partition(groups)

    def heal_topic_partition(self, topic: int) -> None:
        """Heal one topic's partition everywhere."""
        for service in self.hosts.values():
            service.channel(topic).heal_partition()

    def set_topic_loss(self, topic: int, rate: float, duration: float) -> None:
        """Loss burst on one topic's frames, everywhere."""
        for service in self.hosts.values():
            service.channel(topic).set_loss_burst(rate, duration)

    # ------------------------------------------------------------------
    # Verification / waiting
    # ------------------------------------------------------------------

    wait_until = staticmethod(wait_until)

    async def wait_for_topic(self, topic: int, count: int, timeout: float) -> bool:
        """Wait until every live host delivered at least *count* events
        on *topic*."""
        return await self.wait_until(
            lambda: all(
                len(service.deliveries(topic)) >= count
                for service in self.hosts.values()
                if not service.crashed
            ),
            timeout,
        )

    def check_topic(self, topic: int):
        """Run :func:`~repro.metrics.checker.check_survivors` over one
        topic's per-host histories — total order, agreement, recovered
        suffixes and content checks, scoped to that topic alone."""
        from ..metrics.checker import check_survivors

        recovered = {
            hid
            for hid, service in self.hosts.items()
            if not service.crashed and service.topics[topic].restart_indices
        }
        restart_indices = {
            hid: service.topics[topic].restart_indices
            for hid, service in self.hosts.items()
            if service.topics[topic].restart_indices
        }
        return check_survivors(
            deliveries=self.deliveries(topic),
            survivors=set(self.live_ids()) - recovered,
            recovered=recovered,
            restart_indices=restart_indices,
            broadcasts=self.broadcasts.get(topic),
        )

    def _host(self, host_id: int) -> BroadcastService:
        service = self.hosts.get(host_id)
        if service is None:
            raise MembershipError(f"host {host_id} is not in the cluster")
        return service
