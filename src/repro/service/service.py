"""The multi-topic broadcast service host (docs/SERVICE.md).

A :class:`BroadcastService` is one host's presence on any number of
independent EpTO topics, multiplexed over one fabric endpoint through a
:class:`~repro.service.demux.TopicDemux`. Each topic gets its own full
EpTO engine — dissemination buffer, ordering component, optional
durable :class:`~repro.storage.journal.DeliveryJournal` and
anti-entropy :class:`~repro.sync.SyncManager` — so topics never share
ordering state: a slow or partitioned topic cannot delay another's
deliveries.

What *is* shared is the clock and the wire. One round timer per host
ticks every topic's round in the same event-loop iteration, so the
fan-outs of all topics coalesce through the demux into shared
:class:`~repro.runtime.codec.TopicEnvelope` datagrams — each ball
encoded once per tick, and peers that are sent the same frames sharing
one assembled envelope. That sharing is the point of the service: N
topics cost one socket, one timer and ~1 datagram per peer per round
instead of N of each.

Client surface: ``await service.publish(topic, payload)`` with explicit
backpressure against the topic's dissemination buffer, and
``service.subscribe(topic)`` returning a bounded async iterator of
totally-ordered events.
"""

from __future__ import annotations

import asyncio
import collections
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from ..core.config import EpToConfig
from ..core.errors import MembershipError, ReproError
from ..core.event import Event
from ..pss.base import MembershipDirectory
from ..runtime.node import AsyncEpToNode
from ..stack import build_pss, open_journal, respawn, validate_modes
from ..sync.config import SyncConfig
from .demux import TopicDemux

#: Backpressure threshold: a publish finding the topic's next ball
#: already at this many events blocks (or fails fast) until a round
#: drains it.
MAX_PENDING = 64

#: Buffer bound of a subscription opened without its own ``maxlen``.
QUEUE_DEPTH = 1024


class BackpressureError(ReproError):
    """A non-blocking publish found the topic's dissemination buffer
    full (``publish(..., wait=False)`` with the next ball already at
    :data:`MAX_PENDING` events)."""


@dataclass(slots=True)
class ServiceStats:
    """Per-host service counters (all topics combined)."""

    published: int = 0
    #: publishes that had to wait at least one round for buffer space.
    publish_blocked: int = 0
    #: non-blocking publishes refused with :class:`BackpressureError`.
    publish_rejected: int = 0
    delivered: int = 0
    #: events dropped from a subscription whose consumer fell behind.
    subscriber_lagged: int = 0


class Subscription:
    """A bounded, totally-ordered event feed for one topic.

    Async-iterate it (``async for event in sub:``) or call
    :meth:`close` to detach. The buffer holds at most ``maxlen``
    undelivered events; when the consumer falls behind, *new* events
    are dropped (and counted in
    :attr:`ServiceStats.subscriber_lagged`) rather than blocking the
    round loop — a lagging reader must catch the gap up from the
    topic's journal, never by stalling dissemination.
    """

    def __init__(self, service: "BroadcastService", topic: int, maxlen: int) -> None:
        self._service = service
        self.topic = topic
        self.maxlen = maxlen
        self._buffer: collections.deque[Event] = collections.deque()
        self._ready = asyncio.Event()
        self._closed = False

    def _push(self, event: Event) -> bool:
        """Offer one event; ``False`` means the buffer was full and the
        event was dropped."""
        if self._closed:
            return True
        if len(self._buffer) >= self.maxlen:
            return False
        self._buffer.append(event)
        self._ready.set()
        return True

    def close(self) -> None:
        """Detach from the topic; pending buffered events still drain."""
        if not self._closed:
            self._closed = True
            self._ready.set()
            self._service._drop_subscription(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __aiter__(self) -> AsyncIterator[Event]:
        return self

    async def __anext__(self) -> Event:
        while True:
            if self._buffer:
                return self._buffer.popleft()
            if self._closed:
                raise StopAsyncIteration
            self._ready.clear()
            await self._ready.wait()


@dataclass
class TopicState:
    """Everything one host keeps per subscribed topic."""

    topic: int
    node: AsyncEpToNode
    directory: MembershipDirectory
    #: events delivered in total order since this host first subscribed
    #: (across respawns; see :attr:`restart_indices`).
    deliveries: List[Event] = field(default_factory=list)
    #: indices into :attr:`deliveries` at which each respawn began.
    restart_indices: List[int] = field(default_factory=list)
    subscriptions: List[Subscription] = field(default_factory=list)
    on_deliver: Optional[Callable[[Event], None]] = None
    recoveries: List[Any] = field(default_factory=list)
    #: optional state machine handed to recovery at respawn, so the
    #: durable snapshot + log suffix restore it in place (tenants —
    #: :class:`~repro.service.tenant.ServiceReplica` — set this).
    machine: Any = None
    #: optional tenant hook run before recovery reads the journal; it
    #: must reset :attr:`machine` to its blank state (a real process
    #: restart loses memory — recovery replays onto a cold machine).
    on_pre_recover: Optional[Callable[[], None]] = None
    #: optional tenant hook invoked with each RecoveredState, after the
    #: machine is restored and *before* catch-up replays further events.
    on_recover: Optional[Callable[[Any], None]] = None
    #: re-created each round; publishers blocked on backpressure await
    #: the current event and re-check after the round drains the buffer.
    round_drained: asyncio.Event = field(default_factory=asyncio.Event)
    #: per-topic round interval override in milliseconds (``None`` =
    #: the host config's interval). Topics sharing an interval still
    #: tick in one loop iteration, so their fan-outs keep coalescing
    #: into shared envelopes; a topic on its own cadence trades that
    #: batching for the cadence.
    round_interval: Optional[int] = None
    #: rounds ticked on this topic (drives tests and metrics).
    rounds_ticked: int = 0


class BroadcastService:
    """One host of the multi-topic broadcast service.

    Args:
        host_id: This host's fabric node id (one per fabric endpoint).
        config: EpTO configuration shared by every topic engine
            (``round_interval`` in milliseconds, as in the asyncio
            runtime).
        network: The shared fabric —
            :class:`~repro.runtime.transport.AsyncNetwork` or
            :class:`~repro.runtime.udp.UdpNetwork` (open this host's
            socket before :meth:`start`). The service registers exactly
            one handler/socket regardless of topic count.
        directories: Shared ``topic -> MembershipDirectory`` map. Hosts
            of one cluster must share this dict so each topic's PSS
            sees its co-subscribers; pass the same object to every
            host.
        storage_dir: Optional per-host durable root; topic journals
            live under ``storage_dir/topic-<id>/``.
        sync: Optional anti-entropy configuration applied to every
            journaled topic (requires ``storage_dir``).
        expected_size: Per-topic system-size hint forwarded to engines.
        seed: Base seed for this host's randomness.
    """

    def __init__(
        self,
        host_id: int,
        config: EpToConfig,
        network: Any,
        directories: Dict[int, MembershipDirectory] | None = None,
        storage_dir: Union[str, Path, None] = None,
        storage_fsync: str = "rotate",
        sync: Optional[SyncConfig] = None,
        expected_size: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        validate_modes(config, sync, storage_dir is not None, expected_size)
        self.host_id = host_id
        self.config = config
        self.network = network
        self.directories = directories if directories is not None else {}
        self.storage_dir = Path(storage_dir) if storage_dir is not None else None
        self.storage_fsync = storage_fsync
        self.sync = sync
        self.expected_size = expected_size
        self.seed = seed
        self.stats = ServiceStats()
        self.topics: Dict[int, TopicState] = {}
        self.demux = TopicDemux(network, host_id, seed=seed)
        # Where in a round interval this host's rounds fall, as a
        # fraction: hosts started in one instant (start_all) would
        # otherwise share a phase, and how they then interleave would
        # be set by how fast each tick runs — latency as a function of
        # CPU speed. Seeded per host, so a respawn keeps it.
        self._phase = random.Random(f"{seed}:phase:{host_id}").random()
        self._round_timer: Optional[asyncio.TimerHandle] = None
        # Per-topic absolute due times of the round timer (see
        # _arm_round_timer); rebuilt by every start().
        self._next_due: Dict[int, float] = {}
        self._crashed = False
        # A fabric teardown (UdpNetwork.close()) aborts the round timer
        # *before* sockets close, so no round runs against a dead
        # socket.
        add_listener = getattr(network, "add_close_listener", None)
        if add_listener is not None:
            add_listener(self.abort)

    # ------------------------------------------------------------------
    # Topic lifecycle
    # ------------------------------------------------------------------

    def open_topic(
        self,
        topic: int,
        on_deliver: Callable[[Event], None] | None = None,
        round_interval: Optional[int] = None,
    ) -> TopicState:
        """Join *topic*: build its EpTO engine over this host's shared
        endpoint (and its journal, when the host is durable).

        ``round_interval`` (milliseconds) puts the topic on its own
        round cadence instead of the host config's — a chatty low-
        latency topic and a bulk slow topic can share one host without
        sharing a clock. Topics left on the default keep ticking in the
        same loop iteration, preserving cross-topic envelope batching.
        """
        if topic in self.topics:
            raise MembershipError(f"host {self.host_id} already opened topic {topic}")
        if round_interval is not None and round_interval <= 0:
            raise MembershipError(
                f"round_interval must be positive, got {round_interval}"
            )
        directory = self.directories.setdefault(topic, MembershipDirectory())
        journal = None
        if self.storage_dir is not None:
            journal = open_journal(self.topic_storage_dir(topic), self.storage_fsync)
        # A running round timer needs no notification — it reads the
        # topic map afresh every tick, so the new topic joins next round.
        state = self._provision(topic, directory, journal, on_deliver)
        state.round_interval = round_interval
        return state

    async def close_topic(self, topic: int) -> None:
        """Leave *topic* gracefully: stop its engine, close its
        subscriptions and journal, free its channel."""
        state = self.topics.pop(topic, None)
        if state is None:
            raise MembershipError(f"host {self.host_id} has not opened topic {topic}")
        state.node.network.unregister(self.host_id)
        state.directory.remove(self.host_id)
        for subscription in list(state.subscriptions):
            subscription.close()
        journal = state.node.journal
        if journal is not None and not journal.closed:
            journal.close()
        self.demux.close_topic(topic)
        state.round_drained.set()

    def topic_storage_dir(self, topic: int) -> Path:
        """The durable directory of *topic* on this host."""
        if self.storage_dir is None:
            raise MembershipError("service has no storage_dir configured")
        return self.storage_dir / f"topic-{topic}"

    def _provision(
        self,
        topic: int,
        directory: MembershipDirectory,
        journal: Any,
        on_deliver: Callable[[Event], None] | None,
        state: TopicState | None = None,
    ) -> TopicState:
        """Build a topic engine (fresh subscribe or respawn) over the
        topic's channel; ``state`` is reused across respawns."""
        channel = self.demux.channel(topic)
        pss = build_pss(
            "uniform",
            self.host_id,
            self.config.fanout,
            directory,
            channel,
            random.Random(f"{self.seed}:service-pss:{self.host_id}:{topic}"),
        )

        def record(event: Event) -> None:
            current = self.topics.get(topic)
            if current is None:
                return
            current.deliveries.append(event)
            self.stats.delivered += 1
            for subscription in current.subscriptions:
                if not subscription._push(event):
                    self.stats.subscriber_lagged += 1
            if current.on_deliver is not None:
                current.on_deliver(event)

        node = AsyncEpToNode(
            node_id=self.host_id,
            config=self.config,
            network=channel,
            peer_sampler=pss,
            on_deliver=record,
            seed=self.seed * 1_000_003 + topic,
            system_size_hint=self.expected_size,
            journal=journal,
            sync_config=self.sync,
        )
        if state is None:
            state = TopicState(topic=topic, node=node, directory=directory)
            state.on_deliver = on_deliver
            self.topics[topic] = state
        else:
            state.node = node
        directory.add(self.host_id)
        return state

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    async def publish(
        self, topic: int, payload: Any = None, *, wait: bool = True
    ) -> Event:
        """EpTO-broadcast *payload* on *topic*, under backpressure.

        When the topic's next ball already holds :data:`MAX_PENDING` events
        the publish waits for rounds to drain the buffer (``wait=True``,
        the default) or raises :class:`BackpressureError` immediately
        (``wait=False``) — the buffer is what the next round's ball
        carries, so an unbounded buffer would mean unbounded datagrams.
        A topic held after a respawn counts as full: its rounds ship
        nothing until the gate opens, and an event stamped before then
        would reach peers too late to be ordered (docs/SYNC.md).
        """
        state = self._state(topic)
        while state.node.stack.held or (
            state.node.process.dissemination.next_ball_size >= MAX_PENDING
        ):
            if not wait:
                self.stats.publish_rejected += 1
                raise BackpressureError(
                    f"topic {topic} on host {self.host_id} is held after a respawn "
                    f"or has {MAX_PENDING} events pending dissemination"
                )
            self.stats.publish_blocked += 1
            await state.round_drained.wait()
            state = self._state(topic)  # may have respawned while blocked
        self.stats.published += 1
        return state.node.broadcast(payload)

    def subscribe(self, topic: int, maxlen: int | None = None) -> Subscription:
        """A new bounded async iterator over *topic*'s total order
        (deliveries from this point on), buffering up to *maxlen* events
        (default :data:`QUEUE_DEPTH`)."""
        state = self._state(topic)
        subscription = Subscription(
            self, topic, maxlen if maxlen is not None else QUEUE_DEPTH
        )
        state.subscriptions.append(subscription)
        return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        state = self.topics.get(subscription.topic)
        if state is not None and subscription in state.subscriptions:
            state.subscriptions.remove(subscription)

    def deliveries(self, topic: int) -> List[Event]:
        """Events delivered on *topic*, in total order."""
        return self._state(topic).deliveries

    def channel(self, topic: int):
        """The topic's demux channel (per-topic fault injection)."""
        return self.demux.channel(topic)

    def _state(self, topic: int) -> TopicState:
        state = self.topics.get(topic)
        if state is None:
            raise MembershipError(
                f"host {self.host_id} has not opened topic {topic}"
            )
        return state

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the single per-host round timer ticking every topic."""
        self._crashed = False
        if self._round_timer is None:
            self._next_due = {}
            self._arm_round_timer()

    @property
    def running(self) -> bool:
        return self._round_timer is not None

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _interval_s(self, state: TopicState) -> float:
        interval = (
            state.round_interval
            if state.round_interval is not None
            else self.config.round_interval
        )
        return interval / 1000.0

    def _arm_round_timer(self) -> None:
        # Per-topic absolute due times: topics on the default interval
        # (scheduled in the same loop iteration) share due times and
        # keep ticking together — cross-topic envelope batching stays
        # intact — while an overridden topic runs its own cadence. The
        # one host timer is set for the earliest of them.
        loop = asyncio.get_running_loop()
        now = loop.time()
        next_due = self._next_due
        for topic in list(next_due):
            if topic not in self.topics:
                del next_due[topic]
        for topic, state in self.topics.items():
            if topic not in next_due:
                next_due[topic] = now + self._phase * self._interval_s(state)
        if next_due:
            self._round_timer = loop.call_at(
                min(next_due.values()), self._on_round_timer
            )
        else:
            self._round_timer = loop.call_later(
                self.config.round_interval / 1000.0, self._on_round_timer
            )

    def _on_round_timer(self) -> None:
        # A due time advances from the previous *due* time, not from
        # when the tick happened to run, so neither a slow tick nor a
        # late wake-up stretches the period (the paper assumes rounds
        # of equal duration; Lemma 5 charges any spread to TTL).
        timer = self._round_timer
        now = asyncio.get_running_loop().time()
        next_due = self._next_due
        due = [topic for topic, at in next_due.items() if at <= now]
        if due:
            try:
                self._tick_topics(due)
            except Exception:
                self._round_timer = None  # the host's rounds stop here
                raise
        for topic in due:
            state = self.topics.get(topic)
            if state is None:
                next_due.pop(topic, None)
                continue
            interval = self._interval_s(state)
            at = next_due[topic] + interval
            if at <= now:
                # A stall of a whole interval or more: the rounds it
                # swallowed are skipped, not fired back to back — in
                # whole intervals, so the host keeps its phase. Hosts
                # of one process all wake from one stall in the same
                # instant; re-anchoring at "now" would hand every one
                # of them the same phase.
                at += interval * ((now - at) // interval + 1)
            next_due[topic] = at
        # A tick that aborted, crashed or restarted this host has
        # already cancelled or replaced this timer.
        if self._round_timer is timer:
            self._arm_round_timer()

    def tick(self) -> None:
        """One service round: every topic's EpTO round plus its sync
        round, all in one loop iteration.

        Ticking topics together — instead of one timer per topic —
        is what makes cross-topic batching real: every topic's fan-out
        lands in the demux's pending queue before its end-of-tick
        flush, so one peer receives one envelope carrying all topics'
        balls. (The driver for tests and drills; the round loop ticks
        only the topics whose cadence is due.)
        """
        self._tick_topics(list(self.topics))

    def _tick_topics(self, topics: List[int]) -> None:
        for topic in topics:
            state = self.topics.get(topic)
            if state is None:
                continue
            state.rounds_ticked += 1
            state.node.stack.on_round()
            if state.node.sync_manager is not None:
                state.node.sync_manager.on_round()
            drained = state.round_drained
            state.round_drained = asyncio.Event()
            drained.set()

    def crash(self) -> None:
        """Abrupt host death (fault injection): kill the round timer,
        drop the socket/handler, leave every topic's directory.

        Journals are deliberately *not* closed — a real crash would not
        flush them either; :meth:`respawn` seals and recovers them.
        """
        self.abort()
        self._crashed = True
        for state in self.topics.values():
            state.node.crash()  # unregisters the topic channel handler
            state.directory.remove(self.host_id)
        self.demux.detach()  # drops the fabric inbox (closes a UDP socket)

    def abort(self) -> None:
        """Synchronously cancel the round timer (idempotent).

        This is the fabric's close listener: it runs inside
        ``UdpNetwork.close()`` *before* transports are torn down, so no
        round fires against a closed socket.
        """
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    async def respawn(self) -> None:
        """Bring a crashed host back under the same identity and start
        it: every topic comes back through :func:`repro.stack.respawn`
        (from its own journal, same sequence, held), between the
        tenant's ``on_pre_recover`` and ``on_recover`` hooks; then each
        topic runs its blocking anti-entropy catch-up before the round
        timer restarts.
        """
        if self.running:
            raise MembershipError(f"host {self.host_id} is still running")
        self.demux.attach()
        open_socket = getattr(self.network, "open", None)
        if open_socket is not None:
            await open_socket(self.host_id)
        for topic, state in self.topics.items():
            state.restart_indices.append(len(state.deliveries))
            corpse = state.node
            if self.storage_dir is not None and state.on_pre_recover is not None:
                state.on_pre_recover()
            recovered = respawn(
                self.host_id,
                corpse.stack.issued_sequence,
                lambda journal: self._provision(
                    topic, state.directory, journal, state.on_deliver, state=state
                ).node.stack,
                directory=self.topic_storage_dir(topic) if self.storage_dir else None,
                fsync=self.storage_fsync,
                corpse=corpse.journal,
                machine=state.machine,
            )
            if recovered is not None:
                state.recoveries.append(recovered)
                if state.on_recover is not None:
                    state.on_recover(recovered)
        self._crashed = False
        for state in self.topics.values():
            await state.node.catch_up()
        self.start()

    async def close(self) -> None:
        """Orderly shutdown: cancel the round timer, leave every topic,
        close journals and subscriptions, detach from the fabric."""
        self.abort()
        for topic in list(self.topics):
            await self.close_topic(topic)
        self.demux.detach()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastService(host={self.host_id}, topics={sorted(self.topics)}, "
            f"running={self.running})"
        )
