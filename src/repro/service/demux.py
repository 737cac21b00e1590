"""Topic demultiplexing over one shared transport endpoint.

One host of the multi-topic broadcast service owns exactly one inbox on
the underlying fabric (one UDP socket on
:class:`~repro.runtime.udp.UdpNetwork`, one handler on the in-memory
:class:`~repro.runtime.transport.AsyncNetwork`). The
:class:`TopicDemux` registered there splits that single endpoint into
any number of :class:`TopicChannel` objects, each exposing the familiar
``register`` / ``unregister`` / ``send`` / ``send_many`` network
surface — so a per-topic :class:`~repro.runtime.node.AsyncEpToNode`
(and its Cyclon or anti-entropy traffic) runs over a shared socket
without knowing it.

Cross-topic batching: outgoing frames are not shipped one by one.
``send`` enqueues ``(topic, sender, message)`` for its destination and
schedules one flush per event-loop tick (``call_soon``); the flush
packs every destination's pending frames into as few
:class:`~repro.runtime.codec.TopicEnvelope` datagrams as fit the
:data:`~repro.runtime.codec.MAX_DATAGRAM` cap. Because the service
ticks all of a host's topics from one round timer, a round's balls for
*every* topic to the same peer coalesce into one datagram.

A message is encoded once per flush. The bytes that size a frame are
the bytes every envelope carrying it is assembled from
(:func:`~repro.runtime.codec.assemble_envelope`), and destinations that
were handed the very same frames — every peer of a round, when the
fan-out reaches all of them — share one assembled envelope; the bundle
goes to the fabric through
:meth:`~repro.runtime.udp.UdpNetwork.send_bundle` as bytes, one
``sendto`` per destination. The ``svc_topics`` workload of
``benchmarks/e2e`` measures the packing as
``service.demux.frames_per_envelope``.

Per-topic fault surface: a channel is a fabric of its own to a fault
schedule. It inherits :class:`repro.fabric.Partitions` and
:class:`repro.fabric.LossBursts` — the very rules every other fabric
applies — so a topic can be partitioned or put under a loss burst
*independently of other topics on the same socket*: the scenario
``scenarios/multi_topic_drill.json`` partitions one topic's publisher
while a second topic on the very same hosts stays clean. Checks run at
enqueue time (sender side), and a channel's burst draws from its
demux's seeded RNG.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import MembershipError
from ..fabric import LossBursts, Partitions
from ..runtime import codec
from ..runtime.codec import CodecError, MAX_DATAGRAM, TopicEnvelope

#: Inbox callback: ``handler(src, message)`` — what a channel delivers
#: to its registered node, identical to the fabric-level contract.
ChannelHandler = Callable[[int, Any], None]

#: The outer header's bytes, reserved before the envelope's frame count
#: is known: the header's bound, so an envelope never crosses the cap.
_ENVELOPE_OVERHEAD = codec.HEADER_SIZE


@dataclass(slots=True)
class DemuxStats:
    """Counters for one host's demux layer.

    ``frames_sent`` against ``envelopes_sent`` is the cross-topic
    batching factor; ``dropped_unknown_topic`` counts well-formed
    frames for topics this host has not opened (or has closed) —
    expected during staggered topic rollout, never an error.
    """

    frames_sent: int = 0
    envelopes_sent: int = 0
    frames_delivered: int = 0
    envelopes_received: int = 0
    dropped_unknown_topic: int = 0
    dropped_partition: int = 0
    dropped_burst: int = 0
    dropped_unencodable: int = 0
    dropped_closed: int = 0
    non_envelope_received: int = 0


class TopicChannel(Partitions, LossBursts):
    """One topic's view of the shared endpoint.

    Implements the network surface :class:`~repro.runtime.node.AsyncEpToNode`
    consumes (``register`` / ``unregister`` / ``is_registered`` /
    ``send`` / ``send_many``), routing everything through the owning
    :class:`TopicDemux`. At most one node — the hosting process — may
    register; the node id must be the demux's host id, since the topic
    engine *is* the host's presence on that topic.
    """

    def __init__(self, demux: "TopicDemux", topic: int) -> None:
        super().__init__()
        self.topic = topic
        self._demux = demux
        self._rng = demux._rng
        self.handler: Optional[ChannelHandler] = None
        self._handler_id: Optional[int] = None

    # -- network surface -------------------------------------------------

    def register(self, node_id: int, handler: ChannelHandler) -> None:
        if node_id != self._demux.host_id:
            raise MembershipError(
                f"channel for topic {self.topic} belongs to host "
                f"{self._demux.host_id}, not node {node_id}"
            )
        if self.handler is not None:
            raise MembershipError(
                f"topic {self.topic} already has a registered engine"
            )
        self.handler = handler
        self._handler_id = node_id

    def unregister(self, node_id: int) -> None:
        if node_id == self._handler_id:
            self.handler = None
            self._handler_id = None

    def is_registered(self, node_id: int) -> bool:
        return node_id == self._handler_id and self.handler is not None

    def send(self, src: int, dst: int, message: Any) -> None:
        self._demux.enqueue(self, dst, (self.topic, src, message))

    def send_many(self, src: int, dsts, message: Any) -> None:
        # One frame object for every destination: the flush gives
        # destinations holding the very same frames one shared
        # envelope, preserving the encode-once fan-out economics
        # through the demux.
        frame = (self.topic, src, message)
        for dst in dsts:
            self._demux.enqueue(self, dst, frame)


class TopicDemux:
    """One host's frame router over a shared fabric endpoint.

    Args:
        network: Any fabric with the ``register`` / ``unregister`` /
            ``send`` surface. One that has
            :meth:`~repro.runtime.udp.UdpNetwork.send_bundle` puts bytes
            on a wire and is handed assembled envelopes; any other
            (:class:`~repro.runtime.transport.AsyncNetwork`) receives
            :class:`~repro.runtime.codec.TopicEnvelope` objects.
        host_id: This host's fabric node id — the id envelopes are
            sent from and received at.
        seed: Seed for the per-topic fault randomness.
    """

    def __init__(self, network: Any, host_id: int, seed: int = 0) -> None:
        self.network = network
        self.host_id = host_id
        self.stats = DemuxStats()
        self.channels: Dict[int, TopicChannel] = {}
        self._pending: Dict[int, List[Tuple[int, int, Any]]] = {}
        self._flush_scheduled = False
        self._attached = False
        self._closed = False
        self._rng = random.Random(f"{seed}:demux:{host_id}")
        self.attach()

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> None:
        """Register this host's inbox with the fabric (idempotent)."""
        if not self._attached:
            self.network.register(self.host_id, self._on_message)
            self._attached = True
            self._closed = False

    def detach(self) -> None:
        """Drop the fabric inbox (host crash or shutdown); pending
        unflushed frames are discarded like bytes in a dead socket."""
        if self._attached:
            self.network.unregister(self.host_id)
            self._attached = False
        self._closed = True
        self._pending.clear()

    def channel(self, topic: int) -> TopicChannel:
        """The channel for *topic*, created on first use."""
        if not 0 <= topic <= codec.MAX_TOPIC_ID:
            raise MembershipError(
                f"topic id {topic} is outside the u32 wire range"
            )
        existing = self.channels.get(topic)
        if existing is None:
            existing = self.channels[topic] = TopicChannel(self, topic)
        return existing

    def close_topic(self, topic: int) -> None:
        """Forget *topic*; later frames for it count as unknown."""
        self.channels.pop(topic, None)

    # -- outbound --------------------------------------------------------

    def enqueue(
        self, channel: TopicChannel, dst: int, frame: Tuple[int, int, Any]
    ) -> None:
        """Queue one ``(topic, sender, message)`` frame for *dst*'s
        next flush, applying the topic's fault surface sender-side."""
        if self._closed:
            self.stats.dropped_closed += 1
            return
        self.stats.frames_sent += 1
        if channel._crosses_partition(frame[1], dst):
            self.stats.dropped_partition += 1
            return
        loop = asyncio.get_running_loop()
        if channel._burst_drops(loop.time()):
            self.stats.dropped_burst += 1
            return
        self._pending.setdefault(dst, []).append(frame)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self.flush)

    def flush(self) -> None:
        """Pack every pending frame into envelopes and hand the bundle
        to the fabric.

        Packing is exact, not estimated: each distinct message is
        encoded once per flush (cached by object identity, so a K-peer
        fan-out of one ball encodes it once) and frames are packed
        greedily until the next one would push the envelope past the
        datagram cap, at which point the envelope is cut and a new one
        begun. Destinations holding the very same frame objects (what
        ``send_many`` enqueues) are packed together and share each
        envelope, assembled from the cached bytes; a destination with
        frames of its own is a group of one. A message that cannot ride
        in any envelope (non-JSON payload, too large for the cap beside
        the envelope's own headers) is dropped here and counted, per
        frame, exactly as the fabric would have counted
        ``dropped_encode``. A frame whose topic was partitioned after
        it was queued is dropped here, as the other fabrics drop a
        message in flight when a partition forms.
        """
        self._flush_scheduled = False
        if self._closed or not self._pending:
            self._pending.clear()
            return
        pending, self._pending = self._pending, {}
        for channel in self.channels.values():
            if channel._partitioned:
                self._drop_partitioned(pending)
                break
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for dst, frames in pending.items():
            groups.setdefault(tuple(map(id, frames)), []).append(dst)
        # (sender, id(message)) -> (datagram, payload bytes), or None
        # for a message no envelope can carry.
        encoded: Dict[Tuple[int, int], Optional[Tuple[bytes, int]]] = {}
        bundle: List[Tuple[List[int], Any]] = []
        for dsts in groups.values():
            packed: List[Tuple[Tuple[int, int, Any], Tuple[bytes, int]]] = []
            size = _ENVELOPE_OVERHEAD
            for frame in pending[dsts[0]]:
                _, sender, message = frame
                key = (sender, id(message))
                if key not in encoded:
                    encoded[key] = self._encode_frame(sender, message)
                inner = encoded[key]
                if inner is None:
                    self.stats.dropped_unencodable += len(dsts)
                    continue
                frame_size = codec.frame_nbytes(frame[0], len(inner[0]))
                if packed and size + frame_size > MAX_DATAGRAM:
                    bundle.append((dsts, packed))
                    packed = []
                    size = _ENVELOPE_OVERHEAD
                packed.append((frame, inner))
                size += frame_size
            if packed:
                bundle.append((dsts, packed))
        if not bundle:
            return
        self.stats.envelopes_sent += sum(len(dsts) for dsts, _ in bundle)
        send_bundle = getattr(self.network, "send_bundle", None)
        if send_bundle is None:
            for dsts, packed in bundle:
                envelope = TopicEnvelope(
                    frames=tuple(frame for frame, _ in packed)
                )
                for dst in dsts:
                    self.network.send(self.host_id, dst, envelope)
            return
        items = []
        for dsts, packed in bundle:
            datagram = codec.assemble_envelope(
                self.host_id,
                [(frame[0], inner) for frame, (inner, _) in packed],
            )
            payload_bytes = sum(payload for _, (_, payload) in packed)
            items.append((dsts, datagram, payload_bytes))
        send_bundle(self.host_id, items)

    def _drop_partitioned(self, pending: Dict[int, List[Tuple[int, int, Any]]]) -> None:
        """Take out of *pending* every frame its topic's partition now
        stops, counted in ``dropped_partition``."""
        channels = self.channels
        for dst, frames in list(pending.items()):
            kept = []
            for frame in frames:
                channel = channels.get(frame[0])
                if channel is not None and channel._crosses_partition(frame[1], dst):
                    self.stats.dropped_partition += 1
                else:
                    kept.append(frame)
            if kept:
                pending[dst] = kept
            else:
                del pending[dst]

    @staticmethod
    def _encode_frame(sender: int, message: Any) -> Optional[Tuple[bytes, int]]:
        """The inner datagram of *message* and its payload-byte count,
        or ``None`` when no envelope can carry it."""
        if isinstance(message, TopicEnvelope):
            return None  # envelopes cannot nest
        try:
            datagram = codec.encode(sender, message)
        except CodecError:
            return None
        # Sized for any topic: the result is shared by every topic the
        # message rides on.
        frame_size = codec.frame_nbytes(codec.MAX_TOPIC_ID, len(datagram))
        if _ENVELOPE_OVERHEAD + frame_size > MAX_DATAGRAM:
            return None
        return datagram, codec.last_encode_payload_bytes()

    # -- inbound ---------------------------------------------------------

    def _on_message(self, src: int, message: Any) -> None:
        if not isinstance(message, TopicEnvelope):
            # A single-topic peer (or stray traffic) on a service
            # fabric: counted, never delivered — topic identity is what
            # keeps streams independent.
            self.stats.non_envelope_received += 1
            return
        self.stats.envelopes_received += 1
        for topic, sender, inner in message.frames:
            channel = self.channels.get(topic)
            if channel is None or channel.handler is None:
                self.stats.dropped_unknown_topic += 1
                continue
            self.stats.frames_delivered += 1
            channel.handler(sender, inner)
