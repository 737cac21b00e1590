"""UDP transport: EpTO over real datagram sockets (paper §8.5).

Exposes the same three-method surface as
:class:`~repro.runtime.transport.AsyncNetwork` (``register`` /
``unregister`` / ``send``) so :class:`~repro.runtime.node.AsyncEpToNode`
runs over genuine loopback UDP without modification: each registered
node gets its own socket, messages are serialized with
:mod:`repro.runtime.codec`, and malformed datagrams are counted and
dropped rather than crashing the node — exactly how an internet-facing
gossip process must behave.

Lifecycle: ``register`` records the inbox synchronously (so node
construction stays synchronous); ``await open_all()`` binds the sockets
before starting the nodes; ``await close()`` tears everything down.
Sends to nodes whose socket is not open yet are counted as drops — UDP
gives no delivery guarantee anyway, and EpTO is built for exactly that.

Fault injection surface (driven by
:class:`repro.faults.runtime_injector.AsyncFaultInjector`):

* :meth:`UdpNetwork.set_partition` / :meth:`UdpNetwork.heal_partition`
  drop datagrams crossing partition groups at send time;
* :meth:`UdpNetwork.set_loss_burst` drops outgoing datagrams with a
  given probability for a wall-clock window;
* :meth:`UdpNetwork.set_corruption` mangles outgoing datagrams with a
  given probability (garbled magic, truncation, or a corrupted entry
  count), exercising the receiver-side ``dropped_malformed`` defence
  with real bytes on real sockets, in the spirit of update diffusion
  under Byzantine payload corruption (Malkhi et al.);
* :meth:`UdpNetwork.set_latency_spike` defers ``sendto`` calls for a
  wall-clock window — real sockets cannot stretch the wire, but a
  sender-side delay is indistinguishable to the receiver, so the full
  :class:`~repro.faults.schedule.FaultSchedule` vocabulary runs over
  genuine UDP.

The EpTO fan-out uses :meth:`UdpNetwork.send_many`: one ball is
serialized once per round and the same bytes are shipped to all K
peers (``stats.encoded_datagrams`` vs ``stats.sent`` shows the saving).
Serialization writes into a pooled ``bytearray`` owned by the fabric
(:func:`repro.runtime.codec.encode_into`), so the steady-state send
path allocates no fresh ``bytes`` object per round; only a datagram
that outlives the dispatch — corrupted, or deferred by a latency spike
(fault drills) — takes an owned copy.

Endpoints (docs/PERFORMANCE.md *Wire path*): by default every node
owns a raw non-blocking socket watched by the event loop. A datagram
out is one ``socket.sendto`` — Algorithm 1 draws a fresh peer sample
every round, so a fan-out is K of them over the one encoded buffer —
and a readiness callback reads **one** datagram with ``recv_into`` into
the fabric's single receive arena and hands the codec a zero-copy
``memoryview`` of it, consumed before the next read (readiness is
level-triggered: a socket that holds more calls back). On loops that
cannot watch a file descriptor (Proactor) the fabric falls back to
asyncio datagram endpoints automatically; ``batch=False`` forces them
(the reference of the equivalence tests). ``stats.syscalls_send`` /
``stats.syscalls_recv`` count the ``sendto`` and ``recv_into`` calls.
"""

from __future__ import annotations

import asyncio
import errno
import random
import socket
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..auth.authenticator import SignedBall
from ..core.errors import MembershipError
from ..core.event import Ball
from .codec import (
    COUNT_OFFSET,
    AdmittedEntries,
    CodecError,
    CodecVersionError,
    TopicEnvelope,
    decode,
    encode_into,
    last_encode_payload_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - hints only; built with an authenticator
    from ..auth.guard import BallGuard

#: Inbox callback: ``handler(src, message)``.
UdpMessageHandler = Callable[[int, Any], None]

#: Sentinel returned by admission when an entire datagram is rejected.
_REJECTED = object()


@dataclass(slots=True)
class UdpStats:
    """Counters for the UDP fabric.

    The receive-side rejection counters are split by cause so a drill
    can tell line noise from hostile traffic: ``dropped_malformed``
    (undecodable bytes), ``dropped_bad_version`` (well-framed datagram
    from an incompatible peer), ``dropped_bad_signature`` /
    ``dropped_unknown_key`` / ``dropped_unsigned`` (authentication
    rejections; per *entry* for signed balls, since one datagram can
    mix admitted and forged entries). :attr:`dropped_undecodable` is
    the old single-counter aggregate, kept as a derived property.
    """

    sent: int = 0
    delivered: int = 0
    dropped_unopened: int = 0
    dropped_encode: int = 0
    dropped_malformed: int = 0
    dropped_bad_version: int = 0
    dropped_bad_signature: int = 0
    dropped_unknown_key: int = 0
    dropped_unsigned: int = 0
    dropped_partition: int = 0
    dropped_burst: int = 0
    corrupted: int = 0
    delayed: int = 0
    transport_errors: int = 0
    encoded_datagrams: int = 0
    #: Send-side syscalls: one per ``sendto`` on either endpoint kind
    #: (an approximation on asyncio endpoints when the transport
    #: buffers, which loopback never does).
    syscalls_send: int = 0
    #: Receive-side syscalls: one per ``recv_into`` on raw sockets, one
    #: per wakeup on asyncio endpoints.
    syscalls_recv: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Encode-side byte split: JSON application payload vs everything
    #: else (headers, entry metadata, MACs, watermarks), counted per
    #: datagram times its fan-out at encode time — before the fault
    #: surfaces, so the two sum to the bytes *offered* to the wire.
    #: ``benchmarks/e2e`` reads the pair as
    #: ``runtime.udp.metadata_bytes_share``.
    metadata_bytes_sent: int = 0
    payload_bytes_sent: int = 0

    @property
    def dropped_undecodable(self) -> int:
        """Aggregate of every receive-side rejection — the value the
        pre-split ``dropped_malformed`` counter used to report."""
        return (
            self.dropped_malformed
            + self.dropped_bad_version
            + self.dropped_bad_signature
            + self.dropped_unknown_key
            + self.dropped_unsigned
        )


class _NodeProtocol(asyncio.DatagramProtocol):
    """Per-node datagram protocol: decode and dispatch."""

    def __init__(self, network: "UdpNetwork", node_id: int) -> None:
        self._network = network
        self._node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        self._network.stats.syscalls_recv += 1
        self._network._on_datagram(self._node_id, data)

    def error_received(self, exc) -> None:
        # OS-level send/receive errors (e.g. ICMP port unreachable).
        # UDP gives no guarantees, so these are counted, not raised.
        self._network.stats.transport_errors += 1


#: Kernel receive-buffer request for raw sockets. A burst of
#: n-1 balls at paper scale outruns the default 212 KiB rmem on many
#: distros; the kernel clamps this to ``rmem_max`` silently.
_RECV_SOCKET_BUFFER = 1 << 21


#: Size of the fabric's receive arena: the largest UDP datagram.
_ARENA_SIZE = 65_535


class _RawEndpoint:
    """A raw non-blocking UDP socket driven straight off the event loop.

    Replaces the asyncio datagram transport on loops that can watch a
    file descriptor. Every send is one ``socket.sendto``; every
    readiness callback reads one datagram into the fabric's receive
    arena and hands it on as a zero-copy ``memoryview`` valid only for
    the duration of the handler call. Exposes the slice of the
    transport surface the fabric and its tests rely on: ``sendto`` /
    ``is_closing`` / ``close``.
    """

    is_raw = True

    def __init__(
        self,
        network: "UdpNetwork",
        node_id: int,
        sock: socket.socket,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self._network = network
        self._node_id = node_id
        self._sock = sock
        self._loop = loop
        self._closed = False
        # Raises NotImplementedError on loops without FD watching
        # (Proactor); the caller falls back to asyncio endpoints.
        loop.add_reader(sock.fileno(), self._on_readable)

    def sendto(self, data, address) -> None:
        """Ship one datagram now; kernel refusals are counted drops."""
        self.send_each(data, (address,))

    def send_each(self, data, addresses) -> None:
        """Ship *data* to every address, one ``sendto`` each.

        Drop semantics are UDP's own: a datagram the kernel will not
        take right now (``EAGAIN`` on a non-blocking socket,
        ``ENOBUFS``) is dropped and counted in ``transport_errors``,
        never retried, and the loop goes on to the next address —
        EpTO's relay redundancy is the retransmission (paper §4).
        """
        if self._closed:
            return
        stats = self._network.stats
        sendto = self._sock.sendto
        size = len(data)
        for address in addresses:
            stats.syscalls_send += 1
            try:
                sendto(data, address)
            except (BlockingIOError, InterruptedError):
                stats.transport_errors += 1
            except OSError as exc:
                if exc.errno != errno.ENOBUFS:
                    raise
                stats.transport_errors += 1
            else:
                stats.bytes_sent += size

    def _on_readable(self) -> None:
        # One datagram per callback. Nine wake-ups in ten find exactly
        # one under EpTO's traffic (docs/PERFORMANCE.md *Wire path*),
        # so a drain loop mostly buys a second syscall that reads
        # EAGAIN; readiness is level-triggered, and a socket that
        # holds more calls back.
        if self._closed:
            return
        network = self._network
        network.stats.syscalls_recv += 1
        try:
            size = self._sock.recv_into(network._arena)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:  # pragma: no cover - platform quirk
            if exc.errno == errno.ECONNREFUSED:
                return  # ICMP unreachable bounced back; not data
            raise
        # The view dies with this call: _on_datagram's codec
        # materializes everything that escapes the handler, and the
        # next read — this node's or any other's — reuses the arena.
        network._on_datagram(self._node_id, network._arena_view[:size])

    def is_closing(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.remove_reader(self._sock.fileno())
        except (OSError, ValueError):  # pragma: no cover - loop closed
            pass
        self._sock.close()


#: Base sender-side delay (seconds) a latency spike multiplies when the
#: fabric's own artificial ``latency`` is zero. Real loopback latency
#: is effectively unmeasurable, so spikes need a non-zero unit to
#: stretch; one millisecond is large against loopback and small against
#: any realistic round interval.
DEFAULT_SPIKE_BASE = 0.001


class UdpNetwork:
    """Loopback UDP fabric hosting any number of in-process nodes.

    Args:
        host: Interface to bind (default loopback).
        seed: Seed for the fault-injection randomness (loss bursts,
            corruption, latency jitter).
        latency: Optional artificial sender-side mean delay in seconds
            applied to every outgoing datagram (each send draws a
            uniformly random delay in ``[0.5, 1.5] * latency``). Real
            sockets cannot stretch the wire, but delaying ``sendto``
            is observationally identical to the receiver — this is
            what lets :class:`~repro.faults.schedule.LatencySpike`
            actions run over genuine UDP.
        authenticator: Optional
            :class:`~repro.auth.authenticator.HmacAuthenticator`. When
            set, outgoing balls are sealed and shipped as signed balls
            (codec kind 7) and incoming balls are verified entry by
            entry — forged entries are counted in
            ``dropped_bad_signature`` / ``dropped_unknown_key`` /
            ``dropped_unsigned`` and never reach the node. Plain
            unsigned balls are rejected wholesale on an authenticating
            fabric, and so is a topic envelope that carries a ball in
            any frame. ``None`` (default) keeps the fabric tolerant: it
            still *reads* signed balls from authenticating peers,
            stripping the signatures.
        batch: Which endpoints carry the datagrams (the name dates
            from the syscall-batching tiers this fabric once had).
            ``"auto"`` (default) or ``True`` binds raw non-blocking
            sockets, falling back to asyncio endpoints on loops that
            cannot watch file descriptors. ``False`` forces the asyncio
            datagram endpoints (the equivalence reference). Anything
            else — the former tier names included — raises
            ``ValueError``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        seed: int = 0,
        latency: float = 0.0,
        authenticator=None,
        batch: object = "auto",
    ) -> None:
        self.host = host
        self.latency = float(latency)
        self.stats = UdpStats()
        if batch is False:
            self._raw_sockets = False
        elif batch is True or batch == "auto":
            self._raw_sockets = True
        else:
            raise ValueError(
                f"batch={batch!r}: the sendmmsg/sendmsg/sendto tiers are "
                "gone; pass 'auto' or True (raw sockets, plain sendto) or "
                "False (asyncio endpoints)"
            )
        self._guard: Optional[BallGuard] = None
        if authenticator:
            from ..auth.guard import BallGuard

            self._guard = BallGuard(authenticator)
        self._adversary = None
        self._handlers: Dict[int, UdpMessageHandler] = {}
        # What each registered node has admitted so far: decode reuses
        # the objects of a byte-identical repeat and the guard skips its
        # HMAC. One table per *node*, living exactly as long as its
        # inbox — a respawned node starts cold, and nodes sharing this
        # fabric in one process share nothing a deployment of one node
        # per process would not.
        self._admitted: Dict[int, AdmittedEntries] = {}
        # Callbacks run at the top of close(), before any socket dies:
        # layers stacked on the fabric (the multi-topic service demux)
        # use this to cancel their periodic tasks while the loop can
        # still process the cancellations — see docs/SERVICE.md.
        self._close_listeners: List[Callable[[], None]] = []
        # Endpoint per node: _RawEndpoint on raw sockets, else an
        # asyncio DatagramTransport — both expose sendto/is_closing/
        # close, which is all the fabric (and the test rigs) touch.
        self._transports: Dict[int, Any] = {}
        self._addresses: Dict[int, Tuple[str, int]] = {}
        self._rng = random.Random(seed)
        # Shared encode pool: every outgoing datagram is serialized
        # into this one buffer and fanned out as a read-only view, so
        # the hot path is allocation-free. Any send that outlives the
        # current dispatch (delayed or corrupted datagrams) must take
        # its own copy.
        self._encode_buffer = bytearray()
        # The one receive arena: every raw endpoint reads its next
        # datagram here and decode consumes the view before anything
        # else can read (one event loop, no await in between).
        self._arena = bytearray(_ARENA_SIZE)
        self._arena_view = memoryview(self._arena)
        # Partition: node id -> group label (None group is implicit).
        self._partition: Dict[int, object] = {}
        self._partitioned = False
        # Fault windows, in loop.time() seconds (None = open-ended).
        self._burst_rate = 0.0
        self._burst_until = 0.0
        self._corrupt_rate = 0.0
        self._corrupt_until: Optional[float] = 0.0
        self._spike_factor = 1.0
        self._spike_until = 0.0

    # ------------------------------------------------------------------
    # AsyncNetwork-compatible surface
    # ------------------------------------------------------------------

    def register(self, node_id: int, handler: UdpMessageHandler) -> None:
        """Record *handler* as the inbox of *node_id* (socket bound by
        :meth:`open` / :meth:`open_all`)."""
        if node_id in self._handlers:
            raise MembershipError(f"node {node_id} is already registered")
        self._handlers[node_id] = handler
        self._admitted[node_id] = AdmittedEntries()

    def unregister(self, node_id: int) -> None:
        """Forget *node_id* and close its socket if open."""
        self._handlers.pop(node_id, None)
        self._admitted.pop(node_id, None)
        transport = self._transports.pop(node_id, None)
        self._addresses.pop(node_id, None)
        if transport is not None:
            transport.close()

    def is_registered(self, node_id: int) -> bool:
        """Whether *node_id* currently has an inbox."""
        return node_id in self._handlers

    def send(self, src: int, dst: int, message: Any) -> None:
        """Encode and ship one datagram from *src* to *dst*."""
        try:
            datagram = self._encode(src, self._outbound(src, dst, message))
        except CodecError:
            self.stats.sent += 1
            self.stats.dropped_encode += 1
            return
        self._account_split(len(datagram), last_encode_payload_bytes(), 1)
        self._dispatch(src, dst, datagram)

    def send_many(self, src: int, dsts, message: Any) -> None:
        """Encode *message* once, then ship the same bytes to every id
        in *dsts*.

        This is the encode-once fan-out path: an EpTO round sends one
        identical ball to K peers, so serialization cost is paid once
        per round instead of once per destination. Partitions, loss
        bursts, corruption and latency spikes still apply per
        destination (corruption mangles a per-destination copy — the
        shared buffer is never mutated). A ball from a node under a
        hostile :meth:`set_adversary` behavior loses the optimisation:
        the adversary may ship a *different* mutation to each
        destination, so those sends encode per destination.
        """
        if self._adversary is not None and self._adversary.is_hostile(src):
            for dst in dsts:
                self.send(src, dst, message)
            return
        try:
            datagram = self._encode(src, self._outbound(src, None, message))
        except CodecError:
            for _ in dsts:
                self.stats.sent += 1
                self.stats.dropped_encode += 1
            return
        self._account_split(len(datagram), last_encode_payload_bytes(), len(dsts))
        self._fan_out(src, dsts, datagram)

    def send_bundle(self, src: int, items) -> None:
        """Ship already-encoded datagrams: each of *items* is ``(dsts,
        datagram, payload_bytes)`` — one complete datagram, the ids it
        goes to, and how many of its bytes are application payload.

        The multi-topic service's flush path. The demux has encoded
        every message of the tick once to size its envelopes and
        assembled each envelope from those very bytes
        (:func:`repro.runtime.codec.assemble_envelope`), one per set of
        destinations with the same frames — nothing is left to encode
        here, and the byte split is the one that travelled with the
        inner datagrams. Every destination is one ``sendto``, and
        partitions, bursts, corruption and spikes keep their
        per-datagram semantics, exactly as in :meth:`send_many`.
        """
        stats = self.stats
        for dsts, datagram, payload_bytes in items:
            stats.encoded_datagrams += 1
            self._account_split(len(datagram), payload_bytes, len(dsts))
            self._fan_out(src, dsts, datagram)

    def _fan_out(self, src: int, dsts, datagram) -> None:
        """Ship one encoded *datagram* to every id in *dsts*."""
        endpoint = self._transports.get(src)
        if not getattr(endpoint, "is_raw", False) or not self._fault_free():
            for dst in dsts:
                self._dispatch(src, dst, datagram)
            return
        # With every fault surface idle, routing a destination reduces
        # to an address lookup (and draws nothing from the fault RNG,
        # so seeded runs match the routed path bit for bit).
        stats = self.stats
        stats.sent += len(dsts)
        lookup = self._addresses.get
        addresses = []
        for dst in dsts:
            address = lookup(dst)
            if address is None:
                stats.dropped_unopened += 1
            else:
                addresses.append(address)
        endpoint.send_each(datagram, addresses)

    def _outbound(self, src: int, dst: Optional[int], message: Any) -> Any:
        """Apply adversary transforms and auth sealing to a ball.

        Non-ball messages (cyclon, anti-entropy) pass through — they
        are integrity-checked by their own layers (docs/SECURITY.md).
        The transform runs *before* sealing: a hostile relay mutating
        entries it did not originate cannot obtain MACs for them, which
        is precisely the property the drill asserts.
        """
        if not isinstance(message, Ball):
            return message
        ball = message
        if (
            dst is not None
            and self._adversary is not None
            and self._adversary.is_hostile(src)
        ):
            ball = self._adversary.transform(src, dst, ball)
        if self._guard is None:
            return ball
        self._guard.seal(src, ball)
        return self._guard.attach(ball, self._admitted.get(src))

    def _account_split(
        self, datagram_len: int, payload_bytes: int, copies: int
    ) -> None:
        """Record the metadata/payload byte split of one datagram,
        multiplied by its fan-out (encode-once paths ship the same
        bytes to several destinations)."""
        self.stats.payload_bytes_sent += payload_bytes * copies
        self.stats.metadata_bytes_sent += (datagram_len - payload_bytes) * copies

    def _encode(self, src: int, message: Any) -> memoryview:
        """Serialize one message into the shared pool buffer.

        Returns a read-only view of :attr:`_encode_buffer`, valid until
        the next encode. Safe because :meth:`_dispatch` hands the bytes
        to the kernel (or copies them) synchronously before the next
        message can be encoded.
        """
        datagram = encode_into(src, message, self._encode_buffer)
        self.stats.encoded_datagrams += 1
        return datagram

    def _dispatch(self, src: int, dst: int, datagram: memoryview) -> None:
        """Apply per-destination fault surfaces and ship *datagram*."""
        route = self._route(src, dst, datagram)
        if route is None:
            return
        payload, address = route
        self._transmit(self._transports[src], payload, address)

    def _route(
        self, src: int, dst: int, datagram: memoryview
    ) -> Optional[Tuple[Any, Tuple[str, int]]]:
        """Run one destination through the fault surfaces.

        Returns ``(payload, address)`` for a datagram that should be
        shipped *now* (payload is *datagram* itself unless corruption
        took a mangled copy), or ``None`` when it was dropped or
        deferred — a deferred send keeps its own copy of the bytes and
        reschedules itself via :meth:`_sendto_later`.
        """
        self.stats.sent += 1
        if self._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return None
        if self._transports.get(src) is None:
            self.stats.dropped_unopened += 1
            return None
        address = self._addresses.get(dst)
        if address is None:
            self.stats.dropped_unopened += 1
            return None
        loop = asyncio.get_running_loop()
        now = loop.time()
        if (
            self._burst_rate > 0.0
            and now < self._burst_until
            and self._rng.random() < self._burst_rate
        ):
            self.stats.dropped_burst += 1
            return None
        payload: Any = datagram
        if self._corruption_active() and self._rng.random() < self._corrupt_rate:
            payload = self._corrupt(datagram)
            self.stats.corrupted += 1
        delay = self._send_delay(now)
        if delay > 0.0:
            # The pooled encode buffer will be overwritten long before
            # the timer fires.
            self.stats.delayed += 1
            loop.call_later(
                delay, self._sendto_later, src, bytes(payload), address
            )
            return None
        return payload, address

    def _transmit(self, endpoint, payload, address) -> None:
        """Hand one datagram to *endpoint*, keeping the syscall and
        byte counters honest for both endpoint flavors."""
        if getattr(endpoint, "is_raw", False):
            endpoint.sendto(payload, address)
        else:
            endpoint.sendto(payload, address)
            self.stats.syscalls_send += 1
            self.stats.bytes_sent += len(payload)

    def _fault_free(self) -> bool:
        """Whether every send-side fault surface is idle right now —
        the condition under which routing a destination draws nothing
        from the fault RNG and cannot drop, corrupt, or defer."""
        if self._partitioned or self.latency > 0.0:
            return False
        if self._corruption_active():
            return False
        if self._burst_rate > 0.0 or self._spike_until > 0.0:
            now = asyncio.get_running_loop().time()
            if self._burst_rate > 0.0 and now < self._burst_until:
                return False
            if now < self._spike_until:
                return False
        return True

    def _send_delay(self, now: float) -> float:
        """Sender-side artificial delay for a datagram sent at *now*.

        Returns zero on the default fast path (no artificial latency,
        no active spike). During a spike the base latency — or
        :data:`DEFAULT_SPIKE_BASE` on an otherwise-zero-latency fabric
        — is multiplied by the spike factor and jittered ±50%, matching
        :meth:`repro.runtime.transport.AsyncNetwork.send` semantics.
        """
        latency = self.latency
        if now < self._spike_until:
            latency = (latency or DEFAULT_SPIKE_BASE) * self._spike_factor
        if latency <= 0.0:
            return 0.0
        return latency * self._rng.uniform(0.5, 1.5)

    def _sendto_later(self, src: int, datagram: bytes, address) -> None:
        """Fire a delayed send; the sender may have died meanwhile."""
        endpoint = self._transports.get(src)
        if endpoint is None or endpoint.is_closing():
            self.stats.dropped_unopened += 1
            return
        self._transmit(endpoint, datagram, address)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def set_adversary(self, router) -> None:
        """Install a hostile-behavior router (see
        :class:`repro.faults.byzantine.ByzantineRouter`): balls sent by
        its hostile nodes are transformed per destination before
        encoding, modeling Byzantine relays on real sockets."""
        self._adversary = router

    def clear_adversary(self) -> None:
        """Remove any installed hostile-behavior router."""
        self._adversary = None

    def set_partition(self, groups: Dict[int, object]) -> None:
        """Partition the fabric: datagrams crossing groups are dropped.

        Args:
            groups: Mapping from node id to an arbitrary group label.
                Nodes absent from the mapping share the implicit
                ``None`` group.
        """
        self._partition = dict(groups)
        self._partitioned = True

    def heal_partition(self) -> None:
        """Remove any partition; full connectivity is restored."""
        self._partition = {}
        self._partitioned = False

    def set_loss_burst(self, rate: float, duration: float) -> None:
        """Drop outgoing datagrams with probability *rate* for
        *duration* seconds (counted in ``stats.dropped_burst``)."""
        self._burst_rate = float(rate)
        self._burst_until = asyncio.get_running_loop().time() + duration

    def set_corruption(self, rate: float, duration: float | None = None) -> None:
        """Corrupt outgoing datagrams with probability *rate*.

        Corrupted datagrams still hit the wire — the receiving node's
        codec must reject them (``stats.dropped_malformed``) without
        crashing. *duration* limits the window in seconds; ``None``
        keeps corrupting until :meth:`clear_corruption`.
        """
        self._corrupt_rate = float(rate)
        if duration is None:
            self._corrupt_until = None
        else:
            self._corrupt_until = asyncio.get_running_loop().time() + duration

    def set_latency_spike(self, factor: float, duration: float) -> None:
        """Delay outgoing datagrams for *duration* seconds.

        Sender-side spike: every ``sendto`` in the window is deferred
        by ``latency * factor`` (jittered ±50%), where a zero
        configured latency falls back to :data:`DEFAULT_SPIKE_BASE`.
        This completes the :class:`~repro.faults.schedule.FaultSchedule`
        vocabulary over real sockets — the receiver observes stretched
        delivery times exactly as if the wire itself had slowed.
        """
        self._spike_factor = float(factor)
        self._spike_until = asyncio.get_running_loop().time() + duration

    def clear_corruption(self) -> None:
        """Stop corrupting datagrams."""
        self._corrupt_rate = 0.0
        self._corrupt_until = 0.0

    def _corruption_active(self) -> bool:
        if self._corrupt_rate <= 0.0:
            return False
        if self._corrupt_until is None:
            return True
        return asyncio.get_running_loop().time() < self._corrupt_until

    def _corrupt(self, datagram) -> bytes:
        """Mangle a copy of *datagram* so the receiving codec must
        reject it; the pooled source buffer is never touched."""
        datagram = bytes(datagram)
        mode = self._rng.randrange(3)
        if mode == 0:
            # Garble the magic: instant decode rejection.
            return b"XX" + datagram[2:]
        if mode == 1 and len(datagram) > 1:
            # Truncate: simulates a datagram cut short in transit.
            return datagram[: self._rng.randrange(1, len(datagram))]
        # Flip the entry count high (its most significant byte): the
        # body length no longer matches.
        return datagram[:COUNT_OFFSET] + b"\xff" + datagram[COUNT_OFFSET + 1 :]

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if not self._partitioned:
            return False
        return self._partition.get(src) != self._partition.get(dst)

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------

    async def open(self, node_id: int) -> Tuple[str, int]:
        """Bind *node_id*'s socket on an ephemeral port; returns it."""
        if node_id not in self._handlers:
            raise MembershipError(f"node {node_id} is not registered")
        if node_id in self._transports:
            return self._addresses[node_id]
        loop = asyncio.get_running_loop()
        endpoint = None
        if self._raw_sockets:
            endpoint = self._open_raw(node_id, loop)
        if endpoint is not None:
            address = endpoint._sock.getsockname()[:2]
        else:
            transport, _ = await loop.create_datagram_endpoint(
                lambda: _NodeProtocol(self, node_id),
                local_addr=(self.host, 0),
            )
            endpoint = transport
            address = transport.get_extra_info("sockname")[:2]
        self._transports[node_id] = endpoint
        self._addresses[node_id] = (address[0], address[1])
        return self._addresses[node_id]

    def _open_raw(self, node_id: int, loop) -> Optional[_RawEndpoint]:
        """Bind a raw socket, or ``None`` if this loop cannot watch
        file descriptors (asyncio endpoints then serve the whole run)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, _RECV_SOCKET_BUFFER
            )
        except OSError:  # pragma: no cover - exotic kernel limits
            pass
        try:
            sock.bind((self.host, 0))
            sock.setblocking(False)
            return _RawEndpoint(self, node_id, sock, loop)
        except NotImplementedError:
            # Proactor-style loops have no add_reader; use asyncio
            # endpoints for this and every later socket.
            sock.close()
            self._raw_sockets = False
            return None
        except OSError:
            sock.close()
            raise

    async def open_all(self) -> None:
        """Bind a socket for every registered node."""
        for node_id in list(self._handlers):
            await self.open(node_id)

    def add_close_listener(self, callback: Callable[[], None]) -> None:
        """Run *callback* at the top of :meth:`close`, before any
        socket dies.

        The hook for layers stacked on the fabric — the multi-topic
        service registers its :meth:`~repro.service.BroadcastService.abort`
        here, so closing the fabric under a live service cancels the
        service's periodic tasks first and the final loop tick can
        retire them (no "Task was destroyed but it is pending"
        warnings). Listeners run once and are then forgotten.
        """
        self._close_listeners.append(callback)

    async def close(self) -> None:
        """Close every socket and forget every inbox.

        Close listeners (stacked layers such as the multi-topic service
        demux) run first, so their tasks are cancelled while the loop
        below can still process the cancellations. After ``close()``
        the fabric is inert: stale node ids can be re-registered
        without collisions, and late sends are counted as
        ``dropped_unopened``.
        """
        listeners, self._close_listeners = self._close_listeners, []
        for callback in listeners:
            callback()
        for node_id in list(self._transports):
            self._transports.pop(node_id).close()
        self._addresses.clear()
        self._handlers.clear()
        self._admitted.clear()
        # Give the loop one tick to process the closes.
        await asyncio.sleep(0)

    def address_of(self, node_id: int) -> Optional[Tuple[str, int]]:
        """The (host, port) of *node_id*, if its socket is open."""
        return self._addresses.get(node_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_datagram(self, node_id: int, data) -> None:
        """Decode and admit one inbound datagram.

        *data* may be a ``memoryview`` of the fabric's receive arena
        (raw sockets): it is only valid for the duration of this
        call, and :func:`~repro.runtime.codec.decode` materializes
        everything that reaches the handler.
        """
        self.stats.bytes_received += len(data)
        handler = self._handlers.get(node_id)
        if handler is None:
            return
        table = self._admitted[node_id]
        try:
            sender, message = decode(data, table)
        except CodecVersionError:
            self.stats.dropped_bad_version += 1
            return
        except CodecError:
            self.stats.dropped_malformed += 1
            return
        message = self._admit(message, table)
        if message is _REJECTED:
            return
        self.stats.delivered += 1
        handler(sender, message)

    def _admit(self, message: Any, table: AdmittedEntries) -> Any:
        """Authentication gate between decode and the node's inbox.

        Signed balls are verified entry by entry (the admitted
        sub-ball is delivered; rejections are counted per cause) or —
        with no authenticator configured — accepted with signatures
        stripped. A *plain* ball on an authenticating fabric is
        rejected wholesale: an honest authenticating peer always signs.
        So is a topic envelope with a ball of either kind in a frame:
        the gate verifies no frame, and the service — the only sender
        of envelopes — runs without an authenticator.

        The gate also decides which of the datagram's first sights
        *table* keeps. With no authenticator nothing is verified, so
        all of them; with one, only what the guard verified — a forger
        can neither take a genuine event's slot nor push verified
        records out.
        """
        guard = self._guard
        if guard is None:
            if table.pending:
                table.admit_pending()
            return message.ball if isinstance(message, SignedBall) else message
        if isinstance(message, SignedBall):
            ball, counts = guard.admit_signed(message, table)
            self.stats.dropped_bad_signature += counts.bad_signature
            self.stats.dropped_unknown_key += counts.unknown_key
            self.stats.dropped_unsigned += counts.unsigned
            return ball
        if isinstance(message, Ball) or (
            isinstance(message, TopicEnvelope)
            and any(
                isinstance(frame[2], (Ball, SignedBall)) for frame in message.frames
            )
        ):
            self.stats.dropped_unsigned += 1
            return _REJECTED
        return message
