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
:class:`repro.faults.runtime_injector.AsyncFaultInjector`): every fault
of :class:`repro.fabric.WireFaults`, each defined there once for every
fabric, applied sender-side:

* partitions drop datagrams at send time, and a spike-deferred
  datagram again when its ``sendto`` fires; loss bursts drop at send
  time;
* a corruption window mangles outgoing datagrams with a given
  probability (garbled magic, truncation, or an entry count rewritten
  in a form the codec never writes — the mangling is this module's),
  exercising the receiver-side ``dropped_malformed`` defence with real
  bytes on real sockets, in the spirit of update diffusion under
  Byzantine payload corruption (Malkhi et al.);
* a latency spike defers ``sendto`` calls by
  :data:`~repro.fabric.DEFAULT_SPIKE_BASE` times its factor — real
  sockets cannot stretch the wire, but a sender-side delay is
  indistinguishable to the receiver, so the full
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
owns a raw non-blocking socket. A datagram out is one ``socket.sendto``
— Algorithm 1 draws a fresh peer sample every round, so a fan-out is K
of them over the one encoded buffer. Inbound, the fabric keeps its raw
sockets in one ``select.epoll`` of its own and the event loop watches
only that descriptor: **one** readiness callback per fabric polls it
and, for each ready socket, reads one datagram with ``recv_into`` into
the fabric's single receive arena and hands the codec a zero-copy
``memoryview`` of it, consumed before the next read (the inner epoll is
level-triggered: a socket that holds more is reported again). Where
``select.epoll`` is missing, or the loop cannot watch a descriptor
(Proactor), the fabric falls back to asyncio datagram endpoints
automatically; ``raw_sockets=False`` forces them (the reference of the
equivalence tests). ``stats.syscalls_send`` / ``stats.syscalls_recv``
count the ``sendto`` and ``recv_into`` calls.
"""

from __future__ import annotations

import asyncio
import errno
import random
import select
import socket
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..auth.authenticator import SignedBall
from ..core.errors import MembershipError
from ..core.event import Ball
from ..fabric import WireFaults
from .codec import (
    AdmittedEntries,
    CodecError,
    CodecVersionError,
    TopicEnvelope,
    count_span,
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
    """A raw non-blocking UDP socket read through its fabric's epoll.

    Replaces the asyncio datagram transport where the fabric can watch
    its sockets itself. Every send is one ``socket.sendto``; every time
    the fabric's readiness callback finds this socket ready it reads one
    datagram into the fabric's receive arena and hands it on as a
    zero-copy ``memoryview`` valid only for the duration of the handler
    call. Exposes the slice of the transport surface the fabric and its
    tests rely on: ``sendto`` / ``is_closing`` / ``close``.
    """

    is_raw = True

    def __init__(
        self, network: "UdpNetwork", node_id: int, sock: socket.socket
    ) -> None:
        self._network = network
        self._node_id = node_id
        self._sock = sock
        self._fd = sock.fileno()
        self._closed = False
        network._watch(self._fd, self._on_readable)

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
        # One datagram per readiness. Nine in ten find exactly one
        # under EpTO's traffic (docs/PERFORMANCE.md *Wire path*), so a
        # drain loop mostly buys a second syscall that reads EAGAIN;
        # the fabric's epoll is level-triggered, and a socket that
        # holds more is reported again.
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
        # Out of the epoll before the descriptor is freed: a closed fd
        # cannot be unregistered, and its number may be reused at once.
        self._network._unwatch(self._fd)
        self._sock.close()


def _garble_magic(datagram: bytes, rng: random.Random) -> bytes:
    """Instant decode rejection."""
    return b"XX" + datagram[2:]


def _truncate(datagram: bytes, rng: random.Random) -> bytes:
    """A datagram cut short in transit: every count it carries now
    promises more than the bytes left."""
    return datagram[: rng.randrange(1, len(datagram))]


def _non_minimal_count(datagram: bytes, rng: random.Random) -> bytes:
    """The header's count, same value, rewritten one byte longer: its
    last byte given a continuation bit and a zero byte after it. A
    varint has one minimal form and decode refuses any other."""
    _, end = count_span(datagram)
    return datagram[: end - 1] + bytes((datagram[end - 1] | 0x80, 0)) + datagram[end:]


#: The ways :meth:`UdpNetwork.set_corruption` mangles a datagram, each
#: ``(datagram, rng) -> bytes`` that decode must refuse.
_CORRUPTIONS = (_garble_magic, _truncate, _non_minimal_count)


class UdpNetwork(WireFaults):
    """Loopback UDP fabric hosting any number of in-process nodes.

    Args:
        host: Interface to bind (default loopback).
        seed: Seed for the fault-injection randomness (loss bursts,
            corruption, latency-spike jitter).
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
        raw_sockets: ``True`` (default) binds raw non-blocking sockets,
            falling back to asyncio endpoints on loops that cannot watch
            file descriptors. ``False`` forces the asyncio datagram
            endpoints (the equivalence reference).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        seed: int = 0,
        authenticator=None,
        raw_sockets: bool = True,
    ) -> None:
        super().__init__()
        self.host = host
        self.stats = UdpStats()
        self._raw_sockets = raw_sockets
        self._guard: Optional[BallGuard] = None
        if authenticator:
            from ..auth.guard import BallGuard

            self._guard = BallGuard(authenticator)
        self._handlers: Dict[int, UdpMessageHandler] = {}
        # What each registered node has admitted so far: decode reuses
        # the objects of a byte-identical repeat and the guard skips its
        # HMAC. One table per *node*, living exactly as long as its
        # inbox — a respawned node starts cold, and nodes sharing this
        # fabric in one process share nothing a deployment of one node
        # per process would not.
        self._admitted: Dict[int, AdmittedEntries] = {}
        # Callbacks run at the top of close(), before any socket dies:
        # layers stacked on the fabric (the multi-topic service) use
        # this to cancel their round timers first — see docs/SERVICE.md.
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
        # The raw sockets' own epoll, the one descriptor the loop
        # watches for all of them (created by the first raw open), and
        # each watched fd's read callback.
        self._epoll: Optional[Any] = None
        self._poll_loop: Optional[asyncio.AbstractEventLoop] = None
        self._readers: Dict[int, Callable[[], None]] = {}

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
        if not getattr(endpoint, "is_raw", False) or not self._fault_free(
            asyncio.get_running_loop().time()
        ):
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
        if self._burst_drops(now):
            self.stats.dropped_burst += 1
            return None
        payload: Any = datagram
        if self._corrupts(now):
            payload = self._corrupt(datagram)
            self.stats.corrupted += 1
        delay = self._send_delay(now)
        if delay > 0.0:
            # The pooled encode buffer will be overwritten long before
            # the timer fires.
            self.stats.delayed += 1
            loop.call_later(
                delay, self._sendto_later, src, dst, bytes(payload), address
            )
            return None
        return payload, address

    def _transmit(self, endpoint, payload, address) -> None:
        """Hand one datagram to *endpoint*, keeping the syscall and
        byte counters honest for both endpoint flavors."""
        endpoint.sendto(payload, address)
        if not getattr(endpoint, "is_raw", False):
            self.stats.syscalls_send += 1
            self.stats.bytes_sent += len(payload)

    def _sendto_later(self, src: int, dst: int, datagram: bytes, address) -> None:
        """Fire a delayed send; a partition may have formed or the
        sender died meanwhile."""
        if self._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return
        endpoint = self._transports.get(src)
        if endpoint is None or endpoint.is_closing():
            self.stats.dropped_unopened += 1
            return
        self._transmit(endpoint, datagram, address)

    def _corrupt(self, datagram) -> bytes:
        """Mangle a copy of *datagram* so the receiving codec must
        reject it; the pooled source buffer is never touched."""
        corrupt = _CORRUPTIONS[self._rng.randrange(len(_CORRUPTIONS))]
        return corrupt(bytes(datagram), self._rng)

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
        """Bind a raw socket, or ``None`` where the fabric cannot watch
        its own sockets (asyncio endpoints then serve the whole run)."""
        if self._poll_loop is not loop and not self._watch_epoll(loop):
            self._raw_sockets = False
            return None
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
            return _RawEndpoint(self, node_id, sock)
        except OSError:
            sock.close()
            raise

    def _watch_epoll(self, loop) -> bool:
        """Have *loop* watch the fabric's epoll (created on first use);
        ``False`` without ``select.epoll`` or on a loop that cannot
        watch a descriptor (Proactor)."""
        epoll = self._epoll
        if epoll is None:
            epoll_class = getattr(select, "epoll", None)
            if epoll_class is None:  # pragma: no cover - not Linux
                return False
            epoll = epoll_class()
        try:
            loop.add_reader(epoll.fileno(), self._on_ready)
        except NotImplementedError:
            if self._epoll is None:
                epoll.close()
            return False
        self._epoll, self._poll_loop = epoll, loop
        return True

    def _watch(self, fd: int, on_readable: Callable[[], None]) -> None:
        self._epoll.register(fd, select.EPOLLIN)  # type: ignore[union-attr]
        self._readers[fd] = on_readable

    def _unwatch(self, fd: int) -> None:
        self._readers.pop(fd, None)
        if self._epoll is not None:
            self._epoll.unregister(fd)

    def _on_ready(self) -> None:
        """The fabric's one readiness callback: one read for each raw
        socket ready now. A socket closed by an earlier handler of the
        same batch is no longer in :attr:`_readers`, and its endpoint
        tests ``_closed`` before reading anyway."""
        readers = self._readers
        for fd, _ in self._epoll.poll(0):  # type: ignore[union-attr]
            on_readable = readers.get(fd)
            if on_readable is not None:
                on_readable()

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
        service's round timer before any socket closes, and no round
        fires against a dead socket. Listeners run once and are then
        forgotten.
        """
        self._close_listeners.append(callback)

    async def close(self) -> None:
        """Close every socket and forget every inbox.

        Close listeners (stacked layers such as the multi-topic service)
        run first, so their timers are cancelled before any socket
        closes; then the sockets, and the epoll that watched them, are
        closed. After ``close()``
        the fabric is inert: stale node ids can be re-registered
        without collisions, and late sends are counted as
        ``dropped_unopened``.
        """
        listeners, self._close_listeners = self._close_listeners, []
        for callback in listeners:
            callback()
        for node_id in list(self._transports):
            self._transports.pop(node_id).close()
        if self._epoll is not None:
            try:
                self._poll_loop.remove_reader(self._epoll.fileno())  # type: ignore[union-attr]
            except (OSError, ValueError, RuntimeError):  # pragma: no cover - loop closed
                pass
            self._epoll.close()
            self._epoll = self._poll_loop = None
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
