"""Wire codec for EpTO messages (paper §8.5).

A compact, dependency-free binary encoding for everything EpTO and
Cyclon put on the wire, used by the UDP transport. Deliberately **not**
pickle: decoding untrusted bytes must never execute code, so the format
is fixed-layout structs plus JSON-encoded payloads.

Layout (all integers big-endian):

```
header:   magic "EP" | version u8 | kind u8 | sender i64 | count u32
ball:     count x { ts i64 | source i64 | seq i64 | ttl i32 |
                    payload_len u32 | payload (UTF-8 JSON) }
signed:   count x { ts i64 | source i64 | seq i64 | ttl i32 |
                    epoch u32 | mac_len u8 | mac |
                    payload_len u32 | payload (UTF-8 JSON) }
cyclon:   count x { peer i64 | age i32 }
digest:   flags u8 (bit0 has-last-key, bit1 reply) |
          [ last_key 3 x i64 ] | count x { source i64 | seq i64 }
request:  req_id u32 | max_events u32 | max_bytes u32 |
          flags u8 (bit0 has-after) | [ after 3 x i64 ] |
          count x { source i64 | seq i64 }
chunk:    req_id u32 | flags u8 (bit0 more, bit1 has-peer-last) |
          [ peer_last 3 x i64 ] | checksum u32 |
          count x { ts i64 | source i64 | seq i64 |
                    payload_len u32 | payload (UTF-8 JSON) }
envelope: count x { topic u32 | inner_len u32 |
                    inner (one complete datagram, kinds 1–7, 9–11) }
id_ball:  count x { ts i64 | source i64 | seq i64 | ttl i32 }
pull_req: req_id u32 | count x { source i64 | seq i64 }
pull_resp:req_id u32 | missing u32 |
          count x { ts i64 | source i64 | seq i64 |
                    payload_len u32 | payload (UTF-8 JSON) } |
          missing x { source i64 | seq i64 }
```

``count`` is entries for balls, id-balls and cyclon views, watermark
pairs for digests and requests, events for chunks and pull responses,
ids for pull requests, frames for topic envelopes.

Versioning: kinds 1–6 are header version 1; the signed-ball kind 7 is
header version 2; the multi-topic envelope kind 8 is header version 3
(see :mod:`repro.service`); the lazy-push kinds 9–11 (id-ball,
payload-request, payload-response — :mod:`repro.lazy`) are header
version 4. The decoder accepts all four versions (a version-4 node
reads older traffic unchanged), rejects kind 7 under version 1, kind 8
under versions 1–2 and kinds 9–11 under versions 1–3, and raises the
distinguishable :class:`CodecVersionError` for any other version so
transports can count future-version traffic apart from line noise. ``mac_len == 0`` marks an unsigned entry inside a signed
ball. Each envelope frame wraps one *complete* datagram — its own
header and body, produced by the same per-kind encoders — so every
message the codec can put on the wire can ride inside an envelope
unchanged (signed balls keep their inner version 2); envelopes cannot
nest.

Payloads must be JSON-serializable — the natural constraint for data
crossing process boundaries. Encoded messages are capped at
:data:`MAX_DATAGRAM` bytes so they fit in a UDP datagram; EpTO's
per-round batching keeps balls small at the scales the runtime demo
targets (fragmenting giant balls across datagrams is a transport
concern left out of scope, and flagged loudly instead of silently
truncated).
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..auth.authenticator import EventSignature, SignedBall
from ..core.errors import TransportError
from ..core.event import Ball, BallEntry, Event, make_ball
from ..lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from ..pss.cyclon import CyclonRequest, CyclonResponse
from ..sync.protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
)

#: Largest message the codec will produce (safe single-datagram size).
MAX_DATAGRAM = 60_000

_MAGIC = b"EP"
_VERSION = 1
_VERSION_SIGNED = 2
_VERSION_TOPIC = 3
_VERSION_LAZY = 4
_SUPPORTED_VERSIONS = (_VERSION, _VERSION_SIGNED, _VERSION_TOPIC, _VERSION_LAZY)
_KIND_BALL = 1
_KIND_CYCLON_REQ = 2
_KIND_CYCLON_RESP = 3
_KIND_SYNC_DIGEST = 4
_KIND_SYNC_REQUEST = 5
_KIND_SYNC_CHUNK = 6
_KIND_SIGNED_BALL = 7
_KIND_TOPIC_ENVELOPE = 8
_KIND_ID_BALL = 9
_KIND_PAYLOAD_REQUEST = 10
_KIND_PAYLOAD_RESPONSE = 11
_LAZY_KINDS = (_KIND_ID_BALL, _KIND_PAYLOAD_REQUEST, _KIND_PAYLOAD_RESPONSE)

#: Largest topic id the frame layout can carry (topic is a u32).
MAX_TOPIC_ID = 0xFFFFFFFF

#: Largest MAC the signed-entry layout can carry (mac_len is a u8).
MAX_MAC_LEN = 255

_HEADER = struct.Struct("!2sBBqI")
_BALL_ENTRY = struct.Struct("!qqqiI")
_SIGNED_ENTRY = struct.Struct("!qqqiIB")  # ts, source, seq, ttl, epoch, mac_len
_PAYLOAD_LEN = struct.Struct("!I")
_CYCLON_ENTRY = struct.Struct("!qi")
_ORDER_KEY = struct.Struct("!qqq")
_WATERMARK = struct.Struct("!qq")
_DIGEST_FLAGS = struct.Struct("!B")
_REQUEST_HEAD = struct.Struct("!IIIB")  # req_id, max_events, max_bytes, flags
_CHUNK_HEAD = struct.Struct("!IB")  # req_id, flags
_CHUNK_EVENT = struct.Struct("!qqqI")  # ts, source, seq, payload_len
_CHECKSUM = struct.Struct("!I")
_FRAME_HEAD = struct.Struct("!II")  # topic, inner_len
_ID_ENTRY = struct.Struct("!qqqi")  # ts, source, seq, ttl
_EVENT_ID = struct.Struct("!qq")  # source, seq
_PULL_REQ_HEAD = struct.Struct("!I")  # req_id
_PULL_RESP_HEAD = struct.Struct("!II")  # req_id, missing count


@dataclass(frozen=True)
class TopicEnvelope:
    """A multi-topic bundle: several datagrams bound for one host.

    Each frame is ``(topic, sender, message)`` where *message* is any
    single-topic wire message (kinds 1–7, 9–11). The service layer's demux
    (:mod:`repro.service`) packs the frames every host emits in one
    event-loop tick into as few envelopes as fit the datagram cap, so
    balls for many topics share one ``sendto`` — the cross-topic
    batching the multi-topic service is built around. On a wire fabric
    the demux never builds this object on the way out: it assembles the
    same bytes from frames it already encoded
    (:func:`assemble_envelope`). The envelope
    sender (the outer header's sender field) is the emitting *host*;
    per-frame senders travel in the inner headers.
    """

    frames: Tuple[Tuple[int, int, Any], ...]


#: Everything the codec can carry.
WireMessage = Union[
    Ball,
    SignedBall,
    CyclonRequest,
    CyclonResponse,
    SyncDigest,
    SyncRequest,
    SyncChunk,
    TopicEnvelope,
    IdBall,
    PayloadRequest,
    PayloadResponse,
]


class CodecError(TransportError):
    """Raised on malformed, oversized or incompatible wire data."""


class CodecVersionError(CodecError):
    """A well-framed datagram carried an unsupported header version.

    Distinguished from plain :class:`CodecError` so transports can
    count traffic from incompatible peers (``dropped_bad_version``)
    separately from corrupted datagrams (``dropped_malformed``).
    """


#: Entries one receiver remembers. A ball cannot carry more than
#: ``MAX_DATAGRAM // 36`` (~1.7k) entries, which bounds the events in
#: relay at once; twice that and change keeps every live event resident
#: while a flood of fresh ids can only push out retired ones.
ADMITTED_CAPACITY = 1 << 12


class AdmittedEntries:
    """One receiving node's memo of the ball entries it has admitted.

    An epidemic hands a node each event about K·TTL times. The table
    remembers, per ``(source, seq)`` — plus the topic for an entry that
    arrived inside an envelope frame, since topics reuse ids — the
    payload bytes of the first admitted copy beside the
    :class:`~repro.core.event.Event` (and
    :class:`~repro.auth.authenticator.EventSignature`) decoded from
    them, so :func:`decode` can hand a byte-identical repeat the very
    same objects instead of parsing it again. It is a memo of a pure
    function: a copy whose ``ts``, payload, epoch or MAC bytes differ
    takes the full path every time and never replaces the record.

    Remembering is two-step. ``decode`` only *stages* first sights in
    :attr:`pending` (dropped at the start of the next datagram, so one
    that raised leaves nothing behind); the owner decides what is kept:
    a fabric with no verifier keeps everything staged
    (:meth:`admit_pending`), a verifying one keeps an entry only once
    its MAC checked out (:meth:`remember`), which is also the only way
    a record becomes one that :meth:`holds` vouches for. Oldest records
    go first beyond :data:`ADMITTED_CAPACITY`; an evicted id simply
    takes the full path again.
    """

    __slots__ = ("records", "pending", "hits", "misses")

    def __init__(self) -> None:
        #: key -> ``(payload bytes, event, signature, verified)``.
        self.records: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: first sights of the datagram being (or last) decoded.
        self.pending: Dict[tuple, tuple] = {}
        #: ball entries served from / parsed past the table.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.records)

    def admit_pending(self) -> None:
        """Remember every staged first sight as decoded, unverified."""
        self._keep(self.pending.items())
        self.pending.clear()

    def remember(self, event: Event) -> None:
        """Remember the staged first sight of *event* as verified —
        for the verifier, once the entry's MAC checked out."""
        staged = self.pending.get(event.id)
        if staged is not None and staged[1] is event:
            self._keep([(event.id, staged[:3] + (True,))])

    def holds(self, event: Event, signature: EventSignature) -> bool:
        """Whether these very objects are a verified record: ``decode``
        hands them out again only for byte-identical entries."""
        record = self.records.get(event.id)
        return (
            record is not None
            and record[3]
            and record[1] is event
            and record[2] is signature
        )

    def signature_of(self, event_id) -> Optional[EventSignature]:
        """The verified signature remembered for *event_id*, if any."""
        record = self.records.get(event_id)
        return record[2] if record is not None and record[3] else None

    def _keep(self, items) -> None:
        records = self.records
        for key, record in items:
            if key not in records:  # first admitted content wins
                records[key] = record
        while len(records) > ADMITTED_CAPACITY:
            records.popitem(last=False)


#: Application-payload bytes inside the most recent successful encode,
#: maintained for the transport's metadata-vs-payload byte accounting
#: (see :func:`last_encode_payload_bytes`). Single-threaded event loops
#: make a module-level latch safe; the value is only meaningful
#: immediately after the encode call that produced it.
_last_payload_bytes = 0


def last_encode_payload_bytes() -> int:
    """JSON-payload bytes in the last :func:`encode`/:func:`encode_into`.

    Everything else in that datagram (headers, entry metadata, MACs,
    watermarks) is protocol metadata: ``len(datagram) - payload`` is
    the metadata share. This is what lets :class:`~repro.runtime.udp.
    UdpNetwork` split ``bytes_sent`` into the two classes the lazy-push
    benchmark compares.
    """
    return _last_payload_bytes


def encode(sender: int, message: WireMessage) -> bytes:
    """Serialize *message* from *sender* into a datagram.

    Raises:
        CodecError: If a payload is not JSON-serializable or the
            encoded message exceeds :data:`MAX_DATAGRAM`.
    """
    global _last_payload_bytes
    buffer = bytearray()
    _last_payload_bytes = _encode_into(sender, message, buffer)
    return bytes(buffer)


def encode_into(
    sender: int, message: WireMessage, buffer: bytearray
) -> memoryview:
    """Serialize *message* into *buffer* (cleared first), allocation-free.

    The pooled twin of :func:`encode` for hot send paths: the caller
    owns a reusable ``bytearray`` and receives a read-only view of the
    encoded datagram, valid until the next ``encode_into`` on the same
    buffer. An EpTO round fans one ball out to K peers — with a pooled
    buffer the per-round garbage is zero instead of one fresh ``bytes``
    per round (see :meth:`repro.runtime.udp.UdpNetwork.send_many`).

    Raises:
        CodecError: Same conditions as :func:`encode`; the buffer
            contents are unspecified after a failure.
    """
    global _last_payload_bytes
    del buffer[:]
    _last_payload_bytes = _encode_into(sender, message, buffer)
    return memoryview(buffer).toreadonly()


def _encode_into(sender: int, message: WireMessage, buffer: bytearray) -> int:
    """Encode one datagram into *buffer*; returns its payload bytes."""
    if isinstance(message, TopicEnvelope):
        kind, count = _KIND_TOPIC_ENVELOPE, len(message.frames)
    elif isinstance(message, SignedBall):
        kind, count = _KIND_SIGNED_BALL, len(message.entries)
    elif isinstance(message, CyclonRequest):
        kind, count = _KIND_CYCLON_REQ, len(message.entries)
    elif isinstance(message, CyclonResponse):
        kind, count = _KIND_CYCLON_RESP, len(message.entries)
    elif isinstance(message, SyncDigest):
        kind, count = _KIND_SYNC_DIGEST, len(message.digest.watermarks)
    elif isinstance(message, SyncRequest):
        kind, count = _KIND_SYNC_REQUEST, len(message.watermarks)
    elif isinstance(message, SyncChunk):
        kind, count = _KIND_SYNC_CHUNK, len(message.events)
    elif isinstance(message, IdBall):
        kind, count = _KIND_ID_BALL, len(message.entries)
    elif isinstance(message, PayloadRequest):
        kind, count = _KIND_PAYLOAD_REQUEST, len(message.ids)
    elif isinstance(message, PayloadResponse):
        kind, count = _KIND_PAYLOAD_RESPONSE, len(message.events)
    elif isinstance(message, tuple):
        kind, count = _KIND_BALL, len(message)
    else:
        raise CodecError(f"cannot encode message of type {type(message).__name__}")
    if kind in _LAZY_KINDS:
        version = _VERSION_LAZY
    elif kind == _KIND_TOPIC_ENVELOPE:
        version = _VERSION_TOPIC
    elif kind == _KIND_SIGNED_BALL:
        version = _VERSION_SIGNED
    else:
        version = _VERSION
    buffer += _HEADER.pack(_MAGIC, version, kind, sender, count)
    payload_bytes = 0
    if kind == _KIND_BALL:
        payload_bytes = _encode_ball_into(message, buffer)
    elif kind == _KIND_TOPIC_ENVELOPE:
        payload_bytes = _encode_topic_envelope_into(message, buffer)
    elif kind == _KIND_SIGNED_BALL:
        payload_bytes = _encode_signed_ball_into(message, buffer)
    elif kind == _KIND_SYNC_DIGEST:
        _encode_sync_digest_into(message, buffer)
    elif kind == _KIND_SYNC_REQUEST:
        _encode_sync_request_into(message, buffer)
    elif kind == _KIND_SYNC_CHUNK:
        payload_bytes = _encode_sync_chunk_into(message, buffer)
    elif kind == _KIND_ID_BALL:
        _encode_id_ball_into(message, buffer)
    elif kind == _KIND_PAYLOAD_REQUEST:
        _encode_payload_request_into(message, buffer)
    elif kind == _KIND_PAYLOAD_RESPONSE:
        payload_bytes = _encode_payload_response_into(message, buffer)
    else:
        buffer += _encode_cyclon(message.entries)
    if len(buffer) > MAX_DATAGRAM:
        raise CodecError(
            f"encoded message is {len(buffer)} bytes, exceeding the "
            f"{MAX_DATAGRAM}-byte datagram cap"
        )
    return payload_bytes


def assemble_envelope(host: int, frames) -> bytes:
    """Build a topic envelope from inner datagrams encoded earlier.

    *frames* is a sequence of ``(topic, inner)`` where *inner* is the
    datagram :func:`encode` produced for that frame's message from its
    own sender. The result is byte for byte
    ``encode(host, TopicEnvelope(...))`` of the same frames, without
    encoding any message again: the service's demux encodes a ball once
    to size it and every envelope that carries it is put together from
    those bytes (:meth:`repro.service.demux.TopicDemux.flush`).

    Raises:
        CodecError: If a topic id is outside the u32 range, an inner
            datagram is itself an envelope (envelopes cannot nest) or
            the envelope exceeds :data:`MAX_DATAGRAM`.
    """
    parts = [
        _HEADER.pack(
            _MAGIC, _VERSION_TOPIC, _KIND_TOPIC_ENVELOPE, host, len(frames)
        )
    ]
    for index, (topic, inner) in enumerate(frames):
        if not 0 <= topic <= MAX_TOPIC_ID:
            raise CodecError(
                f"topic id {topic} of frame {index + 1} is outside the "
                f"u32 range"
            )
        if len(inner) < _HEADER.size:
            raise CodecError(
                f"frame {index + 1} is {len(inner)} bytes, not a datagram"
            )
        # The kind byte sits at a fixed header offset (see the decoder).
        if inner[3] == _KIND_TOPIC_ENVELOPE:
            raise CodecError("topic envelopes cannot nest")
        parts.append(_FRAME_HEAD.pack(topic, len(inner)))
        parts.append(inner)
    datagram = b"".join(parts)
    if len(datagram) > MAX_DATAGRAM:
        raise CodecError(
            f"assembled envelope is {len(datagram)} bytes, exceeding the "
            f"{MAX_DATAGRAM}-byte datagram cap"
        )
    return datagram


def decode(
    datagram,
    table: Optional[AdmittedEntries] = None,
    topic: Optional[int] = None,
) -> Tuple[int, WireMessage]:
    """Parse a datagram; returns ``(sender, message)``.

    Accepts any bytes-like object — ``bytes``, ``bytearray`` or a
    ``memoryview`` straight into a transport's receive buffer. Decoding
    is zero-copy: the body is sliced as views and every field that
    survives the call (payloads, MACs) is materialized into owned
    objects, so no reference into *datagram* escapes — the transport
    may reuse its buffer the moment ``decode`` returns
    (:class:`repro.runtime.udp.UdpNetwork`'s one receive arena relies
    on exactly this).

    With *table* — the receiving node's :class:`AdmittedEntries` —
    ball kinds (1, 7, and both inside kind-8 frames) run two-speed: an
    entry whose bytes equal a remembered copy's reuses that copy's
    objects, anything else is parsed as without a table and staged as
    a first sight. The result always equals ``decode(datagram)``, and
    so does the exception. *topic* scopes the ids of one envelope
    frame; the envelope decoder sets it, callers pass whole datagrams.

    Raises:
        CodecError: On any malformed or version-incompatible input.
    """
    if table is not None and topic is None:
        table.pending.clear()
    if len(datagram) < _HEADER.size:
        raise CodecError(f"datagram too short ({len(datagram)} bytes)")
    magic, version, kind, sender, count = _HEADER.unpack_from(datagram)
    if magic != _MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version not in _SUPPORTED_VERSIONS:
        raise CodecVersionError(f"unsupported version {version}")
    view = datagram if isinstance(datagram, memoryview) else memoryview(datagram)
    body = view[_HEADER.size :]
    if kind == _KIND_BALL:
        return sender, _decode_ball(body, count, table, topic)
    if kind == _KIND_SIGNED_BALL:
        if version < _VERSION_SIGNED:
            raise CodecError(
                f"signed ball requires header version {_VERSION_SIGNED}, "
                f"got {version}"
            )
        return sender, _decode_signed_ball(body, count, table, topic)
    if kind == _KIND_CYCLON_REQ:
        return sender, CyclonRequest(entries=_decode_cyclon(body, count))
    if kind == _KIND_CYCLON_RESP:
        return sender, CyclonResponse(entries=_decode_cyclon(body, count))
    if kind == _KIND_SYNC_DIGEST:
        return sender, _decode_sync_digest(body, count)
    if kind == _KIND_SYNC_REQUEST:
        return sender, _decode_sync_request(body, count)
    if kind == _KIND_SYNC_CHUNK:
        return sender, _decode_sync_chunk(body, count)
    if kind == _KIND_TOPIC_ENVELOPE:
        if version < _VERSION_TOPIC:
            raise CodecError(
                f"topic envelope requires header version {_VERSION_TOPIC}, "
                f"got {version}"
            )
        return sender, _decode_topic_envelope(body, count, table)
    if kind in _LAZY_KINDS:
        if version < _VERSION_LAZY:
            raise CodecError(
                f"lazy-push kind {kind} requires header version "
                f"{_VERSION_LAZY}, got {version}"
            )
        if kind == _KIND_ID_BALL:
            return sender, _decode_id_ball(body, count)
        if kind == _KIND_PAYLOAD_REQUEST:
            return sender, _decode_payload_request(body, count)
        return sender, _decode_payload_response(body, count)
    raise CodecError(f"unknown message kind {kind}")


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _encode_ball_into(ball: Ball, buffer: bytearray) -> int:
    # The cumulative size is tracked while encoding so an oversized
    # ball is rejected at the first entry that crosses the cap, instead
    # of serializing every remaining entry first and failing at the
    # end. The error names how far encoding got, which is what callers
    # need to size their balls (or split them) correctly.
    size = len(buffer)
    payload_total = 0
    for index, entry in enumerate(ball):
        event = entry.event
        try:
            payload = json.dumps(event.payload).encode()
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"payload of event {event.id} is not JSON-serializable: {exc}"
            ) from exc
        size += _BALL_ENTRY.size + len(payload)
        if size > MAX_DATAGRAM:
            raise CodecError(
                f"ball entry {index + 1} of {len(ball)} (event {event.id}) "
                f"pushes the encoded message to {size} bytes, exceeding the "
                f"{MAX_DATAGRAM}-byte datagram cap"
            )
        buffer += _BALL_ENTRY.pack(
            event.ts, event.source_id, event.seq, entry.ttl, len(payload)
        )
        buffer += payload
        payload_total += len(payload)
    return payload_total


def _decode_ball(
    body,
    count: int,
    table: Optional[AdmittedEntries] = None,
    topic: Optional[int] = None,
) -> Ball:
    # The loop runs once per copy of every event (K·TTL per node), so
    # everything it can do once per ball it does here.
    known = table.records.get if table is not None else None
    unpack, head = _BALL_ENTRY.unpack_from, _BALL_ENTRY.size
    size = len(body)
    first_sights = 0
    entries = []
    offset = 0
    for _ in range(count):
        start = offset + head
        if start > size:
            raise CodecError("truncated ball entry header")
        ts, source, seq, ttl, payload_len = unpack(body, offset)
        offset = start + payload_len
        if offset > size:
            raise CodecError("truncated ball entry payload")
        raw = body[start:offset]
        record = None
        if known is not None:
            # A transient copy, dropped unless this is a first sight:
            # bytes compare by memcmp, a memoryview element by element
            # (2 ns a byte, 8 µs for a 4 kB payload).
            raw = raw.tobytes()
            key = (source, seq) if topic is None else (source, seq, topic)
            record = known(key)
        if record is not None and record[1].ts == ts and raw == record[0]:
            event = record[1]
        else:
            payload = _json_payload(raw, "corrupt payload")
            event = Event(id=(source, seq), ts=ts, source_id=source, payload=payload)
            if known is not None:
                first_sights += 1
                table.pending.setdefault(key, (raw, event, None, False))
        if ttl < 0:
            raise CodecError(f"negative ttl {ttl}")
        entries.append(BallEntry(event, ttl))
    if offset != size:
        raise CodecError(f"{size - offset} trailing bytes after ball")
    if table is not None:
        table.hits += count - first_sights
        table.misses += first_sights
    return make_ball(entries)


def _json_payload(raw, label: str):
    """Parse a JSON payload from any bytes-like slice.

    ``str(raw, "utf-8")`` reads through the buffer protocol, so a
    ``memoryview`` slice parses without an intermediate ``bytes`` copy;
    the parsed payload is an owned object with no reference into the
    source buffer.
    """
    try:
        return json.loads(str(raw, "utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"{label}: {exc}") from exc


def _encode_signed_ball_into(message: SignedBall, buffer: bytearray) -> int:
    # Same first-offending-entry size accounting as _encode_ball_into;
    # each entry additionally carries its signing epoch and MAC.
    size = len(buffer)
    payload_total = 0
    total = len(message.entries)
    for index, (entry, signature) in enumerate(
        zip(message.entries, message.signatures)
    ):
        event = entry.event
        try:
            payload = json.dumps(event.payload).encode()
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"payload of event {event.id} is not JSON-serializable: {exc}"
            ) from exc
        epoch, mac = (signature.epoch, signature.mac) if signature else (0, b"")
        if len(mac) > MAX_MAC_LEN:
            raise CodecError(
                f"MAC of event {event.id} is {len(mac)} bytes, exceeding "
                f"the {MAX_MAC_LEN}-byte layout cap"
            )
        size += _SIGNED_ENTRY.size + len(mac) + _PAYLOAD_LEN.size + len(payload)
        if size > MAX_DATAGRAM:
            raise CodecError(
                f"signed ball entry {index + 1} of {total} (event "
                f"{event.id}) pushes the encoded message to {size} bytes, "
                f"exceeding the {MAX_DATAGRAM}-byte datagram cap"
            )
        buffer += _SIGNED_ENTRY.pack(
            event.ts, event.source_id, event.seq, entry.ttl, epoch, len(mac)
        )
        buffer += mac
        buffer += _PAYLOAD_LEN.pack(len(payload))
        buffer += payload
        payload_total += len(payload)
    return payload_total


def _decode_signed_ball(
    body,
    count: int,
    table: Optional[AdmittedEntries] = None,
    topic: Optional[int] = None,
) -> SignedBall:
    known = table.records.get if table is not None else None
    unpack, head = _SIGNED_ENTRY.unpack_from, _SIGNED_ENTRY.size
    size = len(body)
    first_sights = 0
    entries = []
    signatures = []
    offset = 0
    for _ in range(count):
        start = offset + head
        if start > size:
            raise CodecError("truncated signed ball entry header")
        ts, source, seq, ttl, epoch, mac_len = unpack(body, offset)
        offset = start + mac_len
        if offset + _PAYLOAD_LEN.size > size:
            raise CodecError("truncated signed ball entry mac")
        # Materialized: the MAC outlives the call inside EventSignature
        # and must never alias a reusable receive buffer.
        mac = body[start:offset].tobytes()
        (payload_len,) = _PAYLOAD_LEN.unpack_from(body, offset)
        start = offset + _PAYLOAD_LEN.size
        offset = start + payload_len
        if offset > size:
            raise CodecError("truncated signed ball entry payload")
        raw = body[start:offset]
        record = None
        if known is not None:
            raw = raw.tobytes()  # see _decode_ball
            key = (source, seq) if topic is None else (source, seq, topic)
            record = known(key)
        if (
            record is not None
            and record[1].ts == ts
            and raw == record[0]
            # An unsigned entry's epoch field means nothing, so only
            # its empty MAC has to match.
            and (
                mac_len == 0
                if record[2] is None
                else record[2].epoch == epoch and mac == record[2].mac
            )
        ):
            event, signature = record[1], record[2]
        else:
            payload = _json_payload(raw, "corrupt payload")
            event = Event(id=(source, seq), ts=ts, source_id=source, payload=payload)
            signature = EventSignature(epoch=epoch, mac=mac) if mac_len else None
            if known is not None:
                first_sights += 1
                table.pending.setdefault(key, (raw, event, signature, False))
        if ttl < 0:
            raise CodecError(f"negative ttl {ttl}")
        entries.append(BallEntry(event, ttl))
        signatures.append(signature)
    if offset != size:
        raise CodecError(f"{size - offset} trailing bytes after signed ball")
    if table is not None:
        table.hits += count - first_sights
        table.misses += first_sights
    return SignedBall(entries=make_ball(entries), signatures=tuple(signatures))


def _encode_topic_envelope_into(
    message: TopicEnvelope, buffer: bytearray
) -> int:
    # Each frame re-enters _encode_into, so every per-kind encoder
    # (including the signed-ball one, which keeps its inner version 2)
    # is reused unchanged; the frame length is back-patched once the
    # inner datagram's size is known. The inner call's own cap check
    # sees the cumulative buffer, so an envelope that outgrows the
    # datagram cap is rejected at the first offending frame.
    payload_total = 0
    for index, (topic, frame_sender, frame_message) in enumerate(message.frames):
        if not 0 <= topic <= MAX_TOPIC_ID:
            raise CodecError(
                f"topic id {topic} of frame {index + 1} is outside the "
                f"u32 range"
            )
        if isinstance(frame_message, TopicEnvelope):
            raise CodecError("topic envelopes cannot nest")
        head = len(buffer)
        buffer += _FRAME_HEAD.pack(topic, 0)
        inner_start = len(buffer)
        payload_total += _encode_into(frame_sender, frame_message, buffer)
        _FRAME_HEAD.pack_into(buffer, head, topic, len(buffer) - inner_start)
    return payload_total


def _decode_topic_envelope(
    body, count: int, table: Optional[AdmittedEntries] = None
) -> TopicEnvelope:
    frames = []
    offset = 0
    for _ in range(count):
        if offset + _FRAME_HEAD.size > len(body):
            raise CodecError("truncated topic frame header")
        topic, inner_len = _FRAME_HEAD.unpack_from(body, offset)
        offset += _FRAME_HEAD.size
        if offset + inner_len > len(body):
            raise CodecError("truncated topic frame body")
        inner = body[offset : offset + inner_len]
        offset += inner_len
        # Reject nesting before recursing: the kind byte sits at a
        # fixed header offset, so a bomb is refused without parsing.
        if len(inner) >= _HEADER.size and inner[3] == _KIND_TOPIC_ENVELOPE:
            raise CodecError("topic envelopes cannot nest")
        frame_sender, frame_message = decode(inner, table, topic)
        frames.append((topic, frame_sender, frame_message))
    if offset != len(body):
        raise CodecError(
            f"{len(body) - offset} trailing bytes after topic envelope"
        )
    return TopicEnvelope(frames=tuple(frames))


def _encode_sync_digest_into(message: SyncDigest, buffer: bytearray) -> None:
    digest = message.digest
    flags = (0x01 if digest.last_key is not None else 0) | (
        0x02 if message.reply else 0
    )
    buffer += _DIGEST_FLAGS.pack(flags)
    if digest.last_key is not None:
        buffer += _ORDER_KEY.pack(*digest.last_key)
    for source, seq in digest.watermarks:
        buffer += _WATERMARK.pack(source, seq)


def _decode_sync_digest(body: bytes, count: int) -> SyncDigest:
    offset = 0
    if offset + _DIGEST_FLAGS.size > len(body):
        raise CodecError("truncated sync digest flags")
    (flags,) = _DIGEST_FLAGS.unpack_from(body, offset)
    offset += _DIGEST_FLAGS.size
    last_key = None
    if flags & 0x01:
        if offset + _ORDER_KEY.size > len(body):
            raise CodecError("truncated sync digest order key")
        last_key = _ORDER_KEY.unpack_from(body, offset)
        offset += _ORDER_KEY.size
    watermarks, offset = _decode_watermarks(body, offset, count, "digest")
    if offset != len(body):
        raise CodecError(f"{len(body) - offset} trailing bytes after sync digest")
    return SyncDigest(
        digest=DeliveryDigest(last_key=last_key, watermarks=watermarks),
        reply=bool(flags & 0x02),
    )


def _encode_sync_request_into(message: SyncRequest, buffer: bytearray) -> None:
    flags = 0x01 if message.after is not None else 0
    buffer += _REQUEST_HEAD.pack(
        message.req_id & 0xFFFFFFFF, message.max_events, message.max_bytes, flags
    )
    if message.after is not None:
        buffer += _ORDER_KEY.pack(*message.after)
    for source, seq in message.watermarks:
        buffer += _WATERMARK.pack(source, seq)


def _decode_sync_request(body: bytes, count: int) -> SyncRequest:
    if _REQUEST_HEAD.size > len(body):
        raise CodecError("truncated sync request header")
    req_id, max_events, max_bytes, flags = _REQUEST_HEAD.unpack_from(body)
    offset = _REQUEST_HEAD.size
    after = None
    if flags & 0x01:
        if offset + _ORDER_KEY.size > len(body):
            raise CodecError("truncated sync request cursor")
        after = _ORDER_KEY.unpack_from(body, offset)
        offset += _ORDER_KEY.size
    watermarks, offset = _decode_watermarks(body, offset, count, "request")
    if offset != len(body):
        raise CodecError(f"{len(body) - offset} trailing bytes after sync request")
    return SyncRequest(
        req_id=req_id,
        after=after,
        watermarks=watermarks,
        max_events=max_events,
        max_bytes=max_bytes,
    )


def _encode_sync_chunk_into(message: SyncChunk, buffer: bytearray) -> int:
    flags = (0x01 if message.more else 0) | (
        0x02 if message.peer_last is not None else 0
    )
    buffer += _CHUNK_HEAD.pack(message.req_id & 0xFFFFFFFF, flags)
    if message.peer_last is not None:
        buffer += _ORDER_KEY.pack(*message.peer_last)
    buffer += _CHECKSUM.pack(message.checksum & 0xFFFFFFFF)
    payload_total = 0
    for event in message.events:
        try:
            payload = json.dumps(event.payload).encode()
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"payload of event {event.id} is not JSON-serializable: {exc}"
            ) from exc
        buffer += _CHUNK_EVENT.pack(
            event.ts, event.source_id, event.seq, len(payload)
        )
        buffer += payload
        payload_total += len(payload)
    return payload_total


def _decode_sync_chunk(body: bytes, count: int) -> SyncChunk:
    if _CHUNK_HEAD.size > len(body):
        raise CodecError("truncated sync chunk header")
    req_id, flags = _CHUNK_HEAD.unpack_from(body)
    offset = _CHUNK_HEAD.size
    peer_last = None
    if flags & 0x02:
        if offset + _ORDER_KEY.size > len(body):
            raise CodecError("truncated sync chunk peer key")
        peer_last = _ORDER_KEY.unpack_from(body, offset)
        offset += _ORDER_KEY.size
    if offset + _CHECKSUM.size > len(body):
        raise CodecError("truncated sync chunk checksum")
    (checksum,) = _CHECKSUM.unpack_from(body, offset)
    offset += _CHECKSUM.size
    events = []
    for _ in range(count):
        if offset + _CHUNK_EVENT.size > len(body):
            raise CodecError("truncated sync chunk event header")
        ts, source, seq, payload_len = _CHUNK_EVENT.unpack_from(body, offset)
        offset += _CHUNK_EVENT.size
        if offset + payload_len > len(body):
            raise CodecError("truncated sync chunk event payload")
        raw = body[offset : offset + payload_len]
        offset += payload_len
        payload = _json_payload(raw, "corrupt sync chunk payload")
        events.append(
            Event(id=(source, seq), ts=ts, source_id=source, payload=payload)
        )
    if offset != len(body):
        raise CodecError(f"{len(body) - offset} trailing bytes after sync chunk")
    return SyncChunk(
        req_id=req_id,
        events=tuple(events),
        checksum=checksum,
        more=bool(flags & 0x01),
        peer_last=peer_last,
    )


def _decode_watermarks(
    body: bytes, offset: int, count: int, label: str
) -> Tuple[tuple, int]:
    end = offset + count * _WATERMARK.size
    if end > len(body):
        raise CodecError(f"truncated sync {label} watermarks")
    watermarks = tuple(
        _WATERMARK.unpack_from(body, offset + i * _WATERMARK.size)
        for i in range(count)
    )
    return watermarks, end


def _encode_cyclon(entries) -> bytes:
    return b"".join(_CYCLON_ENTRY.pack(peer, age) for peer, age in entries)


def _decode_cyclon(body: bytes, count: int):
    expected = count * _CYCLON_ENTRY.size
    if len(body) != expected:
        raise CodecError(
            f"cyclon body is {len(body)} bytes, expected {expected}"
        )
    return tuple(
        _CYCLON_ENTRY.unpack_from(body, i * _CYCLON_ENTRY.size)
        for i in range(count)
    )


def _encode_id_ball_into(message: IdBall, buffer: bytearray) -> None:
    for ts, source, seq, ttl in message.entries:
        buffer += _ID_ENTRY.pack(ts, source, seq, ttl)


def _decode_id_ball(body, count: int) -> IdBall:
    expected = count * _ID_ENTRY.size
    if len(body) != expected:
        raise CodecError(
            f"id-ball body is {len(body)} bytes, expected {expected}"
        )
    entries = []
    for i in range(count):
        ts, source, seq, ttl = _ID_ENTRY.unpack_from(body, i * _ID_ENTRY.size)
        if ttl < 0:
            raise CodecError(f"negative ttl {ttl}")
        entries.append((ts, source, seq, ttl))
    return IdBall(entries=tuple(entries))


def _encode_payload_request_into(
    message: PayloadRequest, buffer: bytearray
) -> None:
    buffer += _PULL_REQ_HEAD.pack(message.req_id & 0xFFFFFFFF)
    for source, seq in message.ids:
        buffer += _EVENT_ID.pack(source, seq)


def _decode_payload_request(body, count: int) -> PayloadRequest:
    expected = _PULL_REQ_HEAD.size + count * _EVENT_ID.size
    if len(body) != expected:
        raise CodecError(
            f"payload-request body is {len(body)} bytes, expected {expected}"
        )
    (req_id,) = _PULL_REQ_HEAD.unpack_from(body)
    ids = tuple(
        _EVENT_ID.unpack_from(body, _PULL_REQ_HEAD.size + i * _EVENT_ID.size)
        for i in range(count)
    )
    return PayloadRequest(req_id=req_id, ids=ids)


def _encode_payload_response_into(
    message: PayloadResponse, buffer: bytearray
) -> int:
    # Same first-offending-entry size accounting as _encode_ball_into:
    # a response that outgrows the datagram cap is rejected at the event
    # that crosses it, naming how far encoding got.
    buffer += _PULL_RESP_HEAD.pack(
        message.req_id & 0xFFFFFFFF, len(message.missing)
    )
    size = len(buffer) + len(message.missing) * _EVENT_ID.size
    payload_total = 0
    total = len(message.events)
    for index, event in enumerate(message.events):
        try:
            payload = json.dumps(event.payload).encode()
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"payload of event {event.id} is not JSON-serializable: {exc}"
            ) from exc
        size += _CHUNK_EVENT.size + len(payload)
        if size > MAX_DATAGRAM:
            raise CodecError(
                f"payload-response event {index + 1} of {total} (event "
                f"{event.id}) pushes the encoded message to {size} bytes, "
                f"exceeding the {MAX_DATAGRAM}-byte datagram cap"
            )
        buffer += _CHUNK_EVENT.pack(
            event.ts, event.source_id, event.seq, len(payload)
        )
        buffer += payload
        payload_total += len(payload)
    for source, seq in message.missing:
        buffer += _EVENT_ID.pack(source, seq)
    return payload_total


def _decode_payload_response(body, count: int) -> PayloadResponse:
    if _PULL_RESP_HEAD.size > len(body):
        raise CodecError("truncated payload-response header")
    req_id, missing_count = _PULL_RESP_HEAD.unpack_from(body)
    offset = _PULL_RESP_HEAD.size
    events = []
    for _ in range(count):
        if offset + _CHUNK_EVENT.size > len(body):
            raise CodecError("truncated payload-response event header")
        ts, source, seq, payload_len = _CHUNK_EVENT.unpack_from(body, offset)
        offset += _CHUNK_EVENT.size
        if offset + payload_len > len(body):
            raise CodecError("truncated payload-response event payload")
        raw = body[offset : offset + payload_len]
        offset += payload_len
        payload = _json_payload(raw, "corrupt payload-response payload")
        events.append(
            Event(id=(source, seq), ts=ts, source_id=source, payload=payload)
        )
    end = offset + missing_count * _EVENT_ID.size
    if end > len(body):
        raise CodecError("truncated payload-response missing ids")
    missing = tuple(
        _EVENT_ID.unpack_from(body, offset + i * _EVENT_ID.size)
        for i in range(missing_count)
    )
    if end != len(body):
        raise CodecError(
            f"{len(body) - end} trailing bytes after payload response"
        )
    return PayloadResponse(req_id=req_id, events=tuple(events), missing=missing)
