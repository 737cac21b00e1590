"""Wire codec for EpTO messages (paper §8.5).

A compact, dependency-free binary encoding for everything EpTO and
Cyclon put on the wire, used by the UDP transport. Deliberately **not**
pickle: decoding untrusted bytes must never execute code, so the format
is bytes, varints and JSON-encoded payloads.

Layout (``uvarint`` is unsigned LEB128, ``zvarint`` a zigzag-mapped
signed one — :mod:`repro.core.record`; the two fixed-width integers,
``mac_len`` and the checksum, are big-endian):

```
header:   magic "EP" | version u8 | kind u8 | sender zvarint |
          count uvarint
record:   ts zvarint | source zvarint | seq zvarint |     (the head)
          payload (UTF-8 JSON, the rest of the record)
pair:     source zvarint | seq zvarint     (an event id, a watermark)
key:      ts zvarint | source zvarint | seq zvarint    (an order key)
framed:   record_len uvarint | record
ball:     count x { ttl uvarint | record_len uvarint | record }
signed:   count x { ttl uvarint | record_len uvarint | record |
                    epoch uvarint | mac_len u8 | mac }
cyclon:   count x { peer zvarint | age zvarint }
digest:   flags u8 (bit0 has-last-key, bit1 reply) |
          [ last_key key ] | count x pair
request:  req_id uvarint | max_events uvarint | max_bytes uvarint |
          flags u8 (bit0 has-after) | [ after key ] | count x pair
chunk:    req_id uvarint | flags u8 (bit0 more, bit1 has-peer-last) |
          [ peer_last key ] | checksum u32 | count x framed
envelope: count x { topic uvarint | inner_len uvarint |
                    inner (one complete datagram, kinds 1–7, 9–11) }
id_ball:  count x { ttl uvarint | head_len uvarint | head }
pull_req: req_id uvarint | count x pair
pull_resp:req_id uvarint | missing uvarint | count x framed |
          missing x pair
```

``count`` is entries for balls, id-balls and cyclon views, watermark
pairs for digests and requests, events for chunks and pull responses,
ids for pull requests, frames for topic envelopes. A header is 6 bytes
for a sender in ``[-64, 63]`` and a count below 128, and at most
:data:`HEADER_SIZE`.

Every ball entry is a TTL around an event's *record* or a part of it:
a plain entry carries the record, a signed entry the record followed by
the epoch and MAC of its signature, and an id-ball entry only the
record's *head* — a plain entry whose record has no payload bytes. A
record is built once per event (:func:`repro.core.record.wire_record`)
and kept on it — an event decoded off the wire keeps the bytes it
arrived in, so a relay forwards them verbatim. A sync chunk and a pull
response carry the same record, framed by its length, so a node that
serves an event it pulled forwards it verbatim too. Every varint keeps
the range of the fixed-width field it replaced — ``ts``, source,
sequence and sender i64; TTL a non-negative i32; Cyclon age i32; epoch,
count, ``req_id``, ``max_events``, ``max_bytes``, topic, ``inner_len``
and the missing count u32 — and has one minimal form of at most ten
bytes; anything else is refused. So equal entries are equal bytes,
which is what lets a receiver's :class:`AdmittedEntries` key all three
ball kinds by them.

Every ball kind — plain (1), signed (7) and id-ball (9) — encodes from
and decodes to one :class:`~repro.core.event.Ball` (``{event id:
Event}`` and ``{event id: ttl}`` in wire order), bare or wrapped with
its signatures or as metadata. A wire ball that names an event id twice
is refused: no honest sender ships one, since a ball is a map. A
message with a field outside its range is refused with
:class:`CodecError` like any other message that cannot be encoded.

Versioning: there is one header version (8: version 7 carried the
fixed-width header ``magic | version u8 | kind u8 | sender i64 | count
u32``, frame heads ``topic u32 | inner_len u32``, ids, watermarks and
order keys as i64s, Cyclon entries ``peer i64 | age i32``, u32
``req_id``/``max_events``/``max_bytes``/missing count, and chunk and
pull-response events ``ts i64 | source i64 | seq i64 | payload_len u32
| payload``; version 6 the fixed-width signed and id-ball entries;
version 5 the fixed-width plain one) and every kind — inner envelope
frames included — is written under it; the version byte sits at a
fixed offset, before any varint, so any other value raises the
distinguishable :class:`CodecVersionError`, so transports count
traffic from an incompatible peer apart from line noise. There is no
capability byte: the kind byte already says what one would, and a kind
is declared once, in the table at the bottom of this module.
``mac_len == 0`` marks an unsigned entry inside a signed ball (its
epoch is written as 0 and means nothing). Each
envelope frame wraps one *complete* datagram — its own header and body,
produced by the same per-kind encoders — so every message the codec can
put on the wire can ride inside an envelope unchanged; envelopes cannot
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

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..auth.authenticator import EventSignature, SignedBall
from ..core.errors import TransportError
from ..core.event import Ball, Event
from ..core.record import (
    HEADER_PREFIX_NBYTES,
    WireRecord,
    header_nbytes,
    parse_head,
    parse_record,
    read_uvarint,
    read_zvarint,
    uvarint,
    uvarint_nbytes,
    wire_head,
    wire_record,
    zvarints,
)
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
_MAGIC_0, _MAGIC_1 = _MAGIC
_VERSION = 8

_U32_MAX = 0xFFFFFFFF
_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1

#: Largest topic id the frame layout can carry (topic keeps the u32
#: range).
MAX_TOPIC_ID = _U32_MAX

#: Largest MAC the signed-entry layout can carry (mac_len is a u8).
MAX_MAC_LEN = 255

_KIND_OFFSET = 3  # magic 2s | version u8 | kind u8
_SMALLEST_HEADER = HEADER_PREFIX_NBYTES + 2  # a one-byte sender and count
_MAX_TTL = 0x7FFFFFFF  # a ball entry's TTL keeps the i32 range
_MAX_EPOCH = _U32_MAX  # a signed entry's epoch keeps the u32 range
_NOTHING_KNOWN: Dict[Any, Any] = {}  # the records of a decode without a table
_BELOW_I64 = -(1 << 63) - 1  # below every ts an entry can carry
_CHECKSUM = struct.Struct("!I")

#: The most bytes a datagram header takes: a sender at the i64 ends and
#: a count at the u32 end. Headers are varints, so this is a bound —
#: what :mod:`repro.service.demux` reserves for an envelope's header
#: before it knows the envelope's frame count.
HEADER_SIZE = header_nbytes(-(1 << 63), _U32_MAX)


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


#: Entries one receiver remembers of each ball kind. The smallest plain
#: ball entry is six bytes (one each for the TTL, the length and the
#: three varints of a small event, and a one-byte JSON payload), so one
#: datagram can name up to ``MAX_DATAGRAM // 6`` (~10k) events; 16k
#: records keep every entry of even such a ball resident beside the ~6k
#: a node last relayed, and cost a few MB per node when full. An
#: authenticating fabric remembers only verified entries, so a flood of
#: fresh ids cannot push records out there.
ADMITTED_CAPACITY = 1 << 14

#: The kinds whose entries :class:`AdmittedEntries` remembers: the ball
#: kinds, which :func:`decode` reads itself.
_PLAIN, _SIGNED, _IDS = 1, 7, 9
_BALL_KINDS = frozenset((_PLAIN, _SIGNED, _IDS))


class AdmittedEntries:
    """One receiving node's memo of the ball entries it has admitted.

    An epidemic hands a node each event about K·TTL times. The table
    remembers what :func:`decode` built from the first admitted copy of
    an entry, so a byte-identical repeat is handed the very same objects
    instead of being parsed again. It is a memo of a pure function,
    keyed by the entry's own bytes — every varint in its one minimal
    form — so that only byte-identical copies can meet:

    * a **plain** entry (kind 1) by its record — ``ts``, source,
      sequence and payload — to the event;
    * an **id-ball** entry (kind 9) by its head — ``ts``, source and
      sequence — to the payload-less event;
    * a **signed** entry (kind 7) by its *tail* — the epoch and MAC
      after the record — to ``(record, event, signature)``, and a copy
      is a hit only when its record equals the remembered one too: a
      hit is byte identity of ``ts``, source, sequence, payload, epoch
      and MAC. The MAC is a digest of the content, so the lookup hashes
      a few bytes, not the payload; a second content under one tail (an
      altered payload with a replayed MAC, or any other unsigned entry,
      whose tail is always the same two bytes) takes the full path.
      The record is the bytes object the event keeps, so a remembered
      entry holds its payload once.

    An entry that arrived inside an envelope frame is keyed with the
    frame's topic too, so one id on two topics never aliases. Each kind has a map
    of its own (:attr:`records` is ``{kind: {key: ...}}``): the head of
    an id-ball entry is a plain record with no payload, which a plain
    entry may carry only to be refused, so a lookup of one kind must
    never be answered from another's. A copy with other bytes is
    another key: it takes the full path and is remembered as its own
    record.

    Remembering is two-step. ``decode`` only *stages* first sights in
    :attr:`pending` (dropped at the start of the next datagram, so one
    that raised leaves nothing behind); the owner decides what is kept:
    a fabric with no verifier keeps everything staged
    (:meth:`admit_pending`), a verifying one keeps a signed entry only
    once its MAC checked out (:meth:`remember`) and keeps no plain or
    id-ball entry at all. The verifier needs answers per *id* —
    whether a copy is one it already verified (:meth:`holds`), and the
    MAC to relay an event with (:meth:`signature_of`) — so
    :meth:`remember` alone writes :attr:`verified`, where the first
    verified content of an id wins. Oldest records go first beyond
    :data:`ADMITTED_CAPACITY` in every map; an evicted entry simply
    takes the full path again.
    """

    __slots__ = ("records", "pending", "verified", "staged", "hits", "misses")

    def __init__(self) -> None:
        #: kind -> key -> what decode built: the event (kinds 1, 9) or
        #: ``(record, event, signature)`` (kind 7).
        self.records: Dict[int, "OrderedDict[Any, Any]"] = {
            kind: OrderedDict() for kind in (_PLAIN, _SIGNED, _IDS)
        }
        #: ``(kind, key)`` -> the first sights of the datagram being (or
        #: last) decoded.
        self.pending: Dict[Tuple[int, Any], Any] = {}
        #: event id -> ``(key, event, signature)`` of its first verified
        #: signed content, as decode last handed it out.
        self.verified: "OrderedDict[Any, Tuple[Any, Event, EventSignature]]" = (
            OrderedDict()
        )
        #: event id -> key of each signed first sight staged from a bare
        #: datagram: how :meth:`remember` finds it (the guard verifies
        #: no envelope frame).
        self.staged: Dict[Any, Any] = {}
        #: ball entries served from / parsed past the table.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(map(len, self.records.values()))

    def _clear_pending(self) -> None:
        self.pending.clear()
        self.staged.clear()

    def admit_pending(self) -> None:
        """Remember every staged first sight as decoded, unverified."""
        for (kind, key), record in self.pending.items():
            _keep(self.records[kind], key, record)
        self._clear_pending()

    def remember(self, event: Event) -> None:
        """Remember the staged first sight of *event* as verified —
        for the verifier, once the entry's MAC checked out."""
        key = self.staged.get(event.id)
        staged = None if key is None else self.pending.get((_SIGNED, key))
        if staged is not None and staged[1] is event:
            _keep(self.records[_SIGNED], key, staged)
            first = self.verified.get(event.id)
            if first is None or first[0] == key:  # the first content wins
                # The same content verified again (its record had been
                # evicted): these are the objects decode now hands out.
                self.verified.pop(event.id, None)
                _keep(self.verified, event.id, (key, event, staged[2]))

    def holds(self, event: Event, signature: EventSignature) -> bool:
        """Whether these very objects are the verified record of their
        id: ``decode`` hands them out again only for byte-identical
        entries."""
        verified = self.verified.get(event.id)
        return (
            verified is not None and verified[1] is event and verified[2] is signature
        )

    def signature_of(self, event_id) -> Optional[EventSignature]:
        """The verified signature remembered for *event_id*, if any."""
        verified = self.verified.get(event_id)
        return None if verified is None else verified[2]


def _keep(records: "OrderedDict[Any, Any]", key, record) -> None:
    """Add *record* under *key* unless the key has one — the first
    content of a key wins — and keep *records* within
    :data:`ADMITTED_CAPACITY`, oldest first out."""
    records.setdefault(key, record)
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
    """Encode one datagram into the empty *buffer*; returns its payload
    bytes."""
    row = _ROW_OF_TYPE.get(type(message))
    if row is None:
        raise CodecError(f"cannot encode message of type {type(message).__name__}")
    buffer += _header(row.kind, sender, row.count(message))
    payload_bytes = row.encode_body(message, buffer)
    _check_cap(len(buffer), "encoded message")
    return payload_bytes


def _header(kind: int, sender: int, count: int) -> bytes:
    """The datagram header: ``magic | version | kind | sender zvarint |
    count uvarint``."""
    if 0 <= sender < 0x40 and 0 <= count < 0x80:  # one byte each: nearly always
        return _MAGIC + bytes((_VERSION, kind, sender << 1, count))
    return (
        _MAGIC
        + bytes((_VERSION, kind))
        + _i64s("sender", sender)
        + _u32("count", count)
    )


def _u32(what: str, value: int) -> bytes:
    """*value* as a uvarint, refused outside the u32 range of the
    fixed-width field it replaced."""
    if not 0 <= value <= _U32_MAX:
        raise CodecError(f"{what} {value} is outside the u32 range")
    return uvarint(value)


def _i64s(what: str, *values: int) -> bytes:
    """*values* as zigzag varints, refused outside the i64 range."""
    try:
        return zvarints(*values)
    except OverflowError as exc:
        raise CodecError(f"{what}: {exc}") from None


def _check_cap(size: int, what: str) -> None:
    if size > MAX_DATAGRAM:
        raise CodecError(
            f"{what} is {size} bytes, exceeding the "
            f"{MAX_DATAGRAM}-byte datagram cap"
        )


def _crosses_cap(what: str, index: int, total: int, event: Event, size: int):
    """The refusal for the first entry that pushes a message past the
    cap. The entry encoders track the cumulative size so an oversized
    message is rejected there, instead of serializing every remaining
    entry first and failing at the end; the error names how far
    encoding got, which is what callers need to size their balls (or
    split them) correctly."""
    return CodecError(
        f"{what} {index + 1} of {total} (event {event.id}) pushes the "
        f"encoded message to {size} bytes, exceeding the "
        f"{MAX_DATAGRAM}-byte datagram cap"
    )


def assemble_envelope(host: int, frames) -> bytes:
    """Build a topic envelope from inner datagrams encoded earlier.

    *frames* is a sequence of ``(topic, inner)`` where *inner* is the
    datagram :func:`encode` produced for that frame's message from its
    own sender. The result is byte for byte
    ``encode(host, TopicEnvelope(...))`` of the same frames — both lay
    their frames out with the one assembler below — without encoding
    any message again: the service's demux encodes a ball once to size
    it and every envelope that carries it is put together from those
    bytes (:meth:`repro.service.demux.TopicDemux.flush`).

    Raises:
        CodecError: If a topic id is outside the u32 range, an inner
            datagram is itself an envelope (envelopes cannot nest) or
            the envelope exceeds :data:`MAX_DATAGRAM`.
    """
    header = _header(_ENVELOPE_KIND, host, len(frames))
    datagram = b"".join([header, *_frame_parts(frames)])
    _check_cap(len(datagram), "assembled envelope")
    return datagram


def frame_nbytes(topic: int, inner_nbytes: int) -> int:
    """Bytes one frame adds to an envelope: ``topic uvarint |
    inner_len uvarint`` and the *inner_nbytes* of its datagram."""
    return uvarint_nbytes(topic) + uvarint_nbytes(inner_nbytes) + inner_nbytes


def _frame_parts(frames) -> list:
    """The body of an envelope, in pieces to join: a frame head and the
    inner datagram for each ``(topic, inner)`` of *frames*."""
    parts = []
    for index, (topic, inner) in enumerate(frames):
        if not 0 <= topic <= MAX_TOPIC_ID:
            raise CodecError(
                f"topic id {topic} of frame {index + 1} is outside the "
                f"u32 range"
            )
        if len(inner) < _SMALLEST_HEADER:
            raise CodecError(
                f"frame {index + 1} is {len(inner)} bytes, not a datagram"
            )
        if inner[_KIND_OFFSET] == _ENVELOPE_KIND:
            raise CodecError("topic envelopes cannot nest")
        parts.append(uvarint(topic) + uvarint(len(inner)))
        parts.append(inner)
    return parts


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
    ball kinds (1, 7, 9, and each inside kind-8 frames) run two-speed: an
    entry whose bytes equal a remembered copy's reuses that copy's
    objects, anything else is parsed as without a table and staged as
    a first sight. The result always equals ``decode(datagram)``, and
    so does the exception. *topic* scopes the ids of one envelope
    frame; the envelope decoder sets it, callers pass whole datagrams.

    Raises:
        CodecVersionError: On a well-framed datagram of another header
            version.
        CodecError: On any other malformed input.
    """
    if table is not None and topic is None and table.pending:
        table._clear_pending()
    if len(datagram) < _SMALLEST_HEADER:
        raise CodecError(f"datagram too short ({len(datagram)} bytes)")
    if datagram[0] != _MAGIC_0 or datagram[1] != _MAGIC_1:
        raise CodecError(f"bad magic {bytes(datagram[:2])!r}")
    # The version before any varint: a header of another version may
    # lay out what follows its kind byte differently.
    version = datagram[2]
    if version != _VERSION:
        raise CodecVersionError(f"unsupported version {version}")
    kind = datagram[_KIND_OFFSET]
    if kind in _BALL_KINDS:
        row = None
    else:
        row = _ROW_OF_KIND.get(kind)
        if row is None:
            raise CodecError(f"unknown message kind {kind}")
    sender = datagram[4]
    count = datagram[5]
    if (sender | count) < 0x80:  # one byte each: nearly always
        sender = (sender >> 1) ^ -(sender & 1)
        start = _SMALLEST_HEADER
    else:
        sender, at = _read_i64(datagram, HEADER_PREFIX_NBYTES, "header sender")
        count, start = _read_u32(datagram, at, "header count")
    if row is None:
        # A ball kind, nearly every datagram: its entry loop reads one
        # bytes copy of the whole datagram from where the header ends.
        data = bytes(datagram)
        if kind == _PLAIN:
            ball = _decode_entries(
                data, start, count, table, topic, _PLAIN, parse_record, "ball"
            )
        elif kind == _SIGNED:
            ball = _decode_signed_ball(data, start, count, table, topic)
        else:
            ball = IdBall(
                _decode_entries(
                    data, start, count, table, topic, _IDS, parse_head, "id-ball"
                )
            )
        return sender, ball
    view = datagram if isinstance(datagram, memoryview) else memoryview(datagram)
    return sender, row.decode_body(view[start:], count, table, topic)


def count_span(datagram) -> Tuple[int, int]:
    """``(start, end)`` of the header's count in a well-formed
    *datagram*: what :meth:`repro.runtime.udp.UdpNetwork.set_corruption`
    rewrites."""
    _, start = _read_i64(datagram, HEADER_PREFIX_NBYTES, "header sender")
    return start, _read_u32(datagram, start, "header count")[1]


def _read_u32(data, offset: int, what: str) -> Tuple[int, int]:
    """A uvarint of *data* at *offset* that keeps the u32 range of the
    fixed-width field it replaced: ``(value, offset past it)``."""
    try:
        value, offset = read_uvarint(data, offset, what)
    except ValueError as exc:
        raise CodecError(str(exc)) from exc
    if value > _U32_MAX:
        raise CodecError(f"{what} {value} overflows the u32 range")
    return value, offset


def _read_i64(data, offset: int, what: str) -> Tuple[int, int]:
    """A zigzag varint of *data* at *offset*, an i64: ``(value, offset
    past it)``."""
    try:
        return read_zvarint(data, offset, what)
    except ValueError as exc:
        raise CodecError(str(exc)) from exc


# ----------------------------------------------------------------------
# Bodies, kind by kind
# ----------------------------------------------------------------------


def _record_of(event: Event) -> WireRecord:
    """*event*'s full :func:`~repro.core.record.wire_record` — built, or
    rebuilt from a head alone, when the cached one is not a record a
    payload-carrying kind can ship — refused when the event cannot
    travel."""
    wire = event._wire
    if wire is not None and wire[0] and wire[1]:
        return wire
    try:
        wire = wire_record(event)
    except OverflowError as exc:
        raise CodecError(f"event {event.id}: {exc}") from exc
    if wire[0] is False:
        raise _not_json(event)
    return wire


def _not_json(event: Event) -> CodecError:
    return CodecError(
        f"payload of event {event.id} is not JSON-serializable "
        f"({type(event.payload).__name__})"
    )


def _ttl_outside(ttl: int, event: Event) -> CodecError:
    return CodecError(f"ttl {ttl} of event {event.id} is outside the i32 range")


def _encode_ball_into(ball: Ball, buffer: bytearray) -> int:
    size = len(buffer)
    payload_total = 0
    entries = zip(ball.events.values(), ball.ttls.values())
    for index, (event, ttl) in enumerate(entries):
        # _record_of inlined: a relay's encode of a record it keeps is
        # two slot reads and two varints.
        wire = event._wire
        if wire is None or not (wire[0] and wire[1]):
            wire = _record_of(event)
        record, payload_nbytes, _ = wire
        if not 0 <= ttl <= _MAX_TTL:
            raise _ttl_outside(ttl, event)
        head = uvarint(ttl) + uvarint(len(record))
        size += len(head) + len(record)
        if size > MAX_DATAGRAM:
            raise _crosses_cap("ball entry", index, len(ball), event, size)
        buffer += head
        buffer += record
        payload_total += payload_nbytes
    return payload_total


def _encode_id_ball_into(message: IdBall, buffer: bytearray) -> int:
    # A plain entry whose record is the event's head: the head is
    # sliced from the record the event keeps, or is that record when
    # the event arrived in an id-ball.
    ball = message.ball
    size = len(buffer)
    entries = zip(ball.events.values(), ball.ttls.values())
    for index, (event, ttl) in enumerate(entries):
        wire = event._wire
        if wire is not None and wire[0] and not wire[1]:
            record = wire[0]  # a head alone: what a relayed id keeps
        else:
            try:
                record = wire_head(event)
            except OverflowError as exc:
                raise CodecError(f"event {event.id}: {exc}") from exc
        if not 0 <= ttl <= _MAX_TTL:
            raise _ttl_outside(ttl, event)
        head = uvarint(ttl) + uvarint(len(record))
        size += len(head) + len(record)
        if size > MAX_DATAGRAM:
            raise _crosses_cap("id-ball entry", index, len(ball), event, size)
        buffer += head
        buffer += record
    return 0


def _decode_entries(
    data: bytes,
    offset: int,
    count: int,
    table: Optional[AdmittedEntries],
    topic: Optional[int],
    kind: int,
    parse: Callable[[bytes], Event],
    what: str,
) -> Ball:
    """The ball of *count* entries ``uvarint ttl | uvarint length |
    record`` that fill *data* from *offset* to its end, each record
    read by *parse* — a plain ball's
    (:func:`~repro.core.record.parse_record`) or an id-ball's
    (:func:`~repro.core.record.parse_head`). The ball's
    :attr:`~repro.core.event.Ball.max_ts` is taken on the way."""
    # The loop runs once per copy of every event (K·TTL per node), so
    # everything it can do once per ball it does here. A copy whose
    # record the table holds costs the slice that is its key and one
    # lookup: no field of it is unpacked, and nothing is built per
    # entry but the key. Each record is one bytes slice of *data* (a
    # slice of a view would be a view to copy again).
    known = (table.records[kind] if table is not None else _NOTHING_KNOWN).get
    size = len(data)
    first_sights = 0
    events = {}
    ttls = {}
    max_ts = _BELOW_I64
    try:
        for _ in range(count):
            ttl = data[offset]
            length = data[offset + 1]
            if (ttl | length) < 0x80:  # one byte each: nearly always
                start = offset + 2
            elif ttl < 0x80 and 0 < (high := data[offset + 2]) < 0x80:
                # A minimal two-byte length: a record of 128 B to 16 kB.
                length = (length & 0x7F) | high << 7
                start = offset + 3
            else:
                ttl, start, length = _long_entry_head(data, offset)
            offset = start + length
            if offset > size:
                raise CodecError(f"{what} entry record runs past the datagram")
            record = data[start:offset]
            key = record if topic is None else (record, topic)
            event = known(key)
            if event is None:
                try:
                    event = parse(record)
                except ValueError as exc:
                    raise CodecError(f"corrupt {what} entry: {exc}") from exc
                if table is not None:
                    first_sights += 1
                    table.pending.setdefault((kind, key), event)
            event_id = event.id
            events[event_id] = event
            ttls[event_id] = ttl
            ts = event.ts
            if ts > max_ts:
                max_ts = ts
    except IndexError:  # the body ended inside an entry's TTL or length
        raise CodecError(f"truncated {what} entry") from None
    _expect_end(data, offset, what)
    if len(ttls) != count:
        raise _named_twice(what)
    if table is not None:
        table.hits += count - first_sights
        table.misses += first_sights
    return Ball(events, ttls, False, max_ts if events else 0)


def _named_twice(what: str) -> CodecError:
    # Told by the size of the ball's map once every entry is read: a
    # map cannot name an id twice, so one did if it holds fewer.
    return CodecError(f"{what} names an event id twice")


def _long_entry_head(body, offset: int) -> Tuple[int, int, int]:
    """``(ttl, record offset, record length)`` of an entry whose TTL or
    length takes more than a byte."""
    try:
        ttl, offset = read_uvarint(body, offset, "ball entry ttl")
        length, offset = read_uvarint(body, offset, "ball entry length")
    except ValueError as exc:
        raise CodecError(str(exc)) from exc
    if ttl > _MAX_TTL:
        raise CodecError(f"ttl {ttl} overflows the i32 range")
    return ttl, offset, length


def _signature_tail(event: Event, signature: Optional[EventSignature]) -> bytes:
    """``uvarint epoch | mac_len u8 | mac`` of a signed entry; an
    unsigned one's is epoch 0 and no MAC."""
    if signature is None:
        return _UNSIGNED_TAIL
    epoch, mac = signature.epoch, signature.mac
    if len(mac) > MAX_MAC_LEN:
        raise CodecError(
            f"MAC of event {event.id} is {len(mac)} bytes, exceeding "
            f"the {MAX_MAC_LEN}-byte layout cap"
        )
    if not 0 <= epoch <= _MAX_EPOCH:
        raise CodecError(
            f"epoch {epoch} of event {event.id} is outside the u32 range"
        )
    return uvarint(epoch) + bytes((len(mac),)) + mac


_UNSIGNED_TAIL = b"\x00\x00"


def _encode_signed_ball_into(message: SignedBall, buffer: bytearray) -> int:
    # A plain entry followed by the signature's epoch and MAC.
    ball = message.ball
    size = len(buffer)
    payload_total = 0
    total = len(ball)
    for index, (event, ttl, signature) in enumerate(
        zip(ball.events.values(), ball.ttls.values(), message.signatures)
    ):
        record, payload_nbytes, _ = _record_of(event)
        if not 0 <= ttl <= _MAX_TTL:
            raise _ttl_outside(ttl, event)
        head = uvarint(ttl) + uvarint(len(record))
        tail = _signature_tail(event, signature)
        size += len(head) + len(record) + len(tail)
        if size > MAX_DATAGRAM:
            raise _crosses_cap("signed ball entry", index, total, event, size)
        buffer += head
        buffer += record
        buffer += tail
        payload_total += payload_nbytes
    return payload_total


def _decode_signed_ball(
    data: bytes,
    offset: int,
    count: int,
    table: Optional[AdmittedEntries],
    topic: Optional[int],
) -> SignedBall:
    # As _decode_entries; a hit is the very content — signature
    # included — that was parsed before.
    known = (table.records[_SIGNED] if table is not None else _NOTHING_KNOWN).get
    size = len(data)
    first_sights = 0
    events = {}
    ttls = {}
    signatures = []
    max_ts = _BELOW_I64
    try:
        for _ in range(count):
            ttl = data[offset]
            length = data[offset + 1]
            if (ttl | length) < 0x80:
                start = offset + 2
            elif ttl < 0x80 and 0 < (high := data[offset + 2]) < 0x80:
                # A two-byte length, as _decode_entries: most payloads
                # that are worth signing are past 127 bytes.
                length = (length & 0x7F) | high << 7
                start = offset + 3
            else:
                ttl, start, length = _long_entry_head(data, offset)
            end = start + length
            if end > size:
                raise CodecError("signed ball entry record runs past the datagram")
            epoch = data[end]
            at = end + 1
            if epoch >= 0x80:
                epoch, at = _long_epoch(data, end)
            mac_start = at + 1
            offset = mac_start + data[at]
            if offset > size:
                raise CodecError("signed ball entry MAC runs past the datagram")
            # Keyed by the epoch and MAC, a digest of the content, so
            # the lookup hashes a few bytes, not the payload; the record
            # is then compared in place.
            tail = data[end:offset]
            key = tail if topic is None else (tail, topic)
            known_entry = known(key)
            if (
                known_entry is not None
                and len(known_entry[0]) == length
                and data.startswith(known_entry[0], start)
            ):
                _, event, signature = known_entry
            else:
                record = data[start:end]
                try:
                    event = parse_record(record)
                except ValueError as exc:
                    raise CodecError(f"corrupt signed ball entry: {exc}") from exc
                signature = (
                    EventSignature(epoch=epoch, mac=data[mac_start:offset])
                    if offset > mac_start
                    else None
                )
                if table is not None:
                    first_sights += 1
                    table.pending.setdefault((_SIGNED, key), (record, event, signature))
                    if topic is None:
                        table.staged[event.id] = key
            event_id = event.id
            events[event_id] = event
            ttls[event_id] = ttl
            signatures.append(signature)
            ts = event.ts
            if ts > max_ts:
                max_ts = ts
    except IndexError:  # the data ended inside a TTL, length, epoch or mac_len
        raise CodecError("truncated signed ball entry") from None
    _expect_end(data, offset, "signed ball")
    if len(ttls) != count:
        raise _named_twice("signed ball")
    if table is not None:
        table.hits += count - first_sights
        table.misses += first_sights
    return SignedBall(
        Ball(events, ttls, False, max_ts if events else 0), tuple(signatures)
    )


def _long_epoch(body, offset: int) -> Tuple[int, int]:
    """``(epoch, offset past it)`` of an epoch that takes more than a
    byte."""
    try:
        epoch, offset = read_uvarint(body, offset, "signed ball entry epoch")
    except ValueError as exc:
        raise CodecError(str(exc)) from exc
    if epoch > _MAX_EPOCH:
        raise CodecError(f"epoch {epoch} overflows the u32 range")
    return epoch, offset


def _encode_topic_envelope_into(
    message: TopicEnvelope, buffer: bytearray
) -> int:
    # Each frame is a complete datagram from the private encoder, so
    # every per-kind encoder is reused unchanged and no public `encode`
    # runs inside another; the frames are laid out as assemble_envelope
    # lays out the ones it is handed.
    payload_total = 0
    frames = []
    for topic, frame_sender, frame_message in message.frames:
        if isinstance(frame_message, TopicEnvelope):  # before recursing
            raise CodecError("topic envelopes cannot nest")
        inner = bytearray()
        payload_total += _encode_into(frame_sender, frame_message, inner)
        frames.append((topic, inner))
    buffer += b"".join(_frame_parts(frames))
    return payload_total


def _expect_end(body, offset: int, what: str) -> None:
    if offset != len(body):
        raise CodecError(f"{len(body) - offset} trailing bytes after {what}")


def _decode_topic_envelope(
    body, count: int, table: Optional[AdmittedEntries], *_
) -> TopicEnvelope:
    # No topic of its own: an envelope is never a frame.
    frames = []
    offset = 0
    for _ in range(count):
        topic, offset = _read_u32(body, offset, "topic frame topic")
        inner_len, start = _read_u32(body, offset, "topic frame length")
        offset = start + inner_len
        if offset > len(body):
            raise CodecError("truncated topic frame body")
        inner = body[start:offset]
        # Reject nesting before recursing: the kind byte sits at a
        # fixed header offset, so a bomb is refused without parsing.
        if len(inner) > _KIND_OFFSET and inner[_KIND_OFFSET] == _ENVELOPE_KIND:
            raise CodecError("topic envelopes cannot nest")
        frame_sender, frame_message = decode(inner, table, topic)
        frames.append((topic, frame_sender, frame_message))
    _expect_end(body, offset, "topic envelope")
    return TopicEnvelope(frames=tuple(frames))


def _encode_records_into(
    events, buffer: bytearray, trailer: int, what: str
) -> int:
    """Append one ``record_len | record`` per event — the record it
    keeps, forwarded verbatim; returns the payload bytes. *trailer* is
    what the message still has to append after its events, counted
    against the cap."""
    size = len(buffer) + trailer
    payload_total = 0
    for index, event in enumerate(events):
        record, payload_nbytes, _ = _record_of(event)
        length = uvarint(len(record))
        size += len(length) + len(record)
        if size > MAX_DATAGRAM:
            raise _crosses_cap(f"{what} event", index, len(events), event, size)
        buffer += length
        buffer += record
        payload_total += payload_nbytes
    return payload_total


def _decode_records(body, offset: int, count: int, what: str) -> Tuple[tuple, int]:
    """Read *count* framed records from *offset*; returns their events —
    each keeping its record, so serving it again ships these bytes —
    and the offset past them."""
    events = []
    for _ in range(count):
        length, start = _read_u32(body, offset, f"{what} record length")
        offset = start + length
        if offset > len(body):
            raise CodecError(f"truncated {what} record")
        try:
            events.append(parse_record(bytes(body[start:offset])))
        except ValueError as exc:
            raise CodecError(f"corrupt {what} record: {exc}") from exc
    return tuple(events), offset


def _encode_pairs_into(pairs, buffer: bytearray, what: str) -> None:
    for source, seq in pairs:
        buffer += _i64s(what, source, seq)


def _decode_pairs(body, offset: int, count: int, what: str) -> Tuple[tuple, int]:
    """Read *count* ``(source, seq)`` pairs from *offset*; returns them
    and the offset past them."""
    if 2 * count > len(body) - offset:  # a pair takes two bytes at least
        raise CodecError(f"truncated {what}")
    pairs = []
    for _ in range(count):
        source, offset = _read_i64(body, offset, what)
        seq, offset = _read_i64(body, offset, what)
        pairs.append((source, seq))
    return tuple(pairs), offset


def _decode_order_key(body, offset: int, present: int, what: str):
    """An optional order key: ``(key or None, offset past it)``."""
    if not present:
        return None, offset
    ts, offset = _read_i64(body, offset, what)
    source, offset = _read_i64(body, offset, what)
    seq, offset = _read_i64(body, offset, what)
    return (ts, source, seq), offset


def _flags(body, offset: int, what: str) -> int:
    if offset >= len(body):
        raise CodecError(f"truncated {what}")
    return body[offset]


def _encode_sync_digest_into(message: SyncDigest, buffer: bytearray) -> int:
    digest = message.digest
    flags = (0x01 if digest.last_key is not None else 0) | (
        0x02 if message.reply else 0
    )
    buffer.append(flags)
    if digest.last_key is not None:
        buffer += _i64s("sync digest order key", *digest.last_key)
    _encode_pairs_into(digest.watermarks, buffer, "sync digest watermark")
    return 0


def _decode_sync_digest(body, count: int, *_) -> SyncDigest:
    flags = _flags(body, 0, "sync digest flags")
    last_key, offset = _decode_order_key(
        body, 1, flags & 0x01, "sync digest order key"
    )
    watermarks, offset = _decode_pairs(
        body, offset, count, "sync digest watermarks"
    )
    _expect_end(body, offset, "sync digest")
    return SyncDigest(
        digest=DeliveryDigest(last_key=last_key, watermarks=watermarks),
        reply=bool(flags & 0x02),
    )


def _encode_sync_request_into(message: SyncRequest, buffer: bytearray) -> int:
    buffer += _u32("sync request req_id", message.req_id & _U32_MAX)
    buffer += _u32("sync request max_events", message.max_events)
    buffer += _u32("sync request max_bytes", message.max_bytes)
    buffer.append(0x01 if message.after is not None else 0)
    if message.after is not None:
        buffer += _i64s("sync request cursor", *message.after)
    _encode_pairs_into(message.watermarks, buffer, "sync request watermark")
    return 0


def _decode_sync_request(body, count: int, *_) -> SyncRequest:
    req_id, offset = _read_u32(body, 0, "sync request req_id")
    max_events, offset = _read_u32(body, offset, "sync request max_events")
    max_bytes, offset = _read_u32(body, offset, "sync request max_bytes")
    flags = _flags(body, offset, "sync request flags")
    after, offset = _decode_order_key(
        body, offset + 1, flags & 0x01, "sync request cursor"
    )
    watermarks, offset = _decode_pairs(
        body, offset, count, "sync request watermarks"
    )
    _expect_end(body, offset, "sync request")
    return SyncRequest(
        req_id=req_id,
        after=after,
        watermarks=watermarks,
        max_events=max_events,
        max_bytes=max_bytes,
    )


def _encode_sync_chunk_into(message: SyncChunk, buffer: bytearray) -> int:
    buffer += _u32("sync chunk req_id", message.req_id & _U32_MAX)
    buffer.append(
        (0x01 if message.more else 0)
        | (0x02 if message.peer_last is not None else 0)
    )
    if message.peer_last is not None:
        buffer += _i64s("sync chunk peer key", *message.peer_last)
    buffer += _CHECKSUM.pack(message.checksum & _U32_MAX)
    return _encode_records_into(message.events, buffer, 0, "sync-chunk")


def _decode_sync_chunk(body, count: int, *_) -> SyncChunk:
    req_id, offset = _read_u32(body, 0, "sync chunk req_id")
    flags = _flags(body, offset, "sync chunk flags")
    peer_last, offset = _decode_order_key(
        body, offset + 1, flags & 0x02, "sync chunk peer key"
    )
    end = offset + _CHECKSUM.size
    if end > len(body):
        raise CodecError("truncated sync chunk checksum")
    (checksum,) = _CHECKSUM.unpack_from(body, offset)
    events, offset = _decode_records(body, end, count, "sync chunk")
    _expect_end(body, offset, "sync chunk")
    return SyncChunk(
        req_id=req_id,
        events=events,
        checksum=checksum,
        more=bool(flags & 0x01),
        peer_last=peer_last,
    )


def _encode_cyclon_into(message, buffer: bytearray) -> int:
    for peer, age in message.entries:
        if not _I32_MIN <= age <= _I32_MAX:
            raise CodecError(f"cyclon age {age} is outside the i32 range")
        buffer += _i64s("cyclon entry", peer, age)
    return 0


def _decode_cyclon(message_type, body, count: int, *_):
    # An entry is a pair, its second member an age in the i32 range.
    entries, offset = _decode_pairs(body, 0, count, "cyclon entries")
    _expect_end(body, offset, "cyclon view")
    for _, age in entries:
        if not _I32_MIN <= age <= _I32_MAX:
            raise CodecError(f"cyclon age {age} overflows the i32 range")
    return message_type(entries=entries)


def _encode_payload_request_into(
    message: PayloadRequest, buffer: bytearray
) -> int:
    buffer += _u32("payload-request req_id", message.req_id & _U32_MAX)
    _encode_pairs_into(message.ids, buffer, "payload-request id")
    return 0


def _decode_payload_request(body, count: int, *_) -> PayloadRequest:
    req_id, offset = _read_u32(body, 0, "payload-request req_id")
    ids, offset = _decode_pairs(body, offset, count, "payload-request ids")
    _expect_end(body, offset, "payload request")
    return PayloadRequest(req_id=req_id, ids=ids)


def _encode_payload_response_into(
    message: PayloadResponse, buffer: bytearray
) -> int:
    missing = bytearray()
    _encode_pairs_into(message.missing, missing, "payload-response missing id")
    buffer += _u32("payload-response req_id", message.req_id & _U32_MAX)
    buffer += _u32("payload-response missing count", len(message.missing))
    payload_total = _encode_records_into(
        message.events, buffer, len(missing), "payload-response"
    )
    buffer += missing
    return payload_total


def _decode_payload_response(body, count: int, *_) -> PayloadResponse:
    req_id, offset = _read_u32(body, 0, "payload-response req_id")
    missing_count, offset = _read_u32(
        body, offset, "payload-response missing count"
    )
    events, offset = _decode_records(body, offset, count, "payload-response")
    missing, offset = _decode_pairs(
        body, offset, missing_count, "payload-response missing ids"
    )
    _expect_end(body, offset, "payload response")
    return PayloadResponse(req_id=req_id, events=events, missing=missing)


# ----------------------------------------------------------------------
# The kind table
# ----------------------------------------------------------------------


class _Kind(NamedTuple):
    """One wire kind: a row of the table below."""

    #: the header's kind byte.
    kind: int
    #: the exact type :func:`encode` finds the row by.
    message_type: type
    #: the header's ``count`` field for a message of this kind.
    count: Callable[[Any], int]
    #: appends the body to a buffer; returns its JSON payload bytes.
    encode_body: Callable[[Any, bytearray], int]
    #: ``(body, count, table, topic)`` -> message; the receiver's table
    #: is for the envelope, which hands it to each of its frames with
    #: the frame's topic — a decoder takes what it has no use for as
    #: ``*_``. ``None`` for the ball kinds: :func:`decode` runs their
    #: entry loops itself, straight off the datagram.
    decode_body: Optional[Callable[..., Any]]


def _entries(message) -> int:
    return len(message.entries)


#: Every kind the codec can carry — the only place one is declared.
#: Adding a kind is one row plus its two body functions.
_KINDS = (
    _Kind(1, Ball, len, _encode_ball_into, None),
    _Kind(2, CyclonRequest, _entries,
          _encode_cyclon_into, partial(_decode_cyclon, CyclonRequest)),
    _Kind(3, CyclonResponse, _entries,
          _encode_cyclon_into, partial(_decode_cyclon, CyclonResponse)),
    _Kind(4, SyncDigest, lambda message: len(message.digest.watermarks),
          _encode_sync_digest_into, _decode_sync_digest),
    _Kind(5, SyncRequest, lambda message: len(message.watermarks),
          _encode_sync_request_into, _decode_sync_request),
    _Kind(6, SyncChunk, lambda message: len(message.events),
          _encode_sync_chunk_into, _decode_sync_chunk),
    _Kind(7, SignedBall, _entries, _encode_signed_ball_into, None),
    _Kind(8, TopicEnvelope, lambda message: len(message.frames),
          _encode_topic_envelope_into, _decode_topic_envelope),
    _Kind(9, IdBall, _entries, _encode_id_ball_into, None),
    _Kind(10, PayloadRequest, lambda message: len(message.ids),
          _encode_payload_request_into, _decode_payload_request),
    _Kind(11, PayloadResponse, lambda message: len(message.events),
          _encode_payload_response_into, _decode_payload_response),
)
_ROW_OF_TYPE: Dict[type, _Kind] = {row.message_type: row for row in _KINDS}
_ROW_OF_KIND: Dict[int, _Kind] = {row.kind: row for row in _KINDS}
_ENVELOPE_KIND = _ROW_OF_TYPE[TopicEnvelope].kind
