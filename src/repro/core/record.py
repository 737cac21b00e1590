"""An event's wire record, built once per :class:`~repro.core.event.Event`.

A plain ball entry (codec kind 1) is ``uvarint ttl | uvarint len |
record``, where the record is everything about the event a copy
carries::

    zigzag-varint ts | zigzag-varint source | zigzag-varint seq |
    payload (UTF-8 JSON, the rest of the record)

The three varints are the record's *head*: an id-ball entry (kind 9)
carries the head alone, and a signed entry (kind 7) the whole record
followed by its epoch and MAC.

An event is relayed about K·TTL times, but its record never changes,
so :func:`wire_record` builds it once and keeps it on the ``Event``
object; an event parsed off the wire (:func:`parse_record`,
:func:`parse_head`) is handed the very bytes it arrived in, so a relay
forwards them verbatim and never serializes a payload it did not
originate. Measuring an event that has no record yet keeps the sizes,
not the bytes (:func:`wire_sizes`).

This module is the one place the record and its varints are written
and read; it lives in ``core`` because both the lazy pull, which cannot
import the codec, and the codec
(:mod:`repro.runtime.codec`, which owns the entry around the record and
turns every ``ValueError`` raised here into a ``CodecError``) need it.
The fields keep the ranges of the fixed-width layout they replaced, and
every varint has exactly one, minimal, encoding of at most ten bytes —
so equal records are equal bytes. The size functions at the bottom
measure the codec's varint framing for the modules that estimate what
they ship without encoding it (the lazy pull, the sync responder).
"""

from __future__ import annotations

import json
from typing import Any, Tuple, Union

from .event import Event

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

_ONE_BYTE = [bytes([value]) for value in range(0x80)]

_NULL_NBYTES = len(b"null")  # the JSON of a payload-less event


def uvarint(value: int) -> bytes:
    """*value* (non-negative) as an unsigned LEB128 varint: seven bits
    a byte, least significant first, the high bit set on every byte
    but the last."""
    if value < 0x80:
        return _ONE_BYTE[value]
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def uvarint_nbytes(value: int) -> int:
    """``len(uvarint(value))``, without building it."""
    return (value.bit_length() + 6) // 7 or 1


def zvarint_nbytes(value: int) -> int:
    """``len(zvarints(value))``, without building it."""
    return (((value << 1) ^ (value >> 63)).bit_length() + 6) // 7 or 1


def read_uvarint(data, offset: int, what: str) -> Tuple[int, int]:
    """One unsigned varint of *data* at *offset*: ``(value, offset
    past it)``.

    Raises:
        ValueError: On a truncated, an over-long (more than ten bytes)
            or a non-minimal encoding.
    """
    end = len(data)
    value = shift = 0
    while True:
        if offset >= end:
            raise ValueError(f"truncated {what}")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and shift:
                raise ValueError(f"non-minimal varint in {what}")
            return value, offset
        shift += 7
        if shift == 70:
            raise ValueError(f"over-long varint in {what}")


def read_zvarint(data, offset: int, what: str) -> Tuple[int, int]:
    """One zigzag varint of *data* at *offset*, an i64: ``(value,
    offset past it)``.

    Raises:
        ValueError: As :func:`read_uvarint`, and on a value outside the
            i64 range.
    """
    value, offset = read_uvarint(data, offset, what)
    if value >> 64:
        raise ValueError(f"{what} overflows the i64 range")
    return (value >> 1) ^ -(value & 1), offset


def fits_i64(*values: int) -> bool:
    """Whether every one of *values* lies in the i64 range a record's
    ``ts``, source and sequence keep — the range of the fixed-width
    layouts the codec writes them in elsewhere, too."""
    return all(_I64_MIN <= value <= _I64_MAX for value in values)


def payload_json(payload: Any) -> bytes:
    """*payload* as the UTF-8 JSON the wire carries.

    Raises:
        TypeError, ValueError: If *payload* is not JSON-serializable.
    """
    return json.dumps(payload).encode()


#: What an event keeps of itself as a plain ball entry: ``(record,
#: payload_nbytes, head_nbytes)``, where *record* is the record's
#: bytes — ``None`` when only the sizes were measured (see
#: :func:`wire_sizes`), ``False`` when the payload is not
#: JSON-serializable (sizes from its ``repr``; the codec refuses the
#: event in every kind that carries a payload) — *payload_nbytes* the
#: JSON payload at the record's end, and *head_nbytes* the three field
#: varints before it. A record with ``payload_nbytes == 0`` is a head
#: alone: the entry of an id-ball (:func:`parse_head`), whose event has
#: no payload. A payload is never empty JSON, so no plain record is
#: one, and :func:`wire_record` replaces it before an event rides in a
#: kind that carries the payload.
WireRecord = Tuple[Union[bytes, bool, None], int, int]


def wire_record(event: Event) -> WireRecord:
    """*event*'s :data:`WireRecord` with its full record bytes, built on
    first use and kept on the event, so every later call — a relay's
    encode above all — is a slot read. A head alone is replaced by the
    full record.

    Raises:
        OverflowError: If ``ts``, the source or the sequence is outside
            the i64 range.
    """
    wire = event._wire
    if wire is None or wire[0] is None or not wire[1]:
        head = zvarints(event.ts, event.source_id, event.id[1])
        try:
            payload = payload_json(event.payload)
            record = head + payload
        except (TypeError, ValueError):
            payload = repr(event.payload).encode()
            record = False
        wire = (record, len(payload), len(head))
        object.__setattr__(event, "_wire", wire)
    return wire


def wire_head(event: Event) -> bytes:
    """The head of *event*'s record — what an id-ball entry carries:
    the record itself when it is a head alone, else sliced from the full
    record :func:`wire_record` keeps. An event without a payload keeps
    its head alone (as one parsed from an id-ball does), so a lazy
    node's own broadcast, stripped for every round's id-ball, builds no
    JSON; an event whose payload is not JSON has no record, and its head
    is built afresh.

    Raises:
        OverflowError: If ``ts``, the source or the sequence is outside
            the i64 range.
    """
    wire = event._wire
    if wire is None or not wire[0]:
        if event.payload is None:
            head = zvarints(event.ts, event.source_id, event.id[1])
            object.__setattr__(event, "_wire", (head, 0, len(head)))
            return head
        wire = wire_record(event)
        if wire[0] is False:
            return zvarints(event.ts, event.source_id, event.id[1])
    record, payload_nbytes, head_nbytes = wire
    return record[:head_nbytes] if payload_nbytes else record


def wire_sizes(event: Event) -> WireRecord:
    """*event*'s :data:`WireRecord`, with the record bytes only if they
    were built already: what the lazy pull's byte accounting reads. The
    sizes are worked out without building the record, so a node that
    serves a payload it never shipped as a plain entry keeps two
    integers per event, not a copy of its payload. An event that keeps
    a head alone has no payload, which travels as JSON ``null``.
    """
    wire = event._wire
    if wire is not None and not wire[1]:
        return (None, _NULL_NBYTES, wire[2])
    if wire is None:
        head = (
            zvarint_nbytes(event.ts)
            + zvarint_nbytes(event.source_id)
            + zvarint_nbytes(event.id[1])
        )
        try:
            payload = len(payload_json(event.payload))
            record = None
        except (TypeError, ValueError):
            payload = len(repr(event.payload).encode())
            record = False
        wire = (record, payload, head)
        object.__setattr__(event, "_wire", wire)
    return wire


def zvarints(*fields: int) -> bytes:
    """The zigzag varints of *fields*: each signed i64 mapped onto an
    unsigned one (0, -1, 1, -2, … → 0, 1, 2, 3, …, so small magnitudes
    of either sign stay short), then written as a :func:`uvarint`. One
    pass, not a call per field: a record is built once per event
    relayed, which is on the simulator's round.

    Raises:
        OverflowError: If a field is outside the i64 range.
    """
    out = bytearray()
    for value in fields:
        if not _I64_MIN <= value <= _I64_MAX:
            raise OverflowError(f"{value} is outside the i64 range")
        value = (value << 1) ^ (value >> 63)
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def _read_head(record) -> Tuple[int, int, int, int]:
    """``(ts, source, seq, offset past them)`` of a record's head.

    A one-byte varint (a value in [-64, 63]: most sources, early
    sequence numbers) is read in line, where it can be neither
    truncated, non-minimal nor out of range; every other field, and
    every error, is :func:`read_zvarint`'s.
    """
    end = len(record)
    byte = record[0] if end else 0x80
    if byte < 0x80:
        ts, at = (byte >> 1) ^ -(byte & 1), 1
    else:
        ts, at = read_zvarint(record, 0, "record ts")
    byte = record[at] if at < end else 0x80
    if byte < 0x80:
        source = (byte >> 1) ^ -(byte & 1)
        at += 1
    else:
        source, at = read_zvarint(record, at, "record source")
    byte = record[at] if at < end else 0x80
    if byte < 0x80:
        seq = (byte >> 1) ^ -(byte & 1)
        at += 1
    else:
        seq, at = read_zvarint(record, at, "record seq")
    return ts, source, seq, at


def parse_record(record: bytes) -> Event:
    """The event a *record* carries, handed *record* itself as its
    :data:`WireRecord` — so relaying it ships these very bytes.

    Raises:
        ValueError: On a malformed varint, a field outside the i64
            range, or a payload that is not UTF-8 JSON (an empty one
            included).
    """
    ts, source, seq, at = _read_head(record)
    payload = json.loads(str(memoryview(record)[at:], "utf-8"))
    event = Event(id=(source, seq), ts=ts, source_id=source, payload=payload)
    object.__setattr__(event, "_wire", (record, len(record) - at, at))
    return event


def parse_head(head: bytes) -> Event:
    """The payload-less event an id-ball entry's *head* names, handed
    *head* as its record — a head alone, which relaying it in an id-ball
    ships verbatim.

    Raises:
        ValueError: On a malformed varint, a field outside the i64
            range, or bytes after the three varints.
    """
    ts, source, seq, at = _read_head(head)
    if at != len(head):
        raise ValueError(f"{len(head) - at} trailing bytes after the record head")
    event = Event(id=(source, seq), ts=ts, source_id=source)
    object.__setattr__(event, "_wire", (head, 0, at))
    return event


# ----------------------------------------------------------------------
# The codec's framing, sized
# ----------------------------------------------------------------------

#: ``magic "EP" | version u8 | kind u8``: the fixed start of a datagram.
HEADER_PREFIX_NBYTES = 4


def header_nbytes(sender: int, count: int) -> int:
    """Bytes of a datagram header (:mod:`repro.runtime.codec`):
    ``magic | version | kind | sender zvarint | count uvarint``."""
    return HEADER_PREFIX_NBYTES + zvarint_nbytes(sender) + uvarint_nbytes(count)


def pair_nbytes(pair: Tuple[int, int]) -> int:
    """Bytes of an event id or a watermark on the wire: ``source
    zvarint | seq zvarint``."""
    return zvarint_nbytes(pair[0]) + zvarint_nbytes(pair[1])


def framed_record_nbytes(event: Event) -> int:
    """Bytes of ``record_len uvarint | record`` — how a sync chunk and a
    pull response carry *event* — from :func:`wire_sizes`, so nothing
    is built to measure it."""
    _, payload, head = wire_sizes(event)
    return uvarint_nbytes(head + payload) + head + payload
