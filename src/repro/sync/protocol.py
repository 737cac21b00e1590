"""Anti-entropy wire protocol: digests, pull requests, log chunks.

Three message types close the TTL gap (see docs/SYNC.md):

* :class:`SyncDigest` — a compact summary of a node's delivered-order
  progress: the order key of its newest delivery plus a per-source
  high-watermark vector (highest sequence number delivered from each
  source). Sent as a probe (``reply=True``, asking the peer to answer
  with its own digest) and as the answer (``reply=False``).
* :class:`SyncRequest` — a cursor-paginated pull: "send me delivery
  records with order key above ``after`` that my watermarks do not
  cover, up to these size caps". Stateless on the responder — every
  request carries the full cursor, so a retry is a plain resend.
* :class:`SyncChunk` — one bounded batch of the missing log suffix, in
  ``(ts, srcId, seq)`` order, carrying its own CRC32 over the events
  (defence in depth above the transport: a corruption that survives
  datagram decoding is still caught before anything is applied) and a
  ``more`` flag driving the next request.

The dataclasses are runtime-agnostic plain data: the simulator and the
in-process asyncio fabric pass them as objects; the UDP fabric encodes
them via :mod:`repro.runtime.codec` (kinds ``SYNC_DIGEST`` /
``SYNC_REQUEST`` / ``SYNC_CHUNK``).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.errors import StorageError
from ..core.event import Event, OrderKey
from ..core.record import framed_record_nbytes, wire_sizes

#: Canonical per-event frame: big-endian (ts, source, seq, payload_len),
#: the prefix of the bytes the checksum and a MAC cover. Not a wire
#: layout: a chunk carries each event's record.
_EVENT_FRAME = struct.Struct("!qqqI")

#: Watermark vector as sorted, immutable ``(source_id, max_seq)`` pairs.
Watermarks = Tuple[Tuple[int, int], ...]


def freeze_watermarks(mapping: Mapping[int, int]) -> Watermarks:
    """Canonical (sorted, immutable) form of a watermark mapping."""
    return tuple(sorted((int(src), int(seq)) for src, seq in mapping.items()))


@dataclass(frozen=True, slots=True)
class DeliveryDigest:
    """Summary of one node's delivered-order progress.

    Attributes:
        last_key: Order key of the newest delivery (``None`` = nothing
            delivered yet).
        watermarks: Per-source high-watermark vector: for each source
            id, the highest sequence number delivered from it. Because
            a source's order keys increase with its sequence numbers,
            "every event from ``s`` with ``seq > watermarks[s]``" is
            exactly "every event from ``s`` this node is missing above
            its history".
    """

    last_key: Optional[OrderKey]
    watermarks: Watermarks = ()

    @classmethod
    def of(
        cls, last_key: Optional[OrderKey], watermarks: Mapping[int, int]
    ) -> "DeliveryDigest":
        """Build from a journal's key + watermark mapping."""
        return cls(
            last_key=tuple(last_key) if last_key is not None else None,
            watermarks=freeze_watermarks(watermarks),
        )

    def as_mapping(self) -> Dict[int, int]:
        """The watermark vector as a plain dict."""
        return dict(self.watermarks)

    def behind(self, other: "DeliveryDigest") -> bool:
        """Whether *other* has progressed past this digest."""
        if other.last_key is None:
            return False
        return self.last_key is None or tuple(self.last_key) < tuple(other.last_key)


@dataclass(frozen=True, slots=True)
class SyncDigest:
    """Digest announcement; ``reply=True`` asks the peer to answer with
    its own digest (the probe half of a digest exchange)."""

    digest: DeliveryDigest
    reply: bool = False


@dataclass(frozen=True, slots=True)
class SyncRequest:
    """Pull one bounded batch of missing deliveries.

    Attributes:
        req_id: Requester-chosen id echoed by the matching chunk, so a
            late chunk from a timed-out request is discarded instead of
            corrupting the session cursor.
        after: Cursor — only records with order key strictly above this
            are wanted (``None`` = from the beginning of the peer's
            log). Advanced past each applied chunk, which makes a
            retried request idempotent.
        watermarks: The requester's per-source watermark vector;
            records already covered by it are skipped even above the
            cursor (they were delivered through the epidemic while the
            pull was in flight).
        max_events: Upper bound on events per chunk.
        max_bytes: Upper bound on the chunk's encoded event bytes.
    """

    req_id: int
    after: Optional[OrderKey]
    watermarks: Watermarks = ()
    max_events: int = 64
    max_bytes: int = 32_000


@dataclass(frozen=True, slots=True)
class SyncChunk:
    """One bounded batch of the missing log suffix, in key order.

    Attributes:
        req_id: Echo of the request this chunk answers.
        events: The delivery records, ordered by ``(ts, srcId, seq)``.
        checksum: :func:`events_checksum` over *events*; verified by
            the requester before anything is applied.
        more: Whether the responder stopped at a size cap with further
            qualifying records remaining.
        peer_last: The responder's newest delivered key at serve time
            (progress telemetry; the confirmation probe is what decides
            convergence).
    """

    req_id: int
    events: Tuple[Event, ...]
    checksum: int
    more: bool = False
    peer_last: Optional[OrderKey] = None


#: Every anti-entropy message type (dispatch surface for the fabrics).
SYNC_MESSAGE_TYPES = (SyncDigest, SyncRequest, SyncChunk)


def event_wire_cost(event: Event) -> int:
    """Encoded size of one event inside a chunk: its record and the
    record's length (:func:`~repro.core.record.framed_record_nbytes`),
    what a responder caps a chunk's bytes by.

    Raises:
        StorageError: If the payload is not JSON-serializable (such an
            event could never have been journaled or encoded).
    """
    if wire_sizes(event)[0] is False:
        raise StorageError(f"payload of event {event.id} is not JSON-serializable")
    return framed_record_nbytes(event)


def canonical_event_bytes(event: Event) -> bytes:
    """The canonical byte encoding of one event.

    The big-endian ``(ts, source, seq, payload_len)`` frame followed by
    the sorted-key JSON payload — the exact bytes
    :func:`events_checksum` CRCs and :mod:`repro.auth` HMACs, identical
    whether the event travelled as an object (sim, in-process asyncio)
    or as a datagram (UDP). The relay-mutable TTL is deliberately *not*
    part of the canonical form (docs/SECURITY.md).
    """
    payload = _canonical_payload(event)
    return (
        _EVENT_FRAME.pack(event.ts, event.source_id, event.seq, len(payload))
        + payload
    )


def events_checksum(events: Sequence[Event]) -> int:
    """CRC32 over the canonical encoding of *events*.

    Canonical form per event: :func:`canonical_event_bytes`.
    """
    crc = 0
    for event in events:
        crc = zlib.crc32(canonical_event_bytes(event), crc)
    return crc


def _canonical_payload(event: Event) -> bytes:
    try:
        return json.dumps(event.payload, sort_keys=True).encode()
    except (TypeError, ValueError) as exc:
        raise StorageError(
            f"payload of event {event.id} is not JSON-serializable: {exc}"
        ) from exc
