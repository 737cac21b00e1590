"""Golden bytes: one sample of every wire kind, pinned to its datagram.

A ball's in-memory shape may change; what it puts on the wire may not.
Each sample below covers its kind's layout — one- and two-byte
varints, a negative timestamp, a payload of ``null``, a signed entry
beside an unsigned one, an envelope carrying three ball kinds — and
its encoding is pinned by length and SHA-256. A pin changes only with
a deliberate change of the wire format (and its header version). Header
version 7 moved every pin; beyond the version byte, only kinds 7 and 9
(varint signed and id-ball entries) and 8, which frames them, changed.
Header version 8 moved every pin again: the header and every framing
integer became varints, and chunk and pull-response events their
framed records.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.auth import BallGuard, HmacAuthenticator, KeyRing
from repro.core.event import Ball, Event
from repro.lazy.protocol import PayloadRequest, PayloadResponse
from repro.pss.cyclon import CyclonRequest, CyclonResponse
from repro.runtime import codec
from repro.runtime.codec import TopicEnvelope
from repro.sync.protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
    events_checksum,
)

from ..conftest import id_ball


def _event(src, seq, ts, payload):
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


#: ``(event, ttl)``: one-byte varints; a two-byte TTL and record length
#: with a negative timestamp; wide fields and a ``null`` payload. The
#: signed sample signs the first two and leaves the third unsigned; the
#: id-ball sample carries all three heads.
PAIRS = [
    (_event(1, 0, 10, {"v": 0}), 0),
    (_event(2, 7, -3, "x" * 130), 200),
    (_event(300, 1 << 40, 1 << 62, None), 5),
]
EVENTS = tuple(event for event, _ in PAIRS)


def _ball():
    return Ball.of(PAIRS)


def _signed():
    """The ball with the entries of sources 1 and 2 signed, the third
    unsigned."""
    guard = BallGuard(HmacAuthenticator(KeyRing("golden")))
    guard.seal(1, _ball())
    guard.seal(2, _ball())
    return guard.attach(_ball())


SAMPLES = {
    1: _ball(),
    2: CyclonRequest(entries=((3, 0), (5, 2))),
    3: CyclonResponse(entries=((7, 1),)),
    4: SyncDigest(
        digest=DeliveryDigest(last_key=(12, 3, 7), watermarks=((1, 4), (3, 9))),
        reply=True,
    ),
    5: SyncRequest(
        req_id=0xBEEF,
        after=(8, 2, 1),
        watermarks=((0, 2), (2, 6)),
        max_events=32,
        max_bytes=16000,
    ),
    6: SyncChunk(
        req_id=0xBEEF,
        events=EVENTS,
        checksum=events_checksum(EVENTS),
        more=True,
        peer_last=(30, 4, 2),
    ),
    7: _signed(),
    8: TopicEnvelope(
        frames=((0, 7, _ball()), (1, 7, _signed()), (2, 9, id_ball((10, 1, 0, 2))))
    ),
    9: id_ball(*((e.ts, e.source_id, e.seq, ttl) for e, ttl in PAIRS)),
    10: PayloadRequest(req_id=0xCAFE, ids=((1, 0), (2, 1))),
    11: PayloadResponse(req_id=0xCAFE, events=EVENTS, missing=((90, 0), (91, 1))),
}

#: kind -> (datagram length, SHA-256 of ``codec.encode(7, SAMPLES[kind])``).
GOLDEN = {
    1: (182, "62905696d0eb5384817a5c52de953fea631913611b0f1e0c55ef1fcbb69e4e7a"),
    2: (10, "1e8f67262d759a0f4869221656a86f87a1a90d7021a9de4f69908c0916d36f2e"),
    3: (8, "37e97384bec4d1a139464d652b272e5c98f2372115962fe7ef000479c3126bed"),
    4: (14, "925076fd7602d6800238eb498ee1d99bec59a0ebc2234d2399bcf1652a6d42b4"),
    5: (20, "73a4b3c42273959bf3db0f2debb6d854c2a31fbde9131e90b77d485601a2e1a8"),
    6: (189, "d56e66e6ea23043d599b9e616af55f36f46cd965fd928611647e25a324c6e7da"),
    7: (220, "58e954eaad8ddc7f0983972727df4a95913828dbabfd9ac1d405022a1f8eb0bf"),
    8: (427, "85b2bfca6cd707402f91f6adda7d76c1efc61b5645298ff142639bfad26705b8"),
    9: (37, "91dd02162909611489ae71616ef61f00bb7c018bc5bd689c479be23ed557d589"),
    10: (13, "dca17290b6c06dda67bc7c84ac89a1d5b37ce4f787195bf848e3cbe868d4e6e3"),
    11: (188, "92c967db8b492933dc85648315df5084a2e4a89ff1c29ea62b3097da4db5b277"),
}


def test_every_kind_has_a_golden_sample():
    assert set(SAMPLES) == set(GOLDEN) == {row.kind for row in codec._KINDS}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_encode_is_byte_identical_to_the_pinned_datagram(kind):
    wire = codec.encode(7, SAMPLES[kind])
    assert wire[3] == kind
    assert (len(wire), hashlib.sha256(wire).hexdigest()) == GOLDEN[kind], wire.hex()
    assert codec.decode(wire) == (7, SAMPLES[kind])
    # The pooled path every UDP send takes writes the same bytes.
    assert bytes(codec.encode_into(7, SAMPLES[kind], bytearray(b"stale"))) == wire
