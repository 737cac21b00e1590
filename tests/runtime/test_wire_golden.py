"""Golden bytes: one sample of every wire kind, pinned to its datagram.

A ball's in-memory shape may change; what it puts on the wire may not.
Each sample below covers its kind's layout — one- and two-byte
varints, a negative timestamp, a payload of ``null``, a signed entry
beside an unsigned one, an envelope carrying three ball kinds — and
its encoding is pinned by length and SHA-256. A pin changes only with
a deliberate change of the wire format (and its header version).
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
#: with a negative timestamp; wide fields and a ``null`` payload.
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
    1: (192, "d3d8f4dd0423136f8ebf5c52c2c21be17d05df8a297b9f31790cdf676e36e630"),
    2: (40, "7f4eddb4b40ae465491cf75a5593bad02c87bfe9fbded4fca465700f8a9cba0f"),
    3: (28, "7434aaaad441d13cde413f13ab3e0771f492f54911ccc5ae9ebda3c03729eb5c"),
    4: (73, "76ee52e627f4ba5ac5997623f07a43c66de49ccbc29ac0f1434b206091d45f97"),
    5: (85, "653dfcc101f496f348df3746780fffbdfba7c2adae587c182b199a552b8ccf42"),
    6: (277, "a34cc5348f071afedd9aa43c73b0f2d6080e9fd47b7e4d144dd7efb53eef3caf"),
    7: (303, "2ef493aa7e170b75f9af1dc8b94c42cb0e0f55a98e52380d9c2a6b85a82255c2"),
    8: (579, "216516d0b4457288cb5f4ba09ce28fa0057fe6b1ac57116f60faebc37489f345"),
    9: (100, "7f0fb9988602134b4e607cb48bf7807dd4d58f11c755d6f37ef324ad0e040f54"),
    10: (52, "ec53b632ae84733594abce6c4e934f32c139234ab564bbfc89081124c3651540"),
    11: (284, "a23536d84033fa4397fe4395e3ecd82ecba9c906e80d529a3f7d1f598e37cd39"),
}


def test_every_kind_has_a_golden_sample():
    assert set(SAMPLES) == set(GOLDEN) == {row.kind for row in codec._KINDS}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_encode_is_byte_identical_to_the_pinned_datagram(kind):
    wire = codec.encode(7, SAMPLES[kind])
    assert wire[3] == kind
    assert (len(wire), hashlib.sha256(wire).hexdigest()) == GOLDEN[kind], wire.hex()
    assert codec.decode(wire) == (7, SAMPLES[kind])
