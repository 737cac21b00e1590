"""Golden bytes: one sample of every wire kind, pinned to its datagram.

A ball's in-memory shape may change; what it puts on the wire may not.
Each sample below covers its kind's layout — one- and two-byte
varints, a negative timestamp, a payload of ``null``, a signed entry
beside an unsigned one, an envelope carrying three ball kinds — and
its encoding is pinned by length and SHA-256. A pin changes only with
a deliberate change of the wire format (and its header version). Header
version 7 moved every pin; beyond the version byte, only kinds 7 and 9
(varint signed and id-ball entries) and 8, which frames them, changed.
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
    1: (192, "cfdc5c9a5f74e894aa550e9deff79db0901b53335e50a0f19ea6e70c7ffef98e"),
    2: (40, "833d4ffdd8b5cd8f12ae7bddd73338971e15882fca689c29ba9adc2b4878e97a"),
    3: (28, "0d71e5fe1ebcd3a2abc265335d9bea953ff61ec34082bb893cb3723165fb285d"),
    4: (73, "be49586912994aea3d47d03f98cbab2a2320ba4001a65cf2cde52ab373212663"),
    5: (85, "4eacf9f09004ce111d40e4ea46585015d1a0d8bf9723d90001a91d3a05a8e44a"),
    6: (277, "82dec926732f58eb16dc31af8cc75c081815f8f2f37403deeed4bc9a3b45c3ac"),
    7: (230, "4e97db1baa9caca1fa20f2486ec2556c05059ba76aab1dc8dbc45846f71caf47"),
    8: (483, "a8c2df2977aaae797f4d070cbf904cd41fadf6407fede46b3b093af661b4e0f7"),
    9: (47, "8903bb355d7fbb70e0fa2d1bdfed014a48e3383223cc52ac7d41a68df743f665"),
    10: (52, "ac245654814b9e3f182f1218f219c199bebbae737d33e59d2789f5f0cb21d451"),
    11: (284, "76c322a75688224bb5c8d28baf15807a4fb877489568157148e1b8c1b82e3e85"),
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
