"""One hostile-bytes corpus over the codec's kind table.

``codec._KINDS`` is the only place a wire kind is declared, so it is
also what says which kinds can reach a node. This file holds a sample
message for every row — alone, and wrapped in an envelope frame — and
throws the damage of ``tests/runtime/hostile.py`` at each, as ``bytes``,
``bytearray`` and ``memoryview``, at a cold receiver and at one whose
:class:`~repro.runtime.codec.AdmittedEntries` already holds the genuine
datagram. The only escapes are :class:`~repro.runtime.codec.CodecError`
subclasses, and a datagram stamped with any header version but the one
raises :class:`~repro.runtime.codec.CodecVersionError`, which the UDP
fabric counts apart from line noise. A kind added to the table without
a sample here fails the first test. The varints of the three ball
kinds' entries get damage of their own: too long, not minimal, out of
their field's range (TTL i32, timestamp i64, epoch u32), a record or
MAC that runs past the datagram, and an id-ball head with bytes after
its three varints. A ball of any of the three ball kinds that names one
event id twice is refused, and the fabric counts it as malformed.
"""

from __future__ import annotations

import asyncio
import random
import typing

import pytest

from repro.auth import (
    BallGuard,
    EventSignature,
    HmacAuthenticator,
    KeyRing,
    SignedBall,
)
from repro.core.event import Ball, Event
from repro.lazy.protocol import PayloadRequest, PayloadResponse
from repro.pss.cyclon import CyclonRequest, CyclonResponse
from repro.runtime import codec, udp
from repro.runtime.codec import CodecError, CodecVersionError, TopicEnvelope
from repro.runtime.udp import UdpNetwork
from repro.sync.protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
    events_checksum,
)

from repro.core.record import uvarint

from ..conftest import id_ball
from .header import (
    FUTURE_VERSION,
    VERSION,
    body_of,
    header_end,
    pack_header,
    varint_end,
    with_count,
)
from .hostile import (
    assert_all_rejected,
    assert_only_codec_errors,
    bit_flips,
    inflated_count,
    trailing_garbage,
    truncations,
)
from .warm_table import checked_decode, warm_table


def _event(src, seq):
    return Event(id=(src, seq), ts=10 + seq, source_id=src, payload={"v": seq})


def _ball(entries=3):
    return Ball.of([(_event(1 + i, i), i) for i in range(entries)])


def _signed_ball():
    """Three signed entries and one unsigned (``mac_len == 0``)."""
    guard = BallGuard(HmacAuthenticator(KeyRing("corpus")))
    for source in (1, 2, 3):
        guard.seal(source, _ball(3))
    return guard.attach(_ball(4))


_EVENTS = tuple(_event(4 + i, i) for i in range(3))

#: A message for every kind byte of the table.
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
        max_bytes=16_000,
    ),
    6: SyncChunk(
        req_id=0xBEEF,
        events=_EVENTS,
        checksum=events_checksum(_EVENTS),
        more=True,
        peer_last=(30, 4, 2),
    ),
    7: _signed_ball(),
    8: TopicEnvelope(
        frames=((0, 7, _ball()), (1, 7, _signed_ball()), (1, 9, id_ball()))
    ),
    9: id_ball((10, 1, 0, 2), (11, 2, 1, 3)),
    10: PayloadRequest(req_id=0xCAFE, ids=((1, 0), (2, 1))),
    11: PayloadResponse(req_id=0xCAFE, events=_EVENTS, missing=((90, 0), (91, 1))),
}

_FRAME_TOPIC = 17


def _corpus():
    """``(name, message, sender, wire)`` for every sample alone and —
    but for the envelope, which cannot nest — as the one frame of an
    envelope."""
    for kind, message in SAMPLES.items():
        # Kind 1's cases keep the ids they have always had.
        name = f"kind{kind}-{'tuple' if kind == 1 else type(message).__name__}"
        yield name, message, 7, codec.encode(7, message)
        if not isinstance(message, TopicEnvelope):
            framed = TopicEnvelope(frames=((_FRAME_TOPIC, 7, message),))
            yield name + "-framed", framed, 9, codec.encode(9, framed)


CORPUS = list(_corpus())
WIRES = [pytest.param(wire, id=name) for name, _, _, wire in CORPUS]

#: How a transport may hand a datagram over.
INPUTS = [bytes, bytearray, memoryview]

#: Every header version but the one (versions 1–4 were never deployed;
#: 5 carried the fixed-width plain ball entry, 6 the fixed-width signed
#: and id-ball entries, 7 the fixed-width header and framing).
FOREIGN_VERSIONS = (0, 1, 2, 3, 4, 5, 6, 7, FUTURE_VERSION, 255)


def _inner_version_offset(envelope) -> int:
    """Where the first inner header's version byte sits in *envelope*:
    past the outer header, the frame's topic and length, and the magic."""
    at = varint_end(envelope, varint_end(envelope, header_end(envelope)))
    return at + 2


def _receivers(wire, as_input):
    """The decoders under test: a cold receiver, and one that already
    admitted *wire* and checks every answer against the cold one."""
    table = warm_table(wire)
    return (
        lambda data: codec.decode(as_input(data)),
        lambda data: checked_decode(as_input(data), table),
    )


def _stamped(wire, offset, version):
    return wire[:offset] + bytes([version]) + wire[offset + 1 :]


def test_the_corpus_covers_the_kind_table():
    assert set(SAMPLES) == {row.kind for row in codec._KINDS}
    for kind, message in SAMPLES.items():
        assert codec.encode(1, message)[3] == kind
    carried = set(typing.get_args(codec.WireMessage))
    assert carried == {row.message_type for row in codec._KINDS}


@pytest.mark.parametrize(
    "name, message, sender, wire", CORPUS, ids=[case[0] for case in CORPUS]
)
def test_round_trips_under_the_one_version(name, message, sender, wire):
    assert wire[:2] == b"EP" and wire[2] == VERSION
    if name.endswith("-framed"):
        assert wire[_inner_version_offset(wire)] == VERSION
    assert codec.decode(wire) == (sender, message)
    assert checked_decode(wire, warm_table(wire)) == (sender, message)


@pytest.mark.parametrize("as_input", INPUTS)
@pytest.mark.parametrize("wire", WIRES)
def test_structural_damage_is_refused(wire, as_input):
    for decode in _receivers(wire, as_input):
        assert_all_rejected(decode, truncations(wire))
        assert_all_rejected(decode, trailing_garbage(wire))
        assert_all_rejected(decode, [inflated_count(wire)])


@pytest.mark.parametrize("as_input", INPUTS)
@pytest.mark.parametrize("wire", WIRES)
def test_bit_flips_only_ever_raise_codec_errors(wire, as_input):
    for decode in _receivers(wire, as_input):
        assert_only_codec_errors(decode, bit_flips(wire, rounds=200))


@pytest.mark.parametrize("wire", WIRES)
def test_a_foreign_version_is_a_version_error(wire):
    offsets = [2]
    if wire[3] == 8 and len(wire) > header_end(wire):
        offsets.append(_inner_version_offset(wire))  # the first inner frame's
    for decode in _receivers(wire, bytes):
        for offset in offsets:
            for version in FOREIGN_VERSIONS:
                with pytest.raises(CodecVersionError):
                    decode(_stamped(wire, offset, version))


#: What :meth:`UdpNetwork.set_corruption` does to a datagram, and what
#: each refusal says (a cut may end anywhere, so its refusal varies).
CORRUPTIONS = {
    "garbled magic": (udp._CORRUPTIONS[0], "bad magic"),
    "truncated": (udp._CORRUPTIONS[1], None),
    "non-minimal count": (udp._CORRUPTIONS[2], "non-minimal"),
}


@pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
@pytest.mark.parametrize("wire", WIRES)
def test_every_corruption_mode_of_the_fabric_is_refused(wire, mode):
    corrupt, refusal = CORRUPTIONS[mode]
    rng = random.Random(mode)
    for decode in _receivers(wire, bytes):
        for _ in range(8):
            # pytest.raises lets any other exception through.
            with pytest.raises(CodecError, match=refusal):
                decode(corrupt(wire, rng))


def test_an_unknown_kind_under_the_one_version_is_malformed():
    wire = codec.encode(1, SAMPLES[2])
    for kind in (0, 12, 255):
        with pytest.raises(CodecError, match="unknown message kind") as refusal:
            codec.decode(wire[:3] + bytes([kind]) + wire[4:])
        assert not isinstance(refusal.value, CodecVersionError)


def test_the_fabric_counts_foreign_versions_apart_from_noise():
    foreign = [
        _stamped(wire, 2, FOREIGN_VERSIONS[index % len(FOREIGN_VERSIONS)])
        for index, (_, _, _, wire) in enumerate(CORPUS)
    ]
    framed_ball = codec.encode(9, TopicEnvelope(frames=((_FRAME_TOPIC, 7, _ball()),)))
    foreign.append(_stamped(framed_ball, _inner_version_offset(framed_ball), 4))

    async def scenario():
        network = UdpNetwork()
        inbox = []
        network.register(1, lambda src, msg: inbox.append(msg))
        network.register(2, lambda src, msg: None)
        await network.open_all()
        address = network.address_of(1)
        for datagram in foreign:
            network._transports[2].sendto(datagram, address)  # noqa: SLF001
        await asyncio.sleep(0.1)
        await network.close()
        return inbox, network.stats

    inbox, stats = asyncio.run(scenario())
    assert inbox == []
    assert stats.dropped_bad_version == len(foreign)
    assert stats.dropped_malformed == 0


def _datagram(kind: int, body: bytes) -> bytes:
    """A one-entry datagram of ball *kind* from sender 7 with a
    hand-written *body*."""
    return pack_header(kind, 7, 1) + body


#: ``ts 10 | source 1 | seq 0`` as zigzag varints: a record's head.
_HEAD = b"\x14\x02\x00"

#: The head, then a JSON payload.
_RECORD = _HEAD + b'"ok"'


def _entry(ttl: bytes, record: bytes) -> bytes:
    return ttl + uvarint(len(record)) + record


#: Eleven bytes, every one but the last with the continuation bit.
_ELEVEN = b"\xff" * 10 + b"\x01"

_MAC = b"m" * 16


def _signed_entry(
    ttl: bytes = b"\x03", record: bytes = _RECORD, epoch: bytes = b"\x00", mac=_MAC
) -> bytes:
    return _entry(ttl, record) + epoch + bytes((len(mac),)) + mac


#: The well-formed entry of each ball kind the damage below is made from.
_GENUINE = {1: _entry(b"\x03", _RECORD), 7: _signed_entry(), 9: _entry(b"\x03", _HEAD)}

#: Ball entries no honest encoder writes, each refused whole: ``(kind,
#: body, what the refusal says)``; the plain ones keep their old names.
VARINT_DAMAGE = {
    "over-long ttl": (1, _entry(_ELEVEN, _RECORD), "over-long varint"),
    "over-long ts": (1, _entry(b"\x00", _ELEVEN + b"\x02\x00" + b"0"), "over-long varint"),
    # Minimal varints, but beyond the i32 TTL and the i64 timestamp.
    "ttl beyond i32": (1, _entry(uvarint(1 << 31), _RECORD), "i32 range"),
    "ts beyond i64": (
        1,
        _entry(b"\x00", uvarint(1 << 64) + b"\x02\x00" + b"0"),
        "i64 range",
    ),
    # A length that claims more than the datagram holds.
    "record past the datagram": (
        1,
        b"\x00" + uvarint(len(_RECORD) + 1) + _RECORD,
        "runs past the datagram",
    ),
    # Padded with a zero group: the same value in a second spelling.
    "non-minimal ttl": (1, _entry(b"\x81\x00", _RECORD), "non-minimal varint"),
    "kind7-over-long ttl": (7, _signed_entry(ttl=_ELEVEN), "over-long varint"),
    "kind7-non-minimal ttl": (7, _signed_entry(ttl=b"\x81\x00"), "non-minimal varint"),
    "kind7-ttl beyond i32": (7, _signed_entry(ttl=uvarint(1 << 31)), "i32 range"),
    "kind7-over-long ts": (
        7,
        _signed_entry(record=_ELEVEN + b"\x02\x00" + b"0"),
        "over-long varint",
    ),
    "kind7-over-long epoch": (7, _signed_entry(epoch=_ELEVEN), "over-long varint"),
    "kind7-non-minimal epoch": (7, _signed_entry(epoch=b"\x80\x00"), "non-minimal varint"),
    "kind7-epoch beyond u32": (7, _signed_entry(epoch=uvarint(1 << 32)), "u32 range"),
    "kind7-record past the datagram": (
        7,
        b"\x03" + uvarint(len(_RECORD) + 1) + _RECORD,
        "runs past the datagram",
    ),
    "kind7-mac past the datagram": (7, _signed_entry()[:-1], "runs past the datagram"),
    "kind7-empty payload": (7, _signed_entry(record=_HEAD), "corrupt signed ball entry"),
    "kind9-over-long ttl": (9, _entry(_ELEVEN, _HEAD), "over-long varint"),
    "kind9-non-minimal ttl": (9, _entry(b"\x81\x00", _HEAD), "non-minimal varint"),
    "kind9-ttl beyond i32": (9, _entry(uvarint(1 << 31), _HEAD), "i32 range"),
    "kind9-over-long seq": (9, _entry(b"\x03", b"\x14\x02" + _ELEVEN), "over-long varint"),
    "kind9-non-minimal ts": (9, _entry(b"\x03", b"\x94\x00\x02\x00"), "non-minimal varint"),
    "kind9-ts beyond i64": (9, _entry(b"\x03", uvarint(1 << 64) + b"\x02\x00"), "i64 range"),
    "kind9-head with trailing bytes": (9, _entry(b"\x03", _RECORD), "trailing bytes"),
    "kind9-head past the datagram": (
        9,
        b"\x03" + uvarint(len(_HEAD) + 1) + _HEAD,
        "runs past the datagram",
    ),
}


def test_the_damage_cases_are_otherwise_well_formed():
    event = Event(id=(1, 0), ts=10, source_id=1, payload="ok")
    signed = SignedBall(Ball.of([(event, 3)]), (EventSignature(0, _MAC),))
    assert _datagram(1, _GENUINE[1]) == codec.encode(7, Ball.of([(event, 3)]))
    assert _datagram(7, _GENUINE[7]) == codec.encode(7, signed)
    assert _datagram(9, _GENUINE[9]) == codec.encode(7, id_ball((10, 1, 0, 3)))


@pytest.mark.parametrize(
    "kind, body, refusal", list(VARINT_DAMAGE.values()), ids=list(VARINT_DAMAGE)
)
@pytest.mark.parametrize("framed", [False, True], ids=["alone", "framed"])
def test_damaged_varints_are_codec_errors(kind, body, refusal, framed):
    wire, genuine = _datagram(kind, body), _datagram(kind, _GENUINE[kind])
    if framed:
        wire = codec.assemble_envelope(9, [(_FRAME_TOPIC, wire)])
        genuine = codec.assemble_envelope(9, [(_FRAME_TOPIC, genuine)])
    # A cold receiver, and one whose table holds the genuine entry.
    for decode in _receivers(genuine, bytes):
        with pytest.raises(CodecError, match=refusal) as raised:
            decode(wire)
        assert not isinstance(raised.value, CodecVersionError)


def _twice(once: bytes) -> bytes:
    """*once*, a one-entry ball datagram, with its entry laid twice: a
    ball that names one id twice, which no :class:`Ball` can hold."""
    return with_count(once, 2) + body_of(once)


#: One-entry datagrams of the three ball kinds.
ONCE = {
    "kind1": codec.encode(7, _ball(1)),
    "kind7": codec.encode(7, SignedBall(_ball(1), (None,))),
    "kind9": codec.encode(7, id_ball((10, 1, 0, 2))),
}


@pytest.mark.parametrize("framed", [False, True], ids=["alone", "framed"])
@pytest.mark.parametrize("kind", sorted(ONCE))
def test_a_ball_that_names_an_id_twice_is_refused(kind, framed):
    once, twice = ONCE[kind], _twice(ONCE[kind])
    if framed:
        once = codec.assemble_envelope(9, [(_FRAME_TOPIC, once)])
        twice = codec.assemble_envelope(9, [(_FRAME_TOPIC, twice)])
    # A cold receiver, and one for which the first copy is a hit.
    for decode in _receivers(once, bytes):
        with pytest.raises(CodecError, match="twice") as refusal:
            decode(twice)
        assert not isinstance(refusal.value, CodecVersionError)


def test_the_fabric_counts_a_ball_naming_an_id_twice_as_malformed():
    datagrams = [_twice(once) for once in ONCE.values()]

    async def scenario():
        network = UdpNetwork()
        inbox = []
        network.register(1, lambda src, msg: inbox.append(msg))
        network.register(2, lambda src, msg: None)
        await network.open_all()
        for datagram in datagrams:
            endpoint = network._transports[2]  # noqa: SLF001 - test rig
            endpoint.sendto(datagram, network.address_of(1))
        await asyncio.sleep(0.1)
        await network.close()
        return inbox, network.stats

    inbox, stats = asyncio.run(scenario())
    assert inbox == []
    assert stats.dropped_malformed == len(datagrams) == 3
