"""Wire-hostility tests for the multi-topic envelope (kind 8).

Mirrors ``test_codec_signed.py`` for the service layer's framing: the
envelope faces the same open internet, so truncated, wrong-version,
bit-flipped and nested datagrams must all be rejected with
:class:`~repro.runtime.codec.CodecError` (or its
:class:`~repro.runtime.codec.CodecVersionError` subclass) — no other
exception may ever escape ``decode``. The damage is
``tests/runtime/hostile.py``'s (``test_codec_corpus.py`` throws it at
every kind, framed and not); here it meets one envelope with a frame of
seven kinds, next to what only envelopes have: nesting, a corrupt inner
frame, the byte layout of the assembler. The unknown-topic-id case is a
*routing* concern, checked in ``tests/service``: any u32 topic id must
round-trip through the codec so the demux can count it.
"""

from __future__ import annotations

import random

import pytest

from repro.auth import BallGuard, HmacAuthenticator, KeyRing, SignedBall
from repro.core.event import Ball, Event
from repro.runtime import codec
from repro.runtime.codec import CodecError, CodecVersionError, TopicEnvelope
from repro.pss.cyclon import CyclonRequest, CyclonResponse
from repro.sync.protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
    events_checksum,
)

from .header import FUTURE_VERSION, pack_frame, pack_header
from .hostile import (
    assert_all_rejected,
    assert_only_codec_errors,
    bit_flips,
    inflated_count,
    trailing_garbage,
    truncations,
)
from .warm_table import checked_decode, warm_table


def _event(src=1, seq=0, ts=10, payload=None):
    return Event(
        id=(src, seq),
        ts=ts,
        source_id=src,
        payload={"v": seq} if payload is None else payload,
    )


def _ball(entries=3):
    return Ball.of(
        [(_event(src=1 + i, seq=i, ts=10 + i), i) for i in range(entries)]
    )


def _signed_ball(entries=2):
    guard = BallGuard(HmacAuthenticator(KeyRing("topic-codec-test")))
    ball = _ball(entries)
    for event in ball.events.values():
        guard.seal(event.source_id, ball)
    return guard.attach(ball)


def _mixed_envelope():
    """One frame of every single-topic kind the codec can carry."""
    chunk_events = tuple(_event(src=4, seq=i, ts=30 + i) for i in range(3))
    return TopicEnvelope(
        frames=(
            (0, 7, _ball()),
            (1, 7, _signed_ball()),
            (2, 9, CyclonRequest(entries=((3, 0), (5, 2)))),
            (2, 9, CyclonResponse(entries=((7, 1),))),
            (
                3,
                7,
                SyncDigest(
                    digest=DeliveryDigest(
                        last_key=(12, 3, 7), watermarks=((1, 4), (3, 9))
                    ),
                    reply=True,
                ),
            ),
            (
                3,
                7,
                SyncRequest(
                    req_id=0xBEEF,
                    after=(8, 2, 1),
                    watermarks=((0, 2),),
                    max_events=32,
                    max_bytes=16_000,
                ),
            ),
            (
                3,
                7,
                SyncChunk(
                    req_id=0xBEEF,
                    events=chunk_events,
                    checksum=events_checksum(chunk_events),
                    more=False,
                    peer_last=None,
                ),
            ),
        )
    )


class TestRoundTrip:
    def test_mixed_envelope_round_trips(self):
        envelope = _mixed_envelope()
        sender, decoded = codec.decode(codec.encode(42, envelope))
        assert sender == 42
        assert isinstance(decoded, TopicEnvelope)
        assert decoded == envelope

    def test_empty_envelope_round_trips(self):
        _, decoded = codec.decode(codec.encode(5, TopicEnvelope(frames=())))
        assert decoded == TopicEnvelope(frames=())

    def test_full_u32_topic_range_round_trips(self):
        envelope = TopicEnvelope(
            frames=((0, 1, _ball(1)), (codec.MAX_TOPIC_ID, 1, _ball(1)))
        )
        _, decoded = codec.decode(codec.encode(1, envelope))
        assert [frame[0] for frame in decoded.frames] == [0, codec.MAX_TOPIC_ID]

    def test_single_topic_kinds_still_decode(self):
        ball = _ball()
        _, decoded = codec.decode(codec.encode(1, ball))
        assert decoded == ball


class TestEncodeRejections:
    def test_out_of_range_topic_id_rejected(self):
        for topic in (-1, codec.MAX_TOPIC_ID + 1):
            with pytest.raises(CodecError):
                codec.encode(1, TopicEnvelope(frames=((topic, 1, _ball(1)),)))

    def test_nested_envelope_rejected_at_encode(self):
        inner = TopicEnvelope(frames=((0, 1, _ball(1)),))
        with pytest.raises(CodecError):
            codec.encode(1, TopicEnvelope(frames=((0, 1, inner),)))

    def test_oversized_envelope_rejected(self):
        big = Ball.of(
            [(_event(seq=i, payload="x" * 1000), 1) for i in range(30)]
        )
        frames = tuple((t, 1, big) for t in range(4))
        with pytest.raises(CodecError):
            codec.encode(1, TopicEnvelope(frames=frames))


def _inner_datagrams(envelope):
    return [
        (topic, codec.encode(sender, message))
        for topic, sender, message in envelope.frames
    ]


def _packed_by_hand(host, frames):
    """The envelope layout written out by hand (``header.py``): the
    header, then per frame ``topic uvarint | inner_len uvarint |
    inner``. ``encode`` of an envelope goes through the codec's own
    assembler, so comparing those two proves nothing; this is what
    catches a layout slip in it."""
    wire = pack_header(8, host, len(frames))
    for topic, inner in frames:
        wire += pack_frame(topic, inner)
    return wire


class TestAssembledEnvelope:
    """``assemble_envelope`` is ``encode`` of the same envelope with the
    frames' bytes handed in: equal output, equal refusals."""

    def test_bytes_equal_the_object_encoder(self):
        for envelope in (_mixed_envelope(), TopicEnvelope(frames=())):
            frames = _inner_datagrams(envelope)
            by_hand = _packed_by_hand(42, frames)
            assert codec.assemble_envelope(42, frames) == by_hand
            assert codec.encode(42, envelope) == by_hand

    def test_full_u32_topic_range(self):
        envelope = TopicEnvelope(
            frames=((0, 1, _ball(1)), (codec.MAX_TOPIC_ID, 1, _ball(1)))
        )
        frames = _inner_datagrams(envelope)
        by_hand = _packed_by_hand(1, frames)
        assert codec.assemble_envelope(1, frames) == by_hand
        assert codec.encode(1, envelope) == by_hand

    def test_out_of_range_topic_id_rejected(self):
        inner = codec.encode(1, _ball(1))
        for topic in (-1, codec.MAX_TOPIC_ID + 1):
            with pytest.raises(CodecError, match="u32"):
                codec.assemble_envelope(1, [(topic, inner)])

    def test_nested_envelope_rejected(self):
        inner = codec.encode(1, TopicEnvelope(frames=((0, 1, _ball(1)),)))
        with pytest.raises(CodecError, match="nest"):
            codec.assemble_envelope(1, [(0, inner)])

    def test_inner_shorter_than_a_header_rejected(self):
        with pytest.raises(CodecError, match="not a datagram"):
            codec.assemble_envelope(1, [(0, b"EP")])

    def test_cap_is_enforced_on_the_assembled_envelope(self):
        big = Ball.of(
            [(_event(seq=i, payload="x" * 1000), 1) for i in range(30)]
        )
        inner = codec.encode(1, big)
        fits = codec.MAX_DATAGRAM // len(pack_frame(0, inner))
        codec.assemble_envelope(1, [(t, inner) for t in range(fits)])
        with pytest.raises(CodecError, match="datagram cap"):
            codec.assemble_envelope(1, [(t, inner) for t in range(fits + 1)])
        # Exactly at the cap passes, one byte over does not: the header,
        # then topic 0 and a three-byte inner length.
        room = codec.MAX_DATAGRAM - len(pack_header(8, 1, 1)) - 1 - 3
        exact = codec.encode(1, _ball(1)).ljust(room, b"\0")
        assert len(codec.assemble_envelope(1, [(0, exact)])) == codec.MAX_DATAGRAM
        with pytest.raises(CodecError, match="datagram cap"):
            codec.assemble_envelope(1, [(0, exact + b"\0")])


class TestVersionGate:
    def test_unknown_version_raises_version_error(self):
        wire = bytearray(codec.encode(1, _mixed_envelope()))
        wire[2] = FUTURE_VERSION
        with pytest.raises(CodecVersionError):
            codec.decode(bytes(wire))

    @pytest.mark.parametrize("version", [1, 2])
    def test_envelope_kind_under_old_versions_rejected(self, version):
        # Versions 1–4 were never deployed: each is as foreign as any.
        wire = bytearray(codec.encode(1, _mixed_envelope()))
        wire[2] = version
        with pytest.raises(CodecVersionError):
            codec.decode(bytes(wire))

    def test_nested_envelope_rejected_at_decode(self):
        # Hand-craft what the encoder refuses to build: a frame whose
        # inner datagram is itself a kind-8 envelope.
        inner = codec.encode(1, TopicEnvelope(frames=((0, 1, _ball(1)),)))
        with pytest.raises(CodecError, match="nest"):
            codec.decode(_packed_by_hand(1, [(9, inner)]))

    def test_bad_inner_version_raises_version_error(self):
        # A frame from a future-version peer is counted as version
        # traffic, not line noise — the error class carries that.
        inner = bytearray(codec.encode(1, _ball(1)))
        inner[2] = 9
        with pytest.raises(CodecVersionError):
            codec.decode(_packed_by_hand(1, [(0, bytes(inner))]))


class TestHostileBytes:
    #: What the hostile bytes are thrown at; the warm-table rerun below
    #: swaps in a receiver that already admitted the genuine envelope.
    decode = staticmethod(codec.decode)

    def test_every_truncation_rejected_cleanly(self):
        wire = codec.encode(7, _mixed_envelope())
        assert_all_rejected(self.decode, truncations(wire))

    def test_trailing_garbage_rejected(self):
        wire = codec.encode(7, _mixed_envelope())
        assert_all_rejected(self.decode, trailing_garbage(wire))

    def test_oversized_frame_count_rejected(self):
        wire = codec.encode(7, _mixed_envelope())
        assert_all_rejected(self.decode, [inflated_count(wire)])

    def test_corrupt_inner_frame_rejected(self):
        wire = bytearray(codec.encode(7, TopicEnvelope(frames=((1, 1, _ball()),))))
        # Garble the inner frame's magic (header 16 + frame head 8).
        wire[24:26] = b"XX"
        with pytest.raises(CodecError):
            self.decode(bytes(wire))

    def test_bit_flip_fuzz_never_escapes_codec_error(self):
        wire = codec.encode(7, _mixed_envelope())
        assert_only_codec_errors(self.decode, bit_flips(wire))


class TestHostileBytesWarmTable(TestHostileBytes):
    """The same hostility against a host whose table already holds the
    entries of every ball frame of the genuine envelope, per topic."""

    def setup_method(self):
        self.table = warm_table(
            codec.encode(7, _mixed_envelope()),
            codec.encode(7, TopicEnvelope(frames=((1, 1, _ball()),))),
        )

    def decode(self, data):
        return checked_decode(data, self.table)


class TestV2V3Differential:
    """Differential fuzz: wrapping must not change what frames mean.

    For any randomly generated single-topic message, encoding it
    standalone and encoding it as an envelope frame must decode back to
    the identical message — so the service path can be adopted topic by
    topic without changing what the traffic means. The flip side: an
    envelope re-stamped with a header version that was never deployed
    must always be refused.
    """

    @staticmethod
    def _random_payload(rng):
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return rng.randrange(-(2**40), 2**40)
        if kind == 2:
            return "x" * rng.randrange(0, 40)
        if kind == 3:
            return {"k": rng.randrange(100), "s": "v" * rng.randrange(8)}
        return [rng.randrange(256) for _ in range(rng.randrange(6))]

    def _random_ball(self, rng):
        entries = []
        for i in range(rng.randrange(1, 9)):
            source = rng.randrange(2**20)
            event = Event(
                id=(source, i),
                ts=rng.randrange(2**40),
                source_id=source,
                payload=self._random_payload(rng),
            )
            entries.append((event, rng.randrange(0, 64)))
        return Ball.of(entries)

    def test_random_messages_identical_standalone_and_framed(self):
        rng = random.Random(0xD1FF)
        for _ in range(200):
            ball = self._random_ball(rng)
            message = (
                SignedBall(ball, signatures=(None,) * len(ball))
                if rng.random() < 0.5
                else ball
            )
            sender = rng.randrange(2**20)
            topic = rng.randrange(2**32)
            standalone = codec.decode(codec.encode(sender, message))
            _, envelope = codec.decode(
                codec.encode(99, TopicEnvelope(frames=((topic, sender, message),)))
            )
            assert envelope.frames == ((topic,) + standalone,)

    def test_downstamped_envelopes_always_rejected(self):
        rng = random.Random(0xD0D0)
        for _ in range(100):
            ball = self._random_ball(rng)
            wire = bytearray(
                codec.encode(1, TopicEnvelope(frames=((rng.randrange(2**32), 1, ball),)))
            )
            wire[2] = rng.choice([1, 2])
            with pytest.raises(CodecError):
                codec.decode(bytes(wire))
