"""Wire-hostility tests for the lazy-push codec (kinds 9-11).

Mirrors ``test_codec_topic.py`` for the lazy-push subsystem's framing:
id-balls, payload pull requests and payload responses face the same
open internet as every other kind, so truncated, wrong-version,
bit-flipped and oversized datagrams must all be rejected with
:class:`~repro.runtime.codec.CodecError` (or its
:class:`~repro.runtime.codec.CodecVersionError` subclass) — no other
exception may ever escape ``decode``. The damage is
``tests/runtime/hostile.py``'s, which ``test_codec_corpus.py`` throws at
every kind.
"""

from __future__ import annotations

import random

import pytest

from repro.auth import EventSignature, SignedBall
from repro.core import EpToConfig
from repro.core.event import Ball, Event
from repro.core.record import uvarint
from repro.lazy.process import LazyEpToProcess
from repro.lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from repro.runtime import codec
from repro.runtime.codec import CodecError, CodecVersionError, TopicEnvelope

from ..conftest import RecordingTransport, StaticPeerSampler, id_ball

from .header import FUTURE_VERSION, body_of, header_end, pack_header
from .hostile import (
    assert_all_rejected,
    assert_only_codec_errors,
    bit_flips,
    inflated_count,
    trailing_garbage,
    truncations,
)


def _event(src=1, seq=0, ts=10, payload=None):
    return Event(
        id=(src, seq),
        ts=ts,
        source_id=src,
        payload={"v": seq} if payload is None else payload,
    )


def _id_ball(entries=3):
    return id_ball(*((10 + i, 1 + i, i, 2 + i) for i in range(entries)))


def _request(ids=3):
    return PayloadRequest(
        req_id=0xCAFE, ids=tuple((1 + i, i) for i in range(ids))
    )


def _response(events=3, missing=2):
    return PayloadResponse(
        req_id=0xCAFE,
        events=tuple(_event(src=2 + i, seq=i, ts=20 + i) for i in range(events)),
        missing=tuple((90 + i, i) for i in range(missing)),
    )


_BUILDERS = [_id_ball, _request, _response]
_IDS = ["id_ball-kind9", "request-kind10", "response-kind11"]


class TestRoundTrip:
    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_lazy_messages_round_trip(self, build):
        message = build()
        sender, decoded = codec.decode(codec.encode(42, message))
        assert sender == 42
        assert decoded == message

    def test_empty_messages_round_trip(self):
        for message in (
            id_ball(),
            PayloadRequest(req_id=0, ids=()),
            PayloadResponse(req_id=0, events=(), missing=()),
        ):
            _, decoded = codec.decode(codec.encode(5, message))
            assert decoded == message

    def test_missing_only_response_round_trips(self):
        message = PayloadResponse(
            req_id=7, events=(), missing=((1, 0), (2, 5))
        )
        _, decoded = codec.decode(codec.encode(1, message))
        assert decoded == message

    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_lazy_kinds_round_trip_inside_envelopes(self, build):
        message = build()
        envelope = TopicEnvelope(frames=((17, 3, message),))
        _, decoded = codec.decode(codec.encode(9, envelope))
        assert decoded == envelope

    def test_payload_accounting_splits_response_bytes(self):
        codec.encode(1, _id_ball())
        assert codec.last_encode_payload_bytes() == 0
        codec.encode(1, _response())
        assert codec.last_encode_payload_bytes() > 0


class TestMetaEventsNeverLeak:
    """An event decoded from an id-ball keeps its head as its record —
    a record with no payload bytes, which the id-ball encoder ships
    verbatim. Should such a meta-event ride in a plain or signed ball,
    the encoder builds its full record (payload ``null``) instead of
    shipping a payload-less one that every receiver refuses."""

    def _relayed_meta_event(self):
        """The event a lazy node relays after an id-ball arrived."""
        shipped = []

        class Fabric(RecordingTransport):
            def send_many(self, src, dsts, message):
                shipped.append(message)

        process = LazyEpToProcess(
            node_id=2,
            config=EpToConfig(fanout=2, ttl=4, mode="lazy"),
            peer_sampler=StaticPeerSampler([5, 6]),
            transport=Fabric(),
            on_deliver=lambda event: None,
            time_source=lambda: 5,
            rng=random.Random(0),
        )
        _, arrived = codec.decode(codec.encode(9, id_ball((10, 1, 0, 2))))
        process.on_lazy_message(9, arrived)
        process.on_round()
        [relayed] = shipped
        [event] = relayed.ball.events.values()
        assert event is next(iter(arrived.ball.events.values()))
        assert event._wire == (b"\x14\x02\x00", 0, 3)  # a head alone
        return event, relayed

    def test_a_relayed_meta_event_ships_its_head_verbatim(self):
        event, relayed = self._relayed_meta_event()
        assert body_of(codec.encode(2, relayed)) == b"\x03\x03\x14\x02\x00"
        assert event._wire == (b"\x14\x02\x00", 0, 3)

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda ball: ball,
            lambda ball: SignedBall(ball, (None,)),
            lambda ball: SignedBall(ball, (EventSignature(0, b"m" * 16),)),
        ],
        ids=["plain", "unsigned", "signed"],
    )
    def test_a_relayed_meta_event_cannot_leak_into_a_payload_carrying_ball(self, wrap):
        event, relayed = self._relayed_meta_event()
        message = wrap(Ball.of([(event, 3)]))
        wire = codec.encode(2, message)
        assert b"\x14\x02\x00null" in wire
        _, decoded = codec.decode(wire)
        assert decoded == message
        # Once the full record is built, an id-ball still ships the head.
        assert body_of(codec.encode(2, relayed)) == b"\x03\x03\x14\x02\x00"

    def test_a_plain_entry_without_a_payload_is_refused(self):
        wire = pack_header(1, 2, 1)
        with pytest.raises(CodecError, match="corrupt ball entry"):
            codec.decode(wire + b"\x03\x03\x14\x02\x00")


class TestEncodeRejections:
    def test_non_json_payload_rejected(self):
        bad = PayloadResponse(
            req_id=1, events=(_event(payload=object()),), missing=()
        )
        with pytest.raises(CodecError, match="JSON"):
            codec.encode(1, bad)

    def test_oversized_response_rejected(self):
        big = PayloadResponse(
            req_id=1,
            events=tuple(
                _event(src=1, seq=i, payload="x" * 4000) for i in range(20)
            ),
            missing=(),
        )
        with pytest.raises(CodecError, match="datagram cap"):
            codec.encode(1, big)


class TestVersionGate:
    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_unknown_version_raises_version_error(self, build):
        wire = bytearray(codec.encode(1, build()))
        wire[2] = FUTURE_VERSION
        with pytest.raises(CodecVersionError):
            codec.decode(bytes(wire))

    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_lazy_kinds_under_old_versions_rejected(self, build, version):
        # Versions 1–4 were never deployed: each is as foreign as any.
        wire = bytearray(codec.encode(1, build()))
        wire[2] = version
        with pytest.raises(CodecVersionError):
            codec.decode(bytes(wire))


class TestHostileBytes:
    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_every_truncation_rejected_cleanly(self, build):
        assert_all_rejected(codec.decode, truncations(codec.encode(7, build())))

    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_trailing_garbage_rejected(self, build):
        wire = codec.encode(7, build())
        assert_all_rejected(codec.decode, trailing_garbage(wire))

    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_oversized_count_rejected(self, build):
        wire = codec.encode(7, build())
        assert_all_rejected(codec.decode, [inflated_count(wire)])

    def test_ttl_beyond_i32_rejected(self):
        wire = codec.encode(1, id_ball((10, 1, 0, 0)))
        # An id-ball entry starts with its uvarint TTL, right after the
        # header: widen it past the i32 range (a TTL cannot be
        # negative).
        at = header_end(wire)
        assert wire[at] == 0
        wire = wire[:at] + uvarint(1 << 31) + wire[at + 1 :]
        with pytest.raises(CodecError, match="i32 range"):
            codec.decode(wire)

    @pytest.mark.parametrize("build", _BUILDERS, ids=_IDS)
    def test_bit_flip_fuzz_never_escapes_codec_error(self, build):
        assert_only_codec_errors(codec.decode, bit_flips(codec.encode(7, build())))


class TestFramedDifferential:
    """Differential fuzz: envelope framing must not change what lazy
    messages mean, mirroring ``TestV2V3Differential`` for kinds 9-11."""

    @staticmethod
    def _random_message(rng):
        kind = rng.randrange(3)
        if kind == 0:
            return id_ball(
                *(
                    (
                        rng.randrange(2**40),
                        rng.randrange(2**20),
                        rng.randrange(2**16),
                        rng.randrange(0, 64),
                    )
                    for _ in range(rng.randrange(0, 9))
                )
            )
        if kind == 1:
            return PayloadRequest(
                req_id=rng.randrange(2**32),
                ids=tuple(
                    (rng.randrange(2**20), rng.randrange(2**16))
                    for _ in range(rng.randrange(0, 9))
                ),
            )
        events = tuple(
            Event(
                id=(src := rng.randrange(2**20), seq := rng.randrange(2**16)),
                ts=rng.randrange(2**40),
                source_id=src,
                payload="v" * rng.randrange(0, 30),
            )
            for _ in range(rng.randrange(0, 5))
        )
        return PayloadResponse(
            req_id=rng.randrange(2**32),
            events=events,
            missing=tuple(
                (rng.randrange(2**20), rng.randrange(2**16))
                for _ in range(rng.randrange(0, 4))
            ),
        )

    def test_random_messages_identical_standalone_and_framed(self):
        rng = random.Random(0x1A27)
        for _ in range(200):
            message = self._random_message(rng)
            sender = rng.randrange(2**20)
            topic = rng.randrange(2**32)
            standalone = codec.decode(codec.encode(sender, message))
            _, envelope = codec.decode(
                codec.encode(
                    99, TopicEnvelope(frames=((topic, sender, message),))
                )
            )
            assert envelope.frames == ((topic,) + standalone,)

    def test_downstamped_lazy_wires_always_rejected(self):
        rng = random.Random(0x1A28)
        for _ in range(100):
            message = self._random_message(rng)
            wire = bytearray(codec.encode(1, message))
            wire[2] = rng.choice([1, 2, 3])
            with pytest.raises(CodecError):
                codec.decode(bytes(wire))
