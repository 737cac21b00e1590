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

from repro.core.event import Event
from repro.lazy.protocol import PayloadRequest, PayloadResponse
from repro.runtime import codec
from repro.runtime.codec import CodecError, CodecVersionError, TopicEnvelope

from ..conftest import id_ball

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
        wire[2] = 7
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

    def test_negative_ttl_rejected(self):
        wire = bytearray(codec.encode(1, id_ball((10, 1, 0, 0))))
        # Header is 16 bytes; the id-entry layout is
        # ts(8) source(8) seq(8) ttl(4) — patch the ttl to -1.
        ttl_offset = 16 + 24
        assert wire[ttl_offset : ttl_offset + 4] == (0).to_bytes(4, "big")
        wire[ttl_offset : ttl_offset + 4] = (-1).to_bytes(4, "big", signed=True)
        with pytest.raises(CodecError):
            codec.decode(bytes(wire))

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
