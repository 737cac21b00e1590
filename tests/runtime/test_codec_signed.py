"""Wire-hostility tests for the signed-ball codec (kind 7).

The decode path faces the open internet in the UDP fabric: truncated,
oversized, wrong-version and bit-flipped datagrams must all be rejected
with :class:`~repro.runtime.codec.CodecError` (or its
:class:`~repro.runtime.codec.CodecVersionError` subclass) — no other
exception may ever escape ``decode``. The damage itself is
``tests/runtime/hostile.py``'s, which ``test_codec_corpus.py`` throws at
every kind; here it meets a larger signed ball at a warm receiver, next
to the cases only this kind has (a TTL beyond the i32 range, the
MAC-length bound).
"""

from __future__ import annotations

import random

import pytest

from repro.auth import (
    BallGuard,
    EventSignature,
    HmacAuthenticator,
    KeyRing,
    SignedBall,
)
from repro.core.event import Ball, Event
from repro.core.record import uvarint
from repro.runtime import codec
from repro.runtime.codec import CodecError, CodecVersionError
from repro.sync.protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
    events_checksum,
)

from .header import FUTURE_VERSION, header_end
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


def _signed_ball(entries=4, sign_all=True):
    guard = BallGuard(HmacAuthenticator(KeyRing("codec-test")))
    events = [_event(src=1 + (i % 3), seq=i, ts=10 + i) for i in range(entries)]
    ball = Ball.of([(event, 2 + i) for i, event in enumerate(events)])
    if sign_all:
        for event in events:
            guard.seal(event.source_id, ball)
    return guard.attach(ball)


class TestRoundTrip:
    def test_signed_ball_round_trips(self):
        signed = _signed_ball()
        sender, decoded = codec.decode(codec.encode(42, signed))
        assert sender == 42
        assert isinstance(decoded, SignedBall)
        assert decoded == signed

    def test_unsigned_entries_round_trip_as_none(self):
        signed = _signed_ball(sign_all=False)
        assert all(signature is None for signature in signed.signatures)
        _, decoded = codec.decode(codec.encode(1, signed))
        assert decoded == signed

    def test_epochs_across_the_u32_range_round_trip(self):
        ball = Ball.of([(_event(seq=seq), seq) for seq in range(3)])
        signatures = tuple(
            EventSignature(epoch=epoch, mac=b"m" * 16)
            for epoch in (127, 128, codec._MAX_EPOCH)
        )
        signed = SignedBall(ball, signatures)
        _, decoded = codec.decode(codec.encode(1, signed))
        assert decoded == signed
        for epoch in (-1, codec._MAX_EPOCH + 1):
            bad = SignedBall(Ball.of([(_event(), 0)]), (EventSignature(epoch, b"m"),))
            with pytest.raises(CodecError, match="u32 range"):
                codec.encode(1, bad)

    def test_a_relay_forwards_the_record_it_received(self, monkeypatch):
        wire = codec.encode(1, _signed_ball())
        _, received = codec.decode(wire)
        # Relaying serializes no payload again: the records are the
        # bytes the entries arrived in.
        monkeypatch.setattr("repro.core.record.payload_json", None)
        assert codec.encode(1, received) == wire

    def test_plain_kinds_still_decode(self):
        ball = _signed_ball().ball
        _, decoded = codec.decode(codec.encode(1, ball))
        assert decoded == ball


class TestVersionGate:
    def test_unknown_version_raises_version_error(self):
        wire = bytearray(codec.encode(1, _signed_ball()))
        wire[2] = FUTURE_VERSION
        with pytest.raises(CodecVersionError):
            codec.decode(bytes(wire))

    def test_version_error_is_a_codec_error(self):
        assert issubclass(CodecVersionError, CodecError)

    def test_signed_kind_under_version_1_rejected(self):
        # Version 1 was never deployed: it is as foreign as any other.
        wire = bytearray(codec.encode(1, _signed_ball()))
        wire[2] = 1
        with pytest.raises(CodecVersionError):
            codec.decode(bytes(wire))


class TestHostileBytes:
    #: What the hostile bytes are thrown at; the warm-table rerun below
    #: swaps in a receiver that already admitted the genuine ball.
    decode = staticmethod(codec.decode)

    def test_every_truncation_rejected_cleanly(self):
        assert_all_rejected(self.decode, truncations(codec.encode(7, _signed_ball())))

    def test_trailing_garbage_rejected(self):
        wire = codec.encode(7, _signed_ball())
        assert_all_rejected(self.decode, trailing_garbage(wire))

    def test_oversized_entry_count_rejected(self):
        wire = codec.encode(7, _signed_ball())
        assert_all_rejected(self.decode, [inflated_count(wire)])

    def test_ttl_beyond_i32_rejected(self):
        event = _event()
        wire = codec.encode(
            1, SignedBall(Ball.of([(event, 0)]), signatures=(None,))
        )
        # A signed entry starts with its uvarint TTL, right after the
        # header: widen it past the i32 range (a TTL cannot be negative).
        at = header_end(wire)
        assert wire[at] == 0
        wire = wire[:at] + uvarint(1 << 31) + wire[at + 1 :]
        with pytest.raises(CodecError, match="i32 range"):
            self.decode(wire)

    def test_bit_flip_fuzz_never_escapes_codec_error(self):
        wire = codec.encode(7, _signed_ball(entries=6))
        assert_only_codec_errors(self.decode, bit_flips(wire))

    def test_mac_length_is_bounded(self):
        assert codec.MAX_MAC_LEN == 255


class TestHostileBytesWarmTable(TestHostileBytes):
    """The same hostility against a receiver whose table already holds
    every entry of the genuine ball: each mutated datagram now races a
    byte-compare against remembered content, and must still decode —
    or fail — exactly as it does without a table."""

    def setup_method(self):
        self.table = warm_table(codec.encode(7, _signed_ball(entries=6)))

    def decode(self, data):
        return checked_decode(data, self.table)


def _sync_digest_message():
    return SyncDigest(
        digest=DeliveryDigest(
            last_key=(12, 3, 7), watermarks=((1, 4), (3, 9), (5, 0))
        ),
        reply=True,
    )


def _sync_request_message():
    return SyncRequest(
        req_id=0xBEEF,
        after=(8, 2, 1),
        watermarks=((0, 2), (2, 6)),
        max_events=32,
        max_bytes=16_000,
    )


def _sync_chunk_message():
    events = tuple(_event(src=2 + i, seq=i, ts=20 + i) for i in range(5))
    return SyncChunk(
        req_id=0xBEEF,
        events=events,
        checksum=events_checksum(events),
        more=True,
        peer_last=(30, 4, 2),
    )


class TestSyncKindFuzz:
    """Bit-flip hostility for the anti-entropy kinds (4, 5, 6), under
    the same contract as the signed-ball fuzz above."""

    @pytest.mark.parametrize(
        "build",
        [_sync_digest_message, _sync_request_message, _sync_chunk_message],
        ids=["digest-kind4", "request-kind5", "chunk-kind6"],
    )
    def test_bit_flip_fuzz_never_escapes_codec_error(self, build):
        assert_only_codec_errors(codec.decode, bit_flips(codec.encode(7, build())))

    @pytest.mark.parametrize(
        "build",
        [_sync_digest_message, _sync_request_message, _sync_chunk_message],
        ids=["digest-kind4", "request-kind5", "chunk-kind6"],
    )
    def test_sync_messages_round_trip(self, build):
        message = build()
        sender, decoded = codec.decode(codec.encode(9, message))
        assert sender == 9
        assert decoded == message


class TestPlainSignedDifferential:
    """Differential fuzz: the unsigned signed-ball path (kind 7) must
    match the plain ball (kind 1) exactly.

    A :class:`SignedBall` whose signatures are all ``None`` carries the
    same information as a plain ball — for any randomly generated entry
    set, both encodings must decode back to identical entries, so the
    signed path can be adopted incrementally without changing what
    unsigned traffic means.
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

    def test_random_balls_round_trip_identically_plain_and_signed(self):
        rng = random.Random(0xD1FF)
        for _ in range(200):
            ball = self._random_ball(rng)
            sender = rng.randrange(2**20)
            plain_wire = codec.encode(sender, ball)
            signed_wire = codec.encode(
                sender,
                SignedBall(ball, signatures=(None,) * len(ball)),
            )
            assert plain_wire[3] == 1 and signed_wire[3] == 7
            plain_sender, plain_ball = codec.decode(plain_wire)
            signed_sender, signed_ball = codec.decode(signed_wire)
            assert plain_sender == signed_sender == sender
            assert isinstance(signed_ball, SignedBall)
            assert plain_ball == ball
            assert signed_ball.ball == ball
            assert all(sig is None for sig in signed_ball.signatures)
