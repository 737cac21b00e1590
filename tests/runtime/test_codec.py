"""Tests for the wire codec (repro.runtime.codec)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.auth import SignedBall
from repro.core.event import Ball, Event
from repro.lazy.protocol import IdBall, PayloadResponse
from repro.pss.cyclon import CyclonRequest, CyclonResponse
from repro.runtime.codec import MAX_DATAGRAM, CodecError, TopicEnvelope, decode, encode
from repro.sync.protocol import SyncChunk


def ball_of(*entries):
    return Ball.of(entries)


def entry(src=0, seq=0, ts=0, ttl=0, payload=None):
    return (Event(id=(src, seq), ts=ts, source_id=src, payload=payload), ttl)


class TestBallRoundtrip:
    def test_empty_ball(self):
        sender, message = decode(encode(7, ball_of()))
        assert sender == 7
        assert message == Ball({}, {})

    def test_single_entry(self):
        ball = ball_of(entry(src=3, seq=2, ts=99, ttl=4, payload={"k": [1, 2]}))
        sender, decoded = decode(encode(3, ball))
        assert sender == 3
        assert decoded == ball

    def test_multiple_entries_preserve_order(self):
        ball = ball_of(
            entry(src=1, payload="a"),
            entry(src=2, payload="b"),
            entry(src=3, payload=None),
        )
        _, decoded = decode(encode(0, ball))
        assert [e.payload for e in decoded.events.values()] == ["a", "b", None]

    def test_negative_timestamps_and_large_ids(self):
        ball = ball_of(entry(src=2**40, seq=2**33, ts=-5, ttl=0))
        _, decoded = decode(encode(2**40, ball))
        assert decoded.ttls == {(2**40, 2**33): 0}
        assert decoded.events[(2**40, 2**33)].ts == -5

    def test_unicode_payload(self):
        ball = ball_of(entry(payload="héllo ✓ 漢字"))
        _, decoded = decode(encode(0, ball))
        [event] = decoded.events.values()
        assert event.payload == "héllo ✓ 漢字"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),  # src
                st.integers(min_value=0, max_value=50),  # seq
                st.integers(min_value=0, max_value=10**6),  # ts
                st.integers(min_value=0, max_value=100),  # ttl
                st.one_of(
                    st.none(),
                    st.integers(),
                    st.text(max_size=20),
                    st.lists(st.integers(), max_size=5),
                    st.dictionaries(st.text(max_size=5), st.integers(), max_size=4),
                ),
            ),
            max_size=20,
            unique_by=lambda raw: raw[:2],  # a ball names an id once
        )
    )
    def test_roundtrip_property(self, raw_entries):
        ball = ball_of(
            *(entry(src=s, seq=q, ts=t, ttl=l, payload=p)
              for s, q, t, l, p in raw_entries)
        )
        sender, decoded = decode(encode(42, ball))
        assert sender == 42
        assert decoded == ball


class TestCyclonRoundtrip:
    def test_request(self):
        message = CyclonRequest(entries=((1, 0), (2, 5), (99, 3)))
        sender, decoded = decode(encode(1, message))
        assert sender == 1
        assert decoded == message

    def test_response(self):
        message = CyclonResponse(entries=())
        _, decoded = decode(encode(2, message))
        assert decoded == message


class TestRejections:
    def test_non_json_payload_rejected(self):
        ball = ball_of(entry(payload=object()))
        with pytest.raises(CodecError):
            encode(0, ball)

    def test_unknown_message_type_rejected(self):
        with pytest.raises(CodecError):
            encode(0, {"not": "a message"})  # type: ignore[arg-type]

    def test_oversized_message_rejected(self):
        huge = ball_of(entry(payload="x" * (MAX_DATAGRAM + 1)))
        with pytest.raises(CodecError):
            encode(0, huge)

    def test_oversized_ball_names_the_offending_entry(self):
        """Encoding stops at the first entry crossing the cap, and the
        error reports how far it got — not just that the total is big."""
        chunk = "y" * 9_000
        entries = [
            entry(src=1, seq=i, payload=chunk) for i in range(8)
        ]
        with pytest.raises(CodecError) as excinfo:
            encode(0, Ball.of(entries))
        message = str(excinfo.value)
        # 6 entries of ~9KB fit under 60KB; the 7th crosses the cap.
        assert "ball entry 7 of 8" in message
        assert "event (1, 6)" in message
        assert str(MAX_DATAGRAM) in message

    def test_ball_just_under_the_cap_still_encodes(self):
        chunk = "y" * 9_000
        entries = [entry(src=1, seq=i, payload=chunk) for i in range(6)]
        sender, decoded = decode(encode(0, Ball.of(entries)))
        assert sender == 0
        assert len(decoded) == 6

    @pytest.mark.parametrize(
        "datagram",
        [
            b"",
            b"EP",
            b"XX" + b"\x00" * 20,  # bad magic
            b"EP\x63\x01" + b"\x00" * 12,  # bad version
            b"EP\x01\x63" + b"\x00" * 12,  # bad kind
        ],
    )
    def test_malformed_datagrams_rejected(self, datagram):
        with pytest.raises(CodecError):
            decode(datagram)

    def test_truncated_ball_rejected(self):
        good = encode(0, ball_of(entry(payload="hello")))
        with pytest.raises(CodecError):
            decode(good[:-3])

    def test_trailing_garbage_rejected(self):
        good = encode(0, ball_of(entry()))
        with pytest.raises(CodecError):
            decode(good + b"junk")

    def test_corrupt_payload_bytes_rejected(self):
        good = bytearray(encode(0, ball_of(entry(payload="abcdef"))))
        good[-3] = 0xFF  # break the UTF-8/JSON payload
        with pytest.raises(CodecError):
            decode(bytes(good))

    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash(self, blob):
        """Fuzz: arbitrary bytes either decode or raise CodecError —
        never any other exception (untrusted-input hardening)."""
        try:
            decode(blob)
        except CodecError:
            pass


#: Every row of the kind table whose messages carry events: how to
#: make a one-event message of it.
EVENT_KINDS = {
    "kind1": lambda event: Ball.of([(event, 0)]),
    "kind6": lambda event: SyncChunk(req_id=1, events=(event,), checksum=0),
    "kind7": lambda event: SignedBall(Ball.of([(event, 0)]), (None,)),
    "kind8": lambda event: TopicEnvelope(frames=((0, 1, Ball.of([(event, 0)])),)),
    "kind9": lambda event: IdBall(Ball.of([(event, 0)])),
    "kind11": lambda event: PayloadResponse(req_id=1, events=(event,)),
}
I64_EDGES = (-(2**63), 2**63 - 1)


def _event_with(field, value):
    fields = {"ts": 0, "source": 1, "seq": 0, field: value}
    return Event(
        id=(fields["source"], fields["seq"]),
        ts=fields["ts"],
        source_id=fields["source"],
    )


class TestFieldRanges:
    """``ts``, source and sequence keep the i64 range on every kind
    that carries an event: a value at the edge travels, one past it is
    refused with a :class:`CodecError` (what the UDP fabric counts as
    ``dropped_encode``), never a ``struct.error``."""

    @pytest.mark.parametrize("field", ["ts", "source", "seq"])
    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_the_edge_travels_and_one_past_it_is_refused(self, kind, field):
        build = EVENT_KINDS[kind]
        for edge in I64_EDGES:
            message = build(_event_with(field, edge))
            assert decode(encode(3, message)) == (3, message)
            past = edge + (1 if edge > 0 else -1)
            with pytest.raises(CodecError, match="range"):
                encode(3, build(_event_with(field, past)))

    def test_a_ttl_past_i32_is_refused_on_the_fixed_width_balls(self):
        event = _event_with("ts", 0)
        for kind in ("kind7", "kind9"):
            ball = Ball.of([(event, 2**31)])
            wrapped = SignedBall(ball, (None,)) if kind == "kind7" else IdBall(ball)
            with pytest.raises(CodecError, match="range"):
                encode(3, wrapped)
