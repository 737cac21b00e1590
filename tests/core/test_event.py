"""Unit tests for the event model (repro.core.event)."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.core.event import Ball, Event, EventIdGenerator
from repro.core.record import uvarint, uvarint_nbytes, wire_record, wire_sizes

from ..conftest import make_event


class TestEvent:
    def test_fields(self):
        event = Event(id=(3, 1), ts=42, source_id=3, payload="x")
        assert event.seq == 1
        assert event.ts == 42
        assert event.source_id == 3
        assert event.payload == "x"

    def test_order_key_components(self):
        event = Event(id=(3, 7), ts=42, source_id=3)
        assert event.order_key == (42, 3, 7)

    def test_id_must_match_source(self):
        with pytest.raises(ValueError):
            Event(id=(1, 0), ts=0, source_id=2)

    def test_immutable(self):
        event = make_event()
        with pytest.raises(AttributeError):
            event.ts = 99  # type: ignore[misc]

    def test_order_key_sorts_by_ts_first(self):
        early = make_event(src=9, ts=1)
        late = make_event(src=0, ts=2)
        assert early.order_key < late.order_key

    def test_order_key_breaks_ties_by_source(self):
        a = make_event(src=1, ts=5)
        b = make_event(src=2, ts=5)
        assert a.order_key < b.order_key

    def test_order_key_breaks_double_ties_by_seq(self):
        first = make_event(src=1, seq=0, ts=5)
        second = make_event(src=1, seq=1, ts=5)
        assert first.order_key < second.order_key

    def test_equality_is_structural(self):
        assert make_event(src=1, seq=2, ts=3) == make_event(src=1, seq=2, ts=3)
        assert make_event(src=1, seq=2, ts=3) != make_event(src=1, seq=2, ts=4)

    def test_measured_payload_size_is_not_part_of_the_value(self):
        # What is measured is the wire record, kept on the event.
        measured = Event(id=(3, 1), ts=42, source_id=3, payload="payload")
        fresh = Event(id=(3, 1), ts=42, source_id=3, payload="payload")
        record = wire_record(measured)
        # zigzag(42), zigzag(3), zigzag(1) — the three-byte head — then
        # the JSON payload.
        assert record == (b'\x54\x06\x02"payload"', 9, 3)
        assert wire_record(measured) is record  # built once, read back
        assert measured == fresh and hash(measured) == hash(fresh)
        assert repr(measured) == repr(fresh)
        assert copy.copy(measured) == measured
        # A changed payload is a new event and is measured afresh.
        other = dataclasses.replace(measured, payload="longer than before")
        assert wire_record(other)[1] == len(b'"longer than before"')


class TestBallEntry:
    """An entry of a ball: one event and its relay TTL, held in the
    ball's two maps."""

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError, match="negative ttl"):
            Ball.of([(make_event(), -1)])

    def test_ball_is_immutable_tuple(self):
        # Shared by every receiver of a round, a ball takes no item
        # assignment, no new attribute and, being unhashable, no place
        # in a set that a later change of its maps would corrupt.
        ball = Ball.of([(make_event(), 0)])
        assert not isinstance(ball, tuple)
        with pytest.raises(TypeError):
            ball[0] = None  # type: ignore[index]
        with pytest.raises(AttributeError):
            ball.extra = None  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            hash(ball)

    def test_ball_event_ids(self):
        ball = Ball.of([(make_event(src=1), 0), (make_event(src=2), 1)])
        assert list(ball.ttls) == list(ball.events) == [(1, 0), (2, 0)]


class TestBall:
    def _pairs(self):
        return [(make_event(src=1, ts=4), 0), (make_event(src=2, ts=9), 3)]

    def test_a_ball_is_its_two_maps_in_entry_order(self):
        pairs = self._pairs()
        ball = Ball.of(pairs)
        assert list(zip(ball.events.values(), ball.ttls.values())) == pairs
        assert ball.events[(1, 0)] is pairs[0][0]
        assert ball == Ball.of(pairs) and ball != Ball.of(pairs[:1])
        assert ball != Ball.of(pairs[::-1])  # the entry order is the ball's

    def test_an_id_named_twice_is_refused(self):
        event = make_event(src=1)
        with pytest.raises(ValueError, match="named twice"):
            Ball.of([(event, 0), (event, 1)])

    def test_max_ts_and_max_ttl_cover_every_entry(self):
        ball = Ball.of(self._pairs())
        assert ball.max_ts == 9 and ball.max_ttl == 3
        assert Ball.of([]).max_ts == Ball.of([]).max_ttl == 0

    def test_a_round_ball_keeps_its_splits_for_later_receivers(self):
        alone = Ball.of(self._pairs())
        shared = Ball(alone.events, alone.ttls, shared=True)
        assert shared.shared and not alone.shared
        assert shared.split(3) == alone.split(3) == ({(1, 0): 0}, 1)
        assert shared.split(3) is shared.split(3)  # taken once per bound
        assert alone.split(3) is not alone.split(3)  # one receiver: not kept


class TestEventIdGenerator:
    def test_sequential_ids(self):
        gen = EventIdGenerator(source_id=7)
        assert gen.next_id() == (7, 0)
        assert gen.next_id() == (7, 1)
        assert gen.issued == 2

    def test_independent_generators(self):
        a, b = EventIdGenerator(1), EventIdGenerator(2)
        assert a.next_id() == (1, 0)
        assert b.next_id() == (2, 0)
        assert a.next_id() == (1, 1)


class TestWireRecord:
    def test_varints_are_minimal_and_zigzag_keeps_small_magnitudes_short(self):
        def head(ts):
            record = wire_record(Event(id=(0, 0), ts=ts, source_id=0, payload=0))[0]
            return record[:-3]  # source 0, seq 0, payload 0: a byte each

        # 0, -1, 1, -2, 2 zigzag to 0, 1, 2, 3, 4.
        assert [head(ts) for ts in (0, -1, 1, -2, 2)] == [bytes([v]) for v in range(5)]
        assert head(-(1 << 63)) == uvarint((1 << 64) - 1)
        with pytest.raises(OverflowError):
            wire_record(Event(id=(0, 0), ts=1 << 63, source_id=0))
        for value in (0, 1, 127, 128, 300, 1 << 35, (1 << 64) - 1):
            encoded = uvarint(value)
            assert len(encoded) == uvarint_nbytes(value) <= 10
            assert encoded[-1] != 0 or value == 0  # no trailing zero group
        assert uvarint(300) == b"\xac\x02"

    def test_a_payload_that_is_not_json_has_sizes_but_no_record(self):
        event = Event(id=(3, 1), ts=42, source_id=3, payload=frozenset({3}))
        record, payload_nbytes, head_nbytes = wire_record(event)
        assert record is False
        assert payload_nbytes == len(repr(frozenset({3})).encode())
        assert head_nbytes == 3
        assert wire_sizes(event) is wire_record(event)

    def test_measuring_keeps_the_sizes_and_building_the_record_keeps_them(self):
        event = Event(id=(3, 1), ts=42, source_id=3, payload="payload")
        sized = wire_sizes(event)
        assert sized == (None, 9, 3)  # no bytes kept for the estimate
        assert wire_sizes(event) is sized
        built = wire_record(event)
        assert built == (b'\x54\x06\x02"payload"', 9, 3)
        assert wire_sizes(event) is built and wire_record(event) is built


class TestMapBall:
    """A ball decoded off the wire against a round's ball of the same
    maps."""

    def test_reads_as_the_tuple_of_its_entries(self):
        pairs = [(make_event(src=1, ts=4), 0), (make_event(src=2, ts=9), 3)]
        decoded = Ball(
            {event.id: event for event, _ in pairs},
            {event.id: ttl for event, ttl in pairs},
        )
        assert decoded == Ball.of(pairs) and Ball.of(pairs) == decoded
        assert decoded != Ball.of(pairs[:1]) and decoded != "ball"
        assert len(decoded) == len(decoded.entries) == 2
        assert decoded.entries is decoded
        assert list(zip(decoded.events.values(), decoded.ttls.values())) == pairs
        assert decoded.events[(1, 0)] is pairs[0][0]
        assert Ball({}, {}) == Ball.of([]) and not Ball({}, {})

    def test_split_and_max_ts_are_the_shared_balls(self):
        pairs = [(make_event(src=1, ts=4), 0), (make_event(src=2, ts=9), 3)]
        decoded = Ball.of(pairs)
        shared = Ball(dict(decoded.events), dict(decoded.ttls), shared=True)
        for bound in (1, 3, 4, 5):
            assert decoded.split(bound) == shared.split(bound)
        assert decoded.split(4)[0] is decoded.ttls
        assert decoded.max_ts == shared.max_ts == 9
        assert decoded.max_ttl == shared.max_ttl == 3
        assert shared == decoded
