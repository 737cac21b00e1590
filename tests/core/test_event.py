"""Unit tests for the event model (repro.core.event)."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.core.event import (
    BallEntry,
    Event,
    EventIdGenerator,
    EventRecord,
    MapBall,
    SharedBall,
    ball_event_ids,
    make_ball,
)
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
        # zigzag(42), zigzag(3), zigzag(1), then the JSON payload; an
        # entry spends the three varints and a length byte beside it.
        assert record == (b'\x54\x06\x02"payload"', 9, 4)
        assert wire_record(measured) is record  # built once, read back
        assert measured == fresh and hash(measured) == hash(fresh)
        assert repr(measured) == repr(fresh)
        assert copy.copy(measured) == measured
        # A changed payload is a new event and is measured afresh.
        other = dataclasses.replace(measured, payload="longer than before")
        assert wire_record(other)[1] == len(b'"longer than before"')


class TestBallEntry:
    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            BallEntry(make_event(), ttl=-1)

    def test_ball_is_immutable_tuple(self):
        ball = make_ball([BallEntry(make_event(), 0)])
        assert isinstance(ball, tuple)
        with pytest.raises(TypeError):
            ball[0] = None  # type: ignore[index]

    def test_shared_ball_is_the_tuple_of_its_entries(self):
        entries = [BallEntry(make_event(src=1), 0), BallEntry(make_event(src=2), 1)]
        shared = SharedBall(entries, {(1, 0): 0, (2, 0): 1})
        plain = make_ball(entries)
        assert isinstance(shared, tuple) and type(plain) is tuple
        assert shared == plain and hash(shared) == hash(plain)
        assert len(shared) == 2 and shared[1] is entries[1]
        assert list(ball_event_ids(shared)) == list(shared.ttls)
        with pytest.raises(TypeError):
            shared[0] = None  # type: ignore[index]

    def test_ball_event_ids(self):
        ball = make_ball(
            [BallEntry(make_event(src=1), 0), BallEntry(make_event(src=2), 1)]
        )
        assert list(ball_event_ids(ball)) == [(1, 0), (2, 0)]


class TestEventRecord:
    def test_age_increments(self):
        record = EventRecord(make_event(), ttl=0)
        record.age()
        record.age()
        assert record.ttl == 2

    def test_merge_keeps_larger(self):
        record = EventRecord(make_event(), ttl=3)
        record.merge_ttl(5)
        assert record.ttl == 5
        record.merge_ttl(2)
        assert record.ttl == 5

    def test_to_entry_snapshots(self):
        record = EventRecord(make_event(), ttl=4)
        entry = record.to_entry()
        record.age()
        assert entry.ttl == 4  # snapshot unaffected by later aging


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
        record, payload_nbytes, metadata_nbytes = wire_record(event)
        assert record is False
        assert payload_nbytes == len(repr(frozenset({3})).encode())
        assert metadata_nbytes == 3 + 1
        assert wire_sizes(event) is wire_record(event)

    def test_measuring_keeps_the_sizes_and_building_the_record_keeps_them(self):
        event = Event(id=(3, 1), ts=42, source_id=3, payload="payload")
        sized = wire_sizes(event)
        assert sized == (None, 9, 4)  # no bytes kept for the estimate
        assert wire_sizes(event) is sized
        built = wire_record(event)
        assert built == (b'\x54\x06\x02"payload"', 9, 4)
        assert wire_sizes(event) is built and wire_record(event) is built


class TestMapBall:
    def _entries(self):
        return [BallEntry(make_event(src=1, ts=4), 0), BallEntry(make_event(src=2, ts=9), 3)]

    def _ball(self, entries):
        return MapBall(
            {e.event.id: e.event for e in entries},
            {e.event.id: e.ttl for e in entries},
            max(e.event.ts for e in entries),
            max(e.ttl for e in entries),
        )

    def test_reads_as_the_tuple_of_its_entries(self):
        entries = self._entries()
        ball = self._ball(entries)
        plain = make_ball(entries)
        assert not isinstance(ball, tuple)
        assert ball == plain and plain == ball and ball == self._ball(entries)
        assert ball != make_ball(entries[:1]) and ball != "ball"
        assert len(ball) == len(ball.entries) == 2 and ball.entries is ball
        assert list(ball) == entries and ball[1] == entries[1]
        assert ball[0].event is entries[0].event
        assert MapBall({}, {}, 0, 0) == () and not MapBall({}, {}, 0, 0)

    def test_split_and_max_ts_are_the_shared_balls(self):
        entries = self._entries()
        ball = self._ball(entries)
        shared = SharedBall(entries, dict(ball.ttls))
        for bound in (1, 3, 4, 5):
            assert ball.split(bound) == shared.split(bound)
        assert ball.split(4)[0] is ball.ttls
        assert ball.max_ts == shared.max_ts == 9 and ball.max_ttl == 3
        assert shared.events == ball.events
