"""Unit tests for the event model (repro.core.event)."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.core.dissemination import event_payload_nbytes, payload_nbytes
from repro.core.event import (
    BallEntry,
    Event,
    EventIdGenerator,
    EventRecord,
    SharedBall,
    ball_event_ids,
    make_ball,
)

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
        measured = Event(id=(3, 1), ts=42, source_id=3, payload="payload")
        fresh = Event(id=(3, 1), ts=42, source_id=3, payload="payload")
        for _ in range(2):  # measured, then read back
            assert event_payload_nbytes(measured) == payload_nbytes("payload")
        assert measured == fresh and hash(measured) == hash(fresh)
        assert repr(measured) == repr(fresh)
        assert copy.copy(measured) == measured
        # A changed payload is a new event and is measured afresh.
        other = dataclasses.replace(measured, payload="longer than before")
        assert event_payload_nbytes(other) == payload_nbytes("longer than before")


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
