"""Tests for the delivery collector (repro.metrics.collector)."""

from __future__ import annotations

import pytest

from repro.metrics.checker import check_run
from repro.metrics.collector import DeliveryCollector

from ..conftest import make_event


@pytest.fixture
def collector():
    return DeliveryCollector()


class TestRecording:
    def test_counts(self, collector):
        e = make_event(src=1, ts=5)
        collector.record_broadcast(e, time=10)
        collector.record_delivery(0, e, time=40)
        collector.record_delivery(1, e, time=50)
        assert collector.broadcast_count == 1
        assert collector.delivery_count == 2

    def test_sequences_in_delivery_order(self, collector):
        a = make_event(src=1, ts=1)
        b = make_event(src=2, ts=2)
        collector.record_broadcast(a, 0)
        collector.record_broadcast(b, 0)
        collector.record_delivery(0, a, 10)
        collector.record_delivery(0, b, 20)
        assert collector.sequence_of(0) == (a.order_key, b.order_key)
        assert collector.sequence_of(99) == ()

    def test_delivered_ids(self, collector):
        e = make_event(src=1)
        collector.record_broadcast(e, 0)
        collector.record_delivery(3, e, 5)
        assert collector.delivered_ids_of(3) == {e.id}
        assert collector.delivered_ids_of(4) == set()


class TestDelays:
    def test_delay_per_pair(self, collector):
        e = make_event(src=1)
        collector.record_broadcast(e, time=100)
        collector.record_delivery(0, e, time=150)
        collector.record_delivery(1, e, time=175)
        assert sorted(collector.delivery_delays()) == [50, 75]

    def test_unknown_broadcast_skipped(self, collector):
        collector.record_delivery(0, make_event(src=9), time=10)
        assert collector.delivery_delays() == []


class TestLifetimes:
    def test_stable_nodes_window(self, collector):
        collector.record_node_added(0, 0)
        collector.record_node_added(1, 0)
        collector.record_node_removed(1, 500)
        collector.record_node_added(2, 300)
        assert collector.stable_nodes(since=100, until=1000) == {0}
        assert collector.stable_nodes(since=100, until=400) == {0, 1}
        assert collector.stable_nodes(since=350, until=400) == {0, 1, 2}

    def test_lifetime_of(self, collector):
        collector.record_node_added(7, 10)
        assert collector.lifetime_of(7).joined == 10
        assert collector.lifetime_of(7).left is None
        collector.record_node_removed(7, 90)
        assert collector.lifetime_of(7).left == 90
        assert collector.lifetime_of(99) is None


class TestHoles:
    """Holes over a collector, as the Table 1 checker counts them."""

    def test_no_holes_when_everyone_delivers_everything(self, collector):
        events = [make_event(src=s, ts=s) for s in (1, 2, 3)]
        for e in events:
            collector.record_broadcast(e, 0)
        for node in (0, 1):
            for e in events:
                collector.record_delivery(node, e, 10)
        assert check_run(collector).holes == []

    def test_hole_detected_for_skipped_event(self, collector):
        a = make_event(src=1, ts=1)
        b = make_event(src=2, ts=2)
        collector.record_broadcast(a, 0)
        collector.record_broadcast(b, 0)
        collector.record_delivery(0, a, 10)
        collector.record_delivery(0, b, 10)
        collector.record_delivery(1, b, 10)  # node 1 missed `a`
        assert check_run(collector).holes == [(1, a.id)]

    def test_trailing_misses_are_not_holes(self, collector):
        # Node 1 simply hasn't caught up past event a; no event after
        # its frontier counts as a hole.
        a = make_event(src=1, ts=1)
        b = make_event(src=2, ts=2)
        collector.record_broadcast(a, 0)
        collector.record_broadcast(b, 0)
        collector.record_delivery(0, a, 10)
        collector.record_delivery(0, b, 10)
        collector.record_delivery(1, a, 10)
        assert check_run(collector).holes == []

    def test_vanished_events_do_not_count(self, collector):
        # An event nobody delivered (broadcaster churned out) is not a
        # hole: agreement is conditional on some delivery happening.
        ghost = make_event(src=9, ts=1)
        b = make_event(src=2, ts=2)
        collector.record_broadcast(ghost, 0)
        collector.record_broadcast(b, 0)
        for node in (0, 1):
            collector.record_delivery(node, b, 10)
        report = check_run(collector)
        assert report.holes == [] and report.missed == []

    def test_restricting_to_node_subset(self, collector):
        a = make_event(src=1, ts=1)
        b = make_event(src=2, ts=2)
        for e in (a, b):
            collector.record_broadcast(e, 0)
        collector.record_delivery(0, a, 10)
        collector.record_delivery(0, b, 10)
        collector.record_delivery(1, b, 10)  # hole at 1
        assert check_run(collector, correct_nodes={0}).holes == []
        assert check_run(collector, correct_nodes={0, 1}).holes == [(1, a.id)]

    def test_undelivered_events_counts_trailing_too(self, collector):
        # An event some node delivered and node 1 did not is missed by
        # node 1 even past its last delivery, which quiescence must drain.
        a = make_event(src=1, ts=1)
        b = make_event(src=2, ts=2)
        for e in (a, b):
            collector.record_broadcast(e, 0)
        collector.record_delivery(0, a, 10)
        collector.record_delivery(0, b, 10)
        collector.record_delivery(1, a, 10)
        missing = check_run(collector).missed
        assert (1, b.id) in missing
