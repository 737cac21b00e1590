"""Tests for content fingerprinting and the authenticity checks
(repro.metrics.collector fingerprints, repro.metrics.checker), through
the collector and the journal entry points alike."""

from __future__ import annotations

import dataclasses

from repro.core.event import Event
from repro.metrics import (
    DeliveryCollector,
    check_authenticity,
    check_run,
    check_survivors,
    event_fingerprint,
)


def _event(src=1, seq=0, ts=10, payload=None):
    return Event(
        id=(src, seq),
        ts=ts,
        source_id=src,
        payload={"v": seq} if payload is None else payload,
    )


class TestFingerprinting:
    def test_fingerprint_tracks_content(self):
        event = _event()
        same = _event()
        forged = dataclasses.replace(event, payload={"v": "evil"})
        assert event_fingerprint(event) == event_fingerprint(same)
        assert event_fingerprint(event) != event_fingerprint(forged)

    def test_collector_records_fingerprints_only_when_enabled(self):
        event = _event()
        off = DeliveryCollector()
        off.record_broadcast(event, 0)
        off.record_delivery(2, event, 1)
        assert off.deliveries()[0].fingerprint is None
        assert off.genuine_fingerprint(event.id) is None

        on = DeliveryCollector(fingerprints=True)
        on.record_broadcast(event, 0)
        on.record_delivery(2, event, 1)
        assert on.deliveries()[0].fingerprint == event_fingerprint(event)
        assert on.genuine_fingerprint(event.id) == event_fingerprint(event)


class TestCheckAuthenticity:
    def _collector(self):
        collector = DeliveryCollector(fingerprints=True)
        event = _event()
        collector.record_broadcast(event, 0)
        return collector, event

    def test_clean_run_ok(self):
        collector, event = self._collector()
        collector.record_delivery(2, event, 5)
        collector.record_delivery(3, event, 5)
        report = check_authenticity(collector)
        assert report.ok
        assert report.checked_deliveries == 2

    def test_forged_content_detected(self):
        collector, event = self._collector()
        forged = dataclasses.replace(event, payload={"v": "evil"})
        collector.record_delivery(2, forged, 5)
        report = check_authenticity(collector)
        assert len(report.forged_deliveries) == 1
        assert not report.ok

    def test_never_broadcast_id_detected(self):
        collector, _ = self._collector()
        collector.record_delivery(2, _event(src=9, seq=99), 5)
        report = check_authenticity(collector)
        assert len(report.forged_deliveries) == 1

    def test_equivocation_across_nodes_detected(self):
        collector, event = self._collector()
        variant = dataclasses.replace(event, payload={"v": "variant"})
        collector.record_delivery(2, event, 5)
        collector.record_delivery(3, variant, 5)
        report = check_authenticity(collector)
        assert len(report.equivocated_events) == 1

    def test_hostile_nodes_excluded_via_correct_set(self):
        collector, event = self._collector()
        forged = dataclasses.replace(event, payload={"v": "evil"})
        collector.record_delivery(2, event, 5)
        collector.record_delivery(66, forged, 5)  # the adversary itself
        assert not check_authenticity(collector).ok
        assert check_authenticity(collector, correct_nodes={2}).ok

    def test_non_fingerprinting_collector_checks_nothing(self):
        collector = DeliveryCollector()
        event = _event()
        collector.record_broadcast(event, 0)
        collector.record_delivery(2, event, 5)
        report = check_authenticity(collector)
        assert report.ok and report.checked_deliveries == 0


class TestCheckRunExcludeNodes:
    def test_excluded_node_double_delivery_tolerated(self):
        collector = DeliveryCollector()
        event = _event()
        collector.record_broadcast(event, 0)
        collector.record_delivery(2, event, 5)
        # Node 7's journal rewound after a scramble: it re-delivers.
        collector.record_delivery(7, event, 5)
        collector.record_delivery(7, event, 9)

        assert not check_run(collector, correct_nodes={2, 7}).safety_ok
        report = check_run(collector, correct_nodes={2, 7}, exclude_nodes={7})
        assert report.safety_ok
        assert report.checked_nodes == 1


class TestSurvivorContentChecks:
    def test_broadcasts_enable_forgery_and_equivocation_checks(self):
        event = _event()
        forged = dataclasses.replace(event, payload={"v": "evil"})
        deliveries = {2: [event], 3: [forged]}

        plain = check_survivors(deliveries, survivors=[2, 3])
        assert plain.ok  # no content reference, nothing to compare

        checked = check_survivors(
            deliveries, survivors=[2, 3], broadcasts={event.id: event}
        )
        assert len(checked.forged_deliveries) == 1
        assert len(checked.equivocated_events) == 1
        assert not checked.ok

    def test_byzantine_nodes_excluded_from_all_checks(self):
        event = _event()
        forged = dataclasses.replace(event, payload={"v": "evil"})
        report = check_survivors(
            {2: [event], 66: [forged]},
            survivors=[2, 66],
            byzantine=[66],
            broadcasts={event.id: event},
        )
        assert report.ok
        assert report.checked_nodes == 1
