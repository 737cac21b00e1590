"""Tests for the Table 1 specification checker (repro.metrics.checker).

Includes the two canonical runs of paper Figure 1: run A (order
preserved, agreement violated — legal in EpTO) and run B (agreement
preserved, order violated — illegal). Inputs are judged through both
entry points where both can express them — ``check_run`` on a
collector, ``check_survivors`` on per-node journals — and a
differential property holds the two to one verdict on random
histories. Cases only a journal can express (restarts, recovered
suffixes) are in ``tests/faults/test_verify.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.checker import (
    check_authenticity,
    check_pairwise_order,
    check_run,
    check_survivors,
    check_total_order,
)
from repro.metrics.collector import DeliveryCollector

from ..conftest import make_event


def record_run(deliveries_by_node, broadcasts):
    """Build a collector from explicit broadcast and delivery plans."""
    collector = DeliveryCollector()
    for node in deliveries_by_node:
        collector.record_node_added(node, 0)
    for event in broadcasts:
        collector.record_broadcast(event, 0)
    for node, events in deliveries_by_node.items():
        for t, event in enumerate(events):
            collector.record_delivery(node, event, 10 + t)
    return collector


@pytest.fixture
def figure1_events():
    # e, e', e'' broadcast by p (0), q (1), r (2) respectively.
    e = make_event(src=0, ts=1, payload="e")
    e1 = make_event(src=1, ts=2, payload="e'")
    e2 = make_event(src=2, ts=3, payload="e''")
    return e, e1, e2


class TestFigure1Runs:
    def test_run_a_order_without_agreement_is_legal(self, figure1_events):
        """Figure 1a: r misses e — a hole, but a valid EpTO run."""
        e, e1, e2 = figure1_events
        plan = {0: [e, e1, e2], 1: [e, e1, e2], 2: [e1, e2]}
        report = check_run(record_run(plan, broadcasts=[e, e1, e2]))
        assert not report.order_violations
        assert not report.integrity_violations
        assert report.holes == [(2, e.id)]
        assert report.safety_ok
        assert not report.agreement_ok
        # A survivor journal is held to agreement on every event.
        journal = check_survivors(plan, survivors=[0, 1, 2])
        assert journal.missed == journal.holes == [(2, e.id)]
        assert journal.safety_ok and not journal.ok

    def test_run_b_agreement_without_order_is_illegal(self, figure1_events):
        """Figure 1b: r delivers e'' before e' — a total order violation."""
        e, e1, e2 = figure1_events
        plan = {0: [e, e1, e2], 1: [e, e1, e2], 2: [e, e2, e1]}
        for report in (
            check_run(record_run(plan, broadcasts=[e, e1, e2])),
            check_survivors(plan, survivors=[0, 1, 2]),
        ):
            assert report.order_violations  # run B must be flagged
            assert not report.holes
            assert not report.safety_ok

    def test_pairwise_checker_flags_run_b(self, figure1_events):
        e, e1, e2 = figure1_events
        seq_p = [e.order_key, e1.order_key, e2.order_key]
        seq_r = [e.order_key, e2.order_key, e1.order_key]
        conflicts = check_pairwise_order(seq_p, seq_r)
        assert (e1.order_key, e2.order_key) in conflicts

    def test_pairwise_checker_accepts_run_a(self, figure1_events):
        e, e1, e2 = figure1_events
        seq_p = [e.order_key, e1.order_key, e2.order_key]
        seq_r = [e1.order_key, e2.order_key]  # subsequence: fine
        assert check_pairwise_order(seq_p, seq_r) == []


KEYS = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 2))


@given(st.sets(KEYS, max_size=12), st.sets(KEYS, max_size=12))
def test_strictly_increasing_sequences_never_conflict_pairwise(p, q):
    """The licence for judging total order one node at a time: two
    sequences that pass the strictly-increasing scan cannot order a
    common pair differently, so no pairwise check can add a violation."""
    seq_p, seq_q = sorted(p), sorted(q)
    assert check_total_order({0: seq_p, 1: seq_q}) == []
    assert check_pairwise_order(seq_p, seq_q) == []


class TestIntegrity:
    def test_duplicate_delivery_flagged(self):
        e = make_event(src=0, ts=1)
        collector = record_run({0: [e, e]}, broadcasts=[e])
        violations = check_run(collector).integrity_violations
        assert any("twice" in v for v in violations)

    def test_spurious_event_flagged(self):
        e = make_event(src=0, ts=1)
        ghost = make_event(src=9, ts=9)
        collector = record_run({0: [e]}, broadcasts=[e])
        collector.record_delivery(0, ghost, 99)
        violations = check_run(collector).integrity_violations
        assert any("never-broadcast" in v for v in violations)
        journal = check_survivors(
            {0: [e, ghost]}, survivors=[0], broadcasts={e.id: e}
        )
        assert any("never-broadcast" in v for v in journal.integrity_violations)

    def test_clean_run_passes(self):
        e = make_event(src=0, ts=1)
        collector = record_run({0: [e], 1: [e]}, broadcasts=[e])
        assert check_run(collector).integrity_violations == []
        # An empty run is vacuously correct.
        assert check_run(DeliveryCollector()).ok


class TestTotalOrder:
    def test_non_increasing_keys_flagged(self):
        a = make_event(src=0, ts=5)
        b = make_event(src=1, ts=2)
        collector = record_run({0: [a, b]}, broadcasts=[a, b])
        assert check_total_order(collector.sequences())

    def test_increasing_keys_pass(self):
        a = make_event(src=0, ts=2)
        b = make_event(src=1, ts=5)
        collector = record_run({0: [a, b], 1: [a, b]}, broadcasts=[a, b])
        assert check_total_order(collector.sequences()) == []
        assert check_survivors({0: [a, b], 1: [a, b]}, survivors=[0, 1]).ok


class TestValidity:
    def test_correct_node_missing_own_event_flagged(self):
        mine = make_event(src=0, ts=1)
        collector = record_run({0: [], 1: [mine]}, broadcasts=[mine])
        violations = check_run(collector, correct_nodes={0}).validity_violations
        assert len(violations) == 1

    def test_faulty_nodes_exempt(self):
        mine = make_event(src=0, ts=1)
        collector = record_run({0: [], 1: [mine]}, broadcasts=[mine])
        assert check_run(collector, correct_nodes={1}).validity_violations == []

    def test_satisfied_validity(self):
        mine = make_event(src=0, ts=1)
        collector = record_run({0: [mine]}, broadcasts=[mine])
        assert check_run(collector, correct_nodes={0}).validity_violations == []


class TestReport:
    def test_summary_format(self, figure1_events):
        e, e1, e2 = figure1_events
        collector = record_run({0: [e, e1, e2]}, broadcasts=[e, e1, e2])
        report = check_run(collector)
        summary = report.summary()
        assert "safety=OK" in summary
        assert "holes=0" in summary

    def test_default_correct_nodes_are_delivering_nodes(self, figure1_events):
        e, e1, e2 = figure1_events
        plan = {0: [e, e1, e2], 5: [e, e1, e2]}
        for report in (
            check_run(record_run(plan, broadcasts=[e, e1, e2])),
            check_survivors(plan, survivors=[0, 5]),
        ):
            assert (report.checked_nodes, report.checked_events) == (2, 3)


# ----------------------------------------------------------------------
# Differential: one history, two entry points, one verdict
# ----------------------------------------------------------------------

GENUINE = [
    make_event(src=src, ts=ts, payload="genuine")
    for src, ts in ((0, 3), (1, 5), (2, 5), (3, 1))
]
FORGED = [dataclasses.replace(event, payload="forged") for event in GENUINE]
GHOST = make_event(src=9, ts=4, payload="never broadcast")
ROLES = ("survivor", "recovered", "byzantine")


@st.composite
def histories(draw):
    """Per-node journals (possibly out of order, duplicated or forged),
    a role per node, and a restart index per recovered node."""
    journals, roles, restarts = {}, {}, {}
    for node in range(draw(st.integers(1, 5))):
        events = draw(st.lists(st.sampled_from(GENUINE + FORGED + [GHOST]), max_size=6))
        if draw(st.booleans()):
            events.sort(key=lambda event: event.order_key)
        journals[node] = events
        roles[node] = draw(st.sampled_from(ROLES))
        if roles[node] == "recovered":
            restarts[node] = [draw(st.integers(0, len(events)))]
    return journals, roles, restarts


def as_collector(journals):
    collector = DeliveryCollector(fingerprints=True)
    for event in GENUINE:
        collector.record_broadcast(event, 0)
    for node, events in journals.items():
        for t, event in enumerate(events):
            collector.record_delivery(node, event, t)
    return collector


@settings(max_examples=300, deadline=None)
@given(histories())
def test_both_entry_points_judge_one_history_alike(history):
    journals, roles, restarts = history
    survivors = {n for n, role in roles.items() if role == "survivor"}
    recovered = {n for n, role in roles.items() if role == "recovered"}
    hostile = {n for n, role in roles.items() if role == "byzantine"}
    journal = check_survivors(
        journals,
        survivors,
        recovered,
        restarts,
        byzantine=hostile,
        broadcasts={event.id: event for event in GENUINE},
    )
    # A collector knows no restarts: it holds each node's judged life,
    # and the hostile nodes' deliveries are recorded, then excluded.
    lives = {
        node: events[restarts[node][-1]:] if node in recovered else events
        for node, events in journals.items()
    }
    run = check_run(as_collector(lives), correct_nodes=survivors, exclude_nodes=hostile)
    assert sorted(run.order_violations) == sorted(journal.order_violations)
    assert (run.missed, run.holes, run.checked_events) == (
        journal.missed, journal.holes, journal.checked_events,
    )
    # Content is scanned over every non-hostile node's whole journal.
    content = check_authenticity(
        as_collector(journals), correct_nodes=survivors | recovered
    )
    assert sorted(content.forged_deliveries) == sorted(journal.forged_deliveries)
    assert content.equivocated_events == journal.equivocated_events
    assert content.checked_deliveries == journal.checked_deliveries
