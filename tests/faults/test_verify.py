"""Tests for the journal entry point of the Table 1 checker
(repro.metrics.checker.check_survivors) after a fault scenario."""

from __future__ import annotations

from repro.core.event import Event
from repro.metrics.checker import check_survivors


def ev(src: int, seq: int, ts: int, payload=None):
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


# A canonical three-event history, already in total order.
A = ev(0, 0, ts=3)
B = ev(1, 0, ts=5)
C = ev(2, 0, ts=5)  # ties with B on ts; src breaks the tie (1 < 2)


class TestSurvivors:
    def test_identical_ordered_journals_pass(self):
        deliveries = {0: [A, B, C], 1: [A, B, C], 2: [A, B, C]}
        report = check_survivors(deliveries, survivors=[0, 1, 2])
        assert report.ok
        assert report.checked_nodes == 3
        assert report.checked_events == 3
        assert "OK" in report.summary()

    def test_out_of_order_journal_flagged(self):
        deliveries = {0: [A, C, B], 1: [A, B, C]}
        report = check_survivors(deliveries, survivors=[0, 1])
        assert not report.ok
        assert report.order_violations
        assert "VIOLATED" in report.summary()

    def test_duplicate_delivery_flagged(self):
        deliveries = {0: [A, A, B]}
        report = check_survivors(deliveries, survivors=[0])
        assert report.order_violations  # equal keys are non-increasing

    def test_missing_event_is_agreement_violation(self):
        deliveries = {0: [A, B, C], 1: [A, C]}
        report = check_survivors(deliveries, survivors=[0, 1])
        assert not report.ok
        assert len(report.missed) == 1
        assert report.missed == [(1, B.id)]

    def test_empty_cluster_is_vacuously_ok(self):
        assert check_survivors({}, survivors=[]).ok


class TestRecovered:
    def test_recovered_checked_on_suffix_only(self):
        """Pre-restart garbage is ignored; the post-restart suffix must
        be in order but need not contain everything survivors saw."""
        deliveries = {
            0: [A, B, C],
            1: [A, B, C],
            # Node 9 died after A; its second life saw only C.
            9: [A, C],
        }
        report = check_survivors(
            deliveries,
            survivors=[0, 1],
            recovered=[9],
            restart_indices={9: [1]},
        )
        assert report.ok, report.summary()

    def test_recovered_suffix_must_be_ordered(self):
        deliveries = {0: [A, B, C], 9: [A, C, B]}
        report = check_survivors(
            deliveries, survivors=[0], recovered=[9], restart_indices={9: [1]}
        )
        assert not report.ok
        assert any("node 9" in v for v in report.order_violations)

    def test_recovered_conflicting_with_survivor_flagged(self):
        """Figure 1b: the recovered node orders two common events the
        opposite way from a survivor. Its suffix ``[C, B]`` is not
        increasing in the order key, so the per-node order scan flags
        it; no pairwise comparison with the survivor is needed."""
        deliveries = {0: [A, B, C], 9: [C, B]}
        report = check_survivors(
            deliveries, survivors=[0], recovered=[9], restart_indices={9: [0]}
        )
        assert any("node 9" in v for v in report.order_violations)
        assert not report.ok

    def test_recovered_defaults_to_whole_journal_without_indices(self):
        deliveries = {0: [A, B], 9: [B, A]}
        report = check_survivors(deliveries, survivors=[0], recovered=[9])
        assert not report.ok

    def test_node_in_both_sets_treated_as_survivor(self):
        deliveries = {0: [A, B], 1: [A, B]}
        report = check_survivors(
            deliveries, survivors=[0, 1], recovered=[1], restart_indices={1: [1]}
        )
        assert report.ok
        assert report.checked_nodes == 2
