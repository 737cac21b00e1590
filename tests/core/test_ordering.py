"""Unit tests for the ordering component (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core.clock import GlobalClockOracle, LogicalClockOracle
from repro.core.errors import OrderingInvariantError
from repro.core.event import Ball
from repro.core.ordering import OrderingComponent

from ..conftest import ManualOracle, make_event

#: An empty ball: what a quiet round hands the ordering component.
EMPTY = Ball({}, {})


def build(ttl: int = 2, tagged: bool = False):
    """Wire an ordering component with a manual oracle."""
    oracle = ManualOracle(ttl=ttl)
    delivered: list = []
    tagged_out: list = []
    component = OrderingComponent(
        oracle=oracle,
        deliver=delivered.append,
        deliver_out_of_order=tagged_out.append if tagged else None,
    )
    return component, delivered, tagged_out


def entry(src=0, seq=0, ts=0, ttl=0, payload=None):
    return (make_event(src=src, seq=seq, ts=ts, payload=payload), ttl)


class TestAgingAndStability:
    def test_event_delivered_once_stable(self):
        component, delivered, _ = build(ttl=2)
        component.order_events(Ball.of([entry(ts=1)]))
        assert delivered == []  # ttl 0, not stable
        component.order_events(EMPTY)  # age to 1
        component.order_events(EMPTY)  # age to 2
        assert delivered == []
        component.order_events(EMPTY)  # age to 3 > TTL
        assert len(delivered) == 1

    def test_incoming_ttl_accelerates_stability(self):
        component, delivered, _ = build(ttl=2)
        component.order_events(Ball.of([entry(ts=1, ttl=0)]))
        # A later copy already aged past the TTL elsewhere.
        component.order_events(Ball.of([entry(ts=1, ttl=3)]))
        assert len(delivered) == 1

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda: GlobalClockOracle(ttl=3, time_source=lambda: 0),
            lambda: LogicalClockOracle(ttl=3),
        ],
        ids=["global", "logical"],
    )
    def test_deliverable_strictly_above_ttl(self, oracle):
        # Algorithm 2's isDeliverable is ttl > TTL under both oracles.
        delivered: list = []
        component = OrderingComponent(oracle(), delivered.append)
        at_bound, past_bound = entry(seq=0, ts=1, ttl=3), entry(seq=1, ts=2, ttl=4)
        component.order_events(Ball.of([at_bound]))
        assert delivered == []  # ttl 3 == TTL: not stable yet
        component.order_events(EMPTY)  # aged to 4
        assert delivered == [at_bound[0]]
        component.order_events(Ball.of([past_bound]))  # stable on arrival
        assert delivered == [at_bound[0], past_bound[0]]

    def test_empty_rounds_still_age(self):
        component, delivered, _ = build(ttl=1)
        component.order_events(Ball.of([entry(ts=1)]))
        for _ in range(3):
            component.order_events(EMPTY)
        assert len(delivered) == 1

    def test_a_full_ball_ages_whole_then_delivers_in_one_burst(self):
        component, delivered, _ = build(ttl=2)
        component.order_events(Ball.of([entry(src=i, ts=i) for i in range(200)]))
        for _ in range(2):
            component.order_events(EMPTY)
            assert component.received_count == 200 and delivered == []
        component.order_events(EMPTY)
        assert len(delivered) == component.stats.delivered == 200
        assert component.received_count == 0


class TestTotalOrderGuards:
    def test_delivery_in_key_order(self):
        component, delivered, _ = build(ttl=0)
        ball = Ball.of(
            [
                entry(src=2, ts=5, ttl=9, payload="b"),
                entry(src=1, ts=5, ttl=9, payload="a"),
                entry(src=1, seq=1, ts=3, ttl=9, payload="first"),
            ]
        )
        component.order_events(ball)
        assert [e.payload for e in delivered] == ["first", "a", "b"]

    def test_stable_event_blocked_by_earlier_unstable(self):
        component, delivered, _ = build(ttl=5)
        # One ball: a stable late event and a still-aging earlier one.
        component.order_events(
            Ball.of(
                [entry(src=2, ts=10, ttl=9), entry(src=1, ts=5, ttl=0)]
            )
        )
        assert delivered == []  # late event must wait for the early one
        component.order_events(EMPTY)
        assert delivered == []
        # Age the early one to stability: both deliver, in order.
        component.order_events(Ball.of([entry(src=1, ts=5, ttl=9)]))
        assert [e.source_id for e in delivered] == [1, 2]

    def test_late_event_discarded(self):
        component, delivered, _ = build(ttl=0)
        component.order_events(Ball.of([entry(src=2, ts=10, ttl=1)]))
        assert len(delivered) == 1
        # An event ordered before the delivered one arrives too late.
        component.order_events(Ball.of([entry(src=1, ts=5, ttl=1)]))
        assert len(delivered) == 1
        assert component.stats.discarded_late == 1

    def test_equal_ts_smaller_source_discarded_after_delivery(self):
        # The (ts, src) tie-break refinement: ts equality alone must
        # not re-admit an event that precedes the last delivered one.
        component, delivered, _ = build(ttl=0)
        component.order_events(Ball.of([entry(src=5, ts=7, ttl=1)]))
        assert len(delivered) == 1
        component.order_events(Ball.of([entry(src=3, ts=7, ttl=1)]))
        assert len(delivered) == 1  # (7, 3) < (7, 5): rejected

    def test_equal_ts_larger_source_still_delivered(self):
        component, delivered, _ = build(ttl=0)
        component.order_events(Ball.of([entry(src=3, ts=7, ttl=1)]))
        component.order_events(Ball.of([entry(src=5, ts=7, ttl=1)]))
        assert [e.source_id for e in delivered] == [3, 5]


class TestIntegrityGuards:
    def test_duplicate_delivery_prevented(self):
        component, delivered, _ = build(ttl=0)
        ball = Ball.of([entry(src=1, ts=5, ttl=1)])
        component.order_events(ball)
        component.order_events(ball)  # duplicate arrives again
        assert len(delivered) == 1
        assert component.stats.discarded_duplicates >= 1

    def test_duplicate_while_pending_merges_instead(self):
        component, delivered, _ = build(ttl=3)
        component.order_events(Ball.of([entry(src=1, ts=5, ttl=0)]))
        component.order_events(Ball.of([entry(src=1, ts=5, ttl=2)]))
        assert component.received_count == 1  # merged, not duplicated

    def test_invariant_error_on_forced_regression(self):
        component, delivered, _ = build(ttl=0)
        component.order_events(Ball.of([entry(src=2, ts=10, ttl=1)]))
        # Force an illegal internal call to prove the guard trips.
        with pytest.raises(OrderingInvariantError):
            component._mark_delivered(make_event(src=1, ts=5))


class TestDeliveredSetPruning:
    def test_memory_stays_bounded(self):
        component, delivered, _ = build(ttl=1)
        for i in range(1000):
            component.order_events(Ball.of([entry(src=1, seq=i, ts=i + 1, ttl=2)]))
        assert len(delivered) == 1000
        # Only ids within the 2*TTL + 2 retention window are kept.
        window = 2 * component.oracle.ttl + 2
        assert len(component._delivered_ids) <= window + 2
        assert len(component._delivered_expiry) <= window + 2

    def test_pruned_duplicate_still_rejected(self):
        component, delivered, _ = build(ttl=1)
        old = entry(src=1, ts=1, ttl=2)
        component.order_events(Ball.of([old]))
        # Push far past the retention window.
        for i in range(12):
            component.order_events(
                Ball.of([entry(src=2, seq=i, ts=2 + i, ttl=2)])
            )
        assert (1, 0) not in component._delivered_ids  # pruned
        # The order-key test still rejects the stale duplicate.
        component.order_events(Ball.of([old]))
        assert len(delivered) == 13

    def test_duplicate_within_window_not_redelivered(self):
        component, delivered, _ = build(ttl=3)
        dup = entry(src=1, ts=1, ttl=4)
        component.order_events(Ball.of([dup]))
        assert len(delivered) == 1
        component.order_events(Ball.of([dup]))
        assert len(delivered) == 1

    def test_out_of_window_duplicate_never_redelivered_in_order(self):
        # Documented boundary: a duplicate arriving after the retention
        # window is rejected by the order-key test (never delivered in
        # order twice); with tagged delivery enabled it surfaces on the
        # tagged channel instead, which is why real deployments size
        # the window to the event relay lifetime.
        component, delivered, tagged = build(ttl=1, tagged=True)
        dup = entry(src=1, ts=1, ttl=2)
        component.order_events(Ball.of([dup]))
        for _ in range(10):  # sail past the 2*TTL + 2 = 4 round window
            component.order_events(EMPTY)
        component.order_events(Ball.of([dup]))
        assert len(delivered) == 1  # integrity of the ordered stream
        assert len(tagged) == 1  # boundary artifact, documented


class TestTaggedDelivery:
    def test_late_event_tagged_instead_of_dropped(self):
        component, delivered, tagged = build(ttl=0, tagged=True)
        component.order_events(Ball.of([entry(src=2, ts=10, ttl=1)]))
        component.order_events(Ball.of([entry(src=1, ts=5, ttl=1, payload="late")]))
        assert len(delivered) == 1
        assert [e.payload for e in tagged] == ["late"]
        assert component.stats.tagged_out_of_order == 1

    def test_tagged_duplicates_suppressed(self):
        component, _, tagged = build(ttl=0, tagged=True)
        component.order_events(Ball.of([entry(src=2, ts=10, ttl=1)]))
        late = entry(src=1, ts=5, ttl=1)
        component.order_events(Ball.of([late]))
        component.order_events(Ball.of([late]))
        component.order_events(Ball.of([late]))
        assert len(tagged) == 1

    def test_tag_dedup_expires_eventually(self):
        component, _, tagged = build(ttl=1, tagged=True)
        component.order_events(Ball.of([entry(src=2, ts=10, ttl=2)]))
        late = entry(src=1, ts=5, ttl=1)
        component.order_events(Ball.of([late]))
        assert len(component._tagged_ids) == 1
        for _ in range(3 * (2 * component.oracle.ttl + 2)):
            component.order_events(EMPTY)
        assert len(component._tagged_ids) == 0

    def test_disabled_by_default(self):
        component, _, tagged = build(ttl=0, tagged=False)
        component.order_events(Ball.of([entry(src=2, ts=10, ttl=1)]))
        component.order_events(Ball.of([entry(src=1, ts=5, ttl=1)]))
        assert tagged == []
        assert component.stats.discarded_late == 1
