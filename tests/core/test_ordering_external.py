"""Unit tests for the anti-entropy delivery path (deliver_external).

Events fetched from a peer's delivery log bypass the TTL oracle but
still go through the duplicate and total-order guards; afterwards
``discard_obsolete_pending`` clears epidemic copies the repair made
obsolete. See docs/SYNC.md.
"""

from __future__ import annotations

from repro.core.event import Ball
from repro.core.ordering import OrderingComponent

from ..conftest import ManualOracle, make_event

#: An empty ball: what a quiet round hands the ordering component.
EMPTY = Ball({}, {})


def build(ttl: int = 2, tagged: bool = False):
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


class TestDeliverExternal:
    def test_bypasses_the_ttl_oracle(self):
        component, delivered, _ = build(ttl=5)
        event = make_event(src=1, ts=3, payload="fetched")
        assert component.deliver_external(event) is True
        assert delivered == [event]
        assert component.stats.delivered == 1
        assert component.last_delivered_key == event.order_key

    def test_respects_key_order_across_calls(self):
        component, delivered, _ = build()
        first = make_event(src=1, ts=1)
        second = make_event(src=2, ts=1)
        third = make_event(src=1, seq=1, ts=4)
        for event in (first, second, third):
            assert component.deliver_external(event) is True
        assert delivered == [first, second, third]

    def test_duplicate_of_epidemic_delivery_is_discarded(self):
        component, delivered, _ = build(ttl=1)
        component.order_events(Ball.of([entry(src=1, ts=2, ttl=9)]))
        assert len(delivered) == 1
        assert component.deliver_external(make_event(src=1, ts=2)) is False
        assert component.stats.discarded_duplicates == 1
        assert len(delivered) == 1

    def test_late_event_is_discarded_not_delivered(self):
        component, delivered, _ = build()
        component.deliver_external(make_event(src=3, ts=9))
        assert component.deliver_external(make_event(src=1, ts=4)) is False
        assert component.stats.discarded_late == 1
        assert [e.ts for e in delivered] == [9]

    def test_late_event_feeds_the_tagged_path(self):
        component, delivered, tagged = build(tagged=True)
        component.deliver_external(make_event(src=3, ts=9))
        late = make_event(src=1, ts=4)
        component.deliver_external(late)
        assert tagged == [late]
        assert component.stats.tagged_out_of_order == 1

    def test_pending_epidemic_copy_is_popped(self):
        component, delivered, _ = build(ttl=5)
        # The epidemic path holds an immature copy of the same event.
        component.order_events(Ball.of([entry(src=1, ts=2, ttl=0)]))
        assert delivered == []
        fetched = make_event(src=1, ts=2)
        assert component.deliver_external(fetched) is True
        assert delivered == [fetched]
        # Aging the (now stale) epidemic copy past the TTL must not
        # deliver it a second time.
        for _ in range(8):
            component.order_events(EMPTY)
        assert len(delivered) == 1
        assert component.stats.delivered == 1


class TestDiscardObsoletePending:
    def test_clears_copies_below_the_order_mark(self):
        component, delivered, _ = build(ttl=5)
        component.order_events(
            Ball.of([entry(src=1, ts=2, ttl=0), entry(src=2, ts=3, ttl=0)])
        )
        # The repair jumps the mark past both pending copies.
        component.deliver_external(make_event(src=4, ts=7))
        assert component.discard_obsolete_pending() == 2
        assert component.stats.discarded_late == 2
        # Nothing left to surface later.
        for _ in range(8):
            component.order_events(EMPTY)
        assert [e.ts for e in delivered] == [7]

    def test_keeps_copies_above_the_order_mark(self):
        component, delivered, _ = build(ttl=1)
        component.order_events(Ball.of([entry(src=1, ts=9, ttl=0)]))
        component.deliver_external(make_event(src=2, ts=5))
        assert component.discard_obsolete_pending() == 0
        # The surviving copy still matures and delivers in order.
        for _ in range(4):
            component.order_events(EMPTY)
        assert [e.ts for e in delivered] == [5, 9]

    def test_noop_on_empty_pending_set(self):
        component, _, _ = build()
        assert component.discard_obsolete_pending() == 0
