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

import dataclasses
import heapq
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.event import Ball, Event, EventRecord
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


class _SpelledOutMerge(OrderingComponent):
    """Reference: ``_merge_ball`` spelled with the record's own methods
    (``ttl_at``, ``rebase``, ``merge_ttl``), comparing the due round
    before and after the merge."""

    def _merge_ball(self, ball: Ball, now: int) -> None:
        ttl_bound = self.oracle.ttl
        for event, ttl in zip(ball.events.values(), ball.ttls.values()):
            event_id = event.id
            if event_id in self._delivered_ids:
                self.stats.discarded_duplicates += 1
                continue
            if event.order_key <= self._last_delivered_key:
                self._handle_late_event(event)
                continue
            record = self._received.get(event_id)
            if record is not None:
                if event_id in self._ready_ids:
                    record.rebase(now)
                    record.merge_ttl(ttl)
                    continue
                old_due = now + ttl_bound - record.ttl_at(now) + 1
                record.rebase(now)
                record.merge_ttl(ttl)
                new_due = now + ttl_bound - record.ttl + 1
                if new_due < old_due:
                    self._frontier.setdefault(max(new_due, now), []).append(event_id)
            else:
                record = EventRecord(event, ttl, now)
                self._received[event_id] = record
                due = now + ttl_bound - ttl + 1
                if due <= now:
                    self._promote([event_id], now)
                else:
                    self._frontier.setdefault(due, []).append(event_id)
                    heapq.heappush(self._queued_heap, (event.order_key, event_id))


class _Reluctant(ManualOracle):
    """A custom oracle departing from the ``ttl > TTL`` rule: it holds
    back some records it would deem stable, so promotions reschedule
    (and the merge meets records the frontier did not predict)."""

    def is_deliverable(self, record: EventRecord) -> bool:
        held = (record.event.seq + record.received_round) % 3 == 0
        return record.ttl > self.ttl and not held


def _state(component: OrderingComponent):
    # A record's TTL as Algorithm 2 reads it at the current round: the
    # merge leaves a record that a copy does not raise un-rebased, so
    # its stored fields may differ from the reference's while the TTL
    # they derive is the same.
    now = component.stats.rounds
    return (
        {eid: r.ttl_at(now) for eid, r in component._received.items()},
        {due: list(ids) for due, ids in component._frontier.items()},
        list(component._queued_heap),
        list(component._ready_heap),
        set(component._ready_ids),
        component.last_delivered_key,
        dataclasses.asdict(component.stats),
    )


@settings(max_examples=300, deadline=None)
@given(
    schedules(),
    st.data(),
    st.sampled_from([ManualOracle, _Reluctant]),
    st.integers(min_value=1, max_value=4),
)
def test_inlined_merge_equals_the_record_methods(batch, data, oracle, ttl):
    """The inlined ``_merge_ball`` leaves every record's TTL at the
    current round, the frontier buckets, both heaps and the delivered
    and tagged streams as the reference does, round by round, whatever
    arrives: copies again at higher, equal and lower TTLs,
    stable-on-arrival copies (some a reluctant oracle refuses), late and
    duplicate copies after external deliveries — with and without
    ``discard_obsolete_pending`` after them, so copies of pending
    records meet an order mark that passed them and one that did not —
    empty rounds."""
    pool, schedule = batch
    streams = {}
    components = []
    for cls in (OrderingComponent, _SpelledOutMerge):
        delivered: List[Event] = []
        tagged: List[Event] = []
        streams[cls] = (delivered, tagged)
        components.append(
            cls(oracle(ttl=ttl), delivered.append, deliver_out_of_order=tagged.append)
        )
    ours, reference = components
    indices = st.integers(min_value=0, max_value=len(pool) - 1)
    for ball in schedule:
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            event = pool[data.draw(indices)]
            assert ours.deliver_external(event) == reference.deliver_external(event)
        if data.draw(st.booleans()):
            # What the anti-entropy applier does after a chunk.
            assert ours.discard_obsolete_pending() == (
                reference.discard_obsolete_pending()
            )
            assert _state(ours) == _state(reference)
        # A copy that aged further elsewhere, up to past a ready record's.
        echo = data.draw(
            st.dictionaries(indices, st.integers(min_value=0, max_value=3 * ttl + 4))
        )
        echo_ball = Ball.of([(pool[index], aged) for index, aged in echo.items()])
        repeats = data.draw(st.integers(min_value=1, max_value=3))
        for arriving in [ball] * repeats + [echo_ball]:
            ours.order_events(arriving)
            reference.order_events(arriving)
            assert _state(ours) == _state(reference)
    for _ in range(3 * ttl + 6):
        ours.order_events(Ball({}, {}))
        reference.order_events(Ball({}, {}))
        assert _state(ours) == _state(reference)
    assert streams[OrderingComponent] == streams[_SpelledOutMerge]
