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

Beyond the invariants, the component is held round by round to a
paper-literal Algorithm 2 (:class:`_PaperAlgorithm2`): the lazy aging,
frontier and heaps must deliver, tag and count exactly what eager aging
and a full rescan each round do.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.event import Ball, Event, EventId, OrderKey
from repro.core.ordering import OrderingComponent, OrderingStats

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


class _PaperAlgorithm2:
    """Reference: Algorithm 2 as the paper writes it, eager every round.

    Every pending event ages by one each round (lines 6-7); a ball's
    copies pass the delivered and late guards (line 9, on the full order
    key) and are max-merged (lines 10-12); ``isDeliverable`` is
    ``ttl > TTL``; the deliverable events ordered before every
    non-deliverable one are delivered in key order (lines 15-30). Late
    events take the §8.2 tagged path. Beside the paper: the delivered
    and tagged ids are forgotten after ``2*TTL + 2`` rounds, and
    ``deliver_external`` and ``discard_obsolete_pending`` do what the
    component documents.
    """

    def __init__(self, ttl: int, deliver, deliver_out_of_order) -> None:
        self.ttl = ttl
        self.deliver = deliver
        self.deliver_out_of_order = deliver_out_of_order
        self.stats = OrderingStats()
        self.received: Dict[EventId, List] = {}  # id -> [event, ttl]
        self.delivered: Dict[EventId, int] = {}  # id -> round delivered
        self.tagged: Dict[EventId, int] = {}  # id -> round tagged
        self.last_delivered_key: OrderKey = (-1, -1, -1)

    def pending(self) -> List[Tuple[Event, int]]:
        return [(event, ttl) for event, ttl in self.received.values()]

    def order_events(self, ball: Ball) -> None:
        self.stats.rounds += 1
        horizon = self.stats.rounds - (2 * self.ttl + 2)
        self.delivered = {i: r for i, r in self.delivered.items() if r >= horizon}
        self.tagged = {i: r for i, r in self.tagged.items() if r >= horizon}
        for entry in self.received.values():
            entry[1] += 1
        for event, ttl in zip(ball.events.values(), ball.ttls.values()):
            if self._admit(event):
                known = self.received.setdefault(event.id, [event, ttl])
                known[1] = max(known[1], ttl)
        min_queued = min(
            (e.order_key for e, ttl in self.received.values() if not ttl > self.ttl),
            default=None,
        )
        ready = sorted(
            (e for e, ttl in self.received.values() if ttl > self.ttl),
            key=lambda e: e.order_key,
        )
        for event in ready:
            if min_queued is not None and event.order_key >= min_queued:
                break
            del self.received[event.id]
            if event.order_key <= self.last_delivered_key:
                self._late(event)
            else:
                self._deliver(event)

    def deliver_external(self, event: Event) -> bool:
        if not self._admit(event):
            return False
        self.received.pop(event.id, None)
        self._deliver(event)
        return True

    def discard_obsolete_pending(self) -> int:
        stale = [
            event
            for event, _ in self.received.values()
            if event.order_key <= self.last_delivered_key
        ]
        for event in stale:
            del self.received[event.id]
            self._late(event)
        return len(stale)

    def _admit(self, event: Event) -> bool:
        if event.id in self.delivered:
            self.stats.discarded_duplicates += 1
            return False
        if event.order_key <= self.last_delivered_key:
            self._late(event)
            return False
        return True

    def _deliver(self, event: Event) -> None:
        self.last_delivered_key = event.order_key
        self.delivered[event.id] = self.stats.rounds
        self.stats.delivered += 1
        self.deliver(event)

    def _late(self, event: Event) -> None:
        self.stats.discarded_late += 1
        if event.id not in self.tagged:
            self.tagged[event.id] = self.stats.rounds
            self.stats.tagged_out_of_order += 1
            self.deliver_out_of_order(event)


class _FirstSeenTtl(OrderingComponent):
    """Mutant: a copy of a pending event never raises its TTL — the
    first-seen TTL is kept instead of the max (Algorithm 2 line 11)."""

    def _merge_ball(self, ball: Ball, now: int) -> None:
        births = self._births
        ttls = {
            event_id: min(ttl, now - births[event_id]) if event_id in births else ttl
            for event_id, ttl in ball.ttls.items()
        }
        super()._merge_ball(Ball(ball.events, ttls), now)


@st.composite
def interleavings(draw):
    """A TTL, an event pool and a list of steps: external deliveries,
    ``discard_obsolete_pending`` calls (what the anti-entropy applier
    does after a chunk) and rounds — each schedule ball repeated, then
    an echo of copies aged further elsewhere (up to past a ready
    event's TTL), then empty rounds until everything stabilizes."""
    ttl = draw(st.integers(min_value=1, max_value=4))
    pool, schedule = draw(schedules())
    indices = st.integers(min_value=0, max_value=len(pool) - 1)
    steps: list = []
    for ball in schedule:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            steps.append(("external", pool[draw(indices)]))
        if draw(st.booleans()):
            steps.append(("discard", None))
        echo = draw(
            st.dictionaries(indices, st.integers(min_value=0, max_value=3 * ttl + 4))
        )
        echo_ball = Ball.of([(pool[index], aged) for index, aged in echo.items()])
        repeats = draw(st.integers(min_value=1, max_value=3))
        steps.extend(("round", arriving) for arriving in [ball] * repeats + [echo_ball])
    steps.extend(("round", Ball({}, {})) for _ in range(3 * ttl + 6))
    return ttl, steps


def _observed(component, delivered: List[Event], tagged: List[Event]):
    return (
        {event.id: ttl for event, ttl in component.pending()},
        component.last_delivered_key,
        dataclasses.asdict(component.stats),
        list(delivered),
        list(tagged),
    )


def _step(component, kind: str, arg):
    if kind == "external":
        return component.deliver_external(arg)
    if kind == "discard":
        return component.discard_obsolete_pending()
    return component.order_events(arg)


def _lockstep(cls, ttl: int, steps) -> None:
    """Run *cls* and the reference over *steps*, asserting after each
    that both return the same, and hold the same pending ``{id: ttl}``,
    order mark, stats and delivered and tagged streams."""
    ours_out: List[Event] = []
    ours_tagged: List[Event] = []
    ref_out: List[Event] = []
    ref_tagged: List[Event] = []
    ours = cls(
        ManualOracle(ttl=ttl), ours_out.append, deliver_out_of_order=ours_tagged.append
    )
    reference = _PaperAlgorithm2(ttl, ref_out.append, ref_tagged.append)
    for kind, arg in steps:
        assert _step(ours, kind, arg) == _step(reference, kind, arg), (kind, arg)
        assert _observed(ours, ours_out, ours_tagged) == _observed(
            reference, ref_out, ref_tagged
        ), (kind, arg)


@settings(max_examples=300, deadline=None)
@given(interleavings())
def test_matches_paper_literal_algorithm_2(case):
    """The component delivers, tags and counts as the paper-literal
    Algorithm 2 does, round by round, whatever arrives: copies again at
    higher, equal and lower TTLs, stable-on-arrival copies, late and
    duplicate copies after external deliveries — with and without
    ``discard_obsolete_pending`` after them, so copies of pending events
    meet an order mark that passed them and one that did not — and
    empty rounds."""
    ttl, steps = case
    _lockstep(OrderingComponent, ttl, steps)


def test_the_reference_catches_a_first_seen_ttl_mutant():
    """The reference is sensitive to the max-merge: a component that
    keeps a pending event's first-seen TTL fails the lockstep the round
    a copy aged further elsewhere arrives."""
    event = Event(id=(0, 0), ts=1, source_id=0)
    steps = [
        ("round", Ball.of([(event, 0)])),
        ("round", Ball.of([(event, 2)])),
        ("round", Ball({}, {})),
    ]
    _lockstep(OrderingComponent, 2, steps)
    with pytest.raises(AssertionError):
        _lockstep(_FirstSeenTtl, 2, steps)
