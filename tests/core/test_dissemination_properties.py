"""Property-based tests (hypothesis) for the dissemination component.

Drive Algorithm 1 with arbitrary interleavings of broadcasts, incoming
balls (with arbitrary TTLs, an id seen again in a later ball included)
and round ticks, and
assert its structural invariants:

* nothing with ``ttl >= TTL`` is ever queued; nothing with it is ever
  shipped under the global clock, and at most the clock carrier under
  the logical clock;
* relayed TTLs equal the highest sighting plus exactly one aging step;
* ``nextBall`` never holds two entries for one event id;
* every non-empty ball handed to the ordering component is put on the
  wire that round, cut at the TTL bound: the same entries in the same
  order, minus those aged to the bound, plus the clock carrier; under
  the logical clock, only a ball with an entry below the bound is, so
  the carrier never travels alone;
* a receiver with the same bound fed a round's shipped ball ends every
  step where a twin fed the whole ball ends: the same nextBall, in the
  same order, and the same logical clock.
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core import EpToConfig
from repro.core.clock import GlobalClockOracle, LogicalClockOracle
from repro.core.dissemination import DisseminationComponent
from repro.core.event import Ball, Event

from ..conftest import RecordingTransport, StaticPeerSampler, ManualOracle

TTL = 5


@st.composite
def action_sequences(draw):
    """A random schedule of broadcast / receive / round actions."""
    count = draw(st.integers(min_value=1, max_value=25))
    actions = []
    for _ in range(count):
        kind = draw(st.sampled_from(["broadcast", "receive", "round"]))
        if kind == "receive":
            entries = draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=100, max_value=104),  # src
                        st.integers(min_value=0, max_value=3),  # seq
                        st.integers(min_value=0, max_value=9),  # ts
                        st.integers(min_value=0, max_value=TTL + 2),  # ttl
                    ),
                    max_size=6,
                    unique_by=lambda entry: entry[:2],  # a ball names an id once
                )
            )
            actions.append(("receive", entries))
        else:
            actions.append((kind, None))
    return actions


def run_schedule(
    actions, clock: str = "logical"
) -> tuple[DisseminationComponent, RecordingTransport, List[Ball]]:
    config = EpToConfig(fanout=3, ttl=TTL, clock=clock)
    transport = RecordingTransport()
    ordered: List[Ball] = []
    component = DisseminationComponent(
        node_id=0,
        config=config,
        oracle=ManualOracle(ttl=TTL),
        peer_sampler=StaticPeerSampler([1, 2, 3]),
        transport=transport,
        order_events=ordered.append,
        rng=random.Random(0),
    )
    for kind, payload in actions:
        if kind == "broadcast":
            component.broadcast("data")
        elif kind == "round":
            component.round_tick()
        else:
            component.receive_ball(_foreign(payload))
    return component, transport, ordered


def _foreign(entries) -> Ball:
    return Ball.of(
        (Event(id=(src, seq), ts=ts, source_id=src), ttl)
        for src, seq, ts, ttl in entries
    )


def _sends(ball: Ball, logical: bool) -> bool:
    """Whether the round that orders *ball* puts one on the wire: any
    non-empty ball under the global clock, one with an entry below the
    bound under the logical clock (the clock carrier never ships alone)."""
    if logical:
        return any(ttl < TTL for ttl in ball.ttls.values())
    return bool(ball)


def _rounds(
    transport: RecordingTransport, ordered: List[Ball], logical: bool
) -> List[tuple]:
    """``(ordered ball, shipped ball)`` of every round that sent: the
    ``K`` peers of a round get one object."""
    shipped = []
    for _, _, ball in transport.sent:
        if not shipped or shipped[-1] is not ball:
            shipped.append(ball)
    sending = [ball for ball in ordered if _sends(ball, logical)]
    assert len(shipped) == len(sending)
    return list(zip(sending, shipped))


def _carrier(ball: Ball):
    """The id of the expired entry the logical clock's cut keeps: the
    first of the largest ``ts`` among the entries at ``ttl >= TTL``,
    when no entry below the bound has a ``ts`` as large; else ``None``."""
    expired = [eid for eid, ttl in ball.ttls.items() if ttl >= TTL]
    if not expired:
        return None
    top = max(ball.events[eid].ts for eid in expired)
    kept = [eid for eid, ttl in ball.ttls.items() if ttl < TTL]
    if any(ball.events[eid].ts >= top for eid in kept):
        return None
    return next(eid for eid in expired if ball.events[eid].ts == top)


def _cut(ball: Ball, logical: bool) -> List[tuple]:
    """The entries a round ships of the *ball* it orders, in order."""
    carrier = _carrier(ball) if logical else None
    return [
        (eid, ttl) for eid, ttl in ball.ttls.items() if ttl < TTL or eid == carrier
    ]


clocks = st.sampled_from(["global", "logical"])


@settings(max_examples=200, deadline=None)
@given(clocks, action_sequences())
def test_never_relays_expired_events(clock, actions):
    _, transport, ordered = run_schedule(actions, clock)
    for whole, ball in _rounds(transport, ordered, clock == "logical"):
        # Aging happens before sending, so TTLs are at most TTL (queued
        # strictly below, plus one increment) ...
        assert whole.max_ttl <= TTL
        expired = [eid for eid, ttl in ball.ttls.items() if ttl >= TTL]
        if clock == "global":
            # ... and the cut ships none of those at TTL ...
            assert expired == []
            continue
        # ... but for the clock carrier: the expired entry whose ``ts``
        # is the ordered ball's largest, above every other shipped one.
        assert len(expired) <= 1
        for carrier in expired:
            top = ball.events[carrier].ts
            assert top == whole.max_ts
            assert all(
                event.ts < top for eid, event in ball.events.items() if eid != carrier
            )


@settings(max_examples=200, deadline=None)
@given(action_sequences())
def test_no_duplicate_ids_in_sent_balls(actions):
    _, transport, _ = run_schedule(actions)
    for _, _, ball in transport.sent:
        assert list(ball.events) == list(ball.ttls)


@settings(max_examples=200, deadline=None)
@given(clocks, action_sequences())
def test_wire_and_ordering_see_the_same_rounds(clock, actions):
    logical = clock == "logical"
    _, transport, ordered = run_schedule(actions, clock)
    for whole, ball in _rounds(transport, ordered, logical):
        assert list(ball.ttls.items()) == _cut(whole, logical)
        assert list(ball.events) == list(ball.ttls)
        assert all(ball.events[eid] is whole.events[eid] for eid in ball.events)
        assert ball.shared
        if whole.max_ttl < TTL:
            assert ball is whole  # nothing to cut: the ordered ball ships
        if logical:
            # What a receiver's clock max-merges is unchanged.
            assert ball.max_ts == whole.max_ts


@settings(max_examples=200, deadline=None)
@given(action_sequences())
def test_round_always_clears_next_ball(actions):
    component, _, _ = run_schedule(actions)
    component.round_tick()
    assert component.next_ball_size == 0


@settings(max_examples=150, deadline=None)
@given(action_sequences())
def test_relayed_ttl_is_max_sighting_plus_one(actions):
    """For each sent ball entry, its TTL equals the highest TTL this
    process had seen for that event in the preceding round, plus one."""
    config = EpToConfig(fanout=1, ttl=TTL, clock="logical")
    transport = RecordingTransport()
    component = DisseminationComponent(
        node_id=0,
        config=config,
        oracle=ManualOracle(ttl=TTL),
        peer_sampler=StaticPeerSampler([1]),
        transport=transport,
        order_events=lambda ball: None,
        rng=random.Random(0),
    )
    best_seen: dict = {}
    for kind, payload in actions:
        if kind == "broadcast":
            event = component.broadcast("d")
            best_seen[event.id] = 0
        elif kind == "receive":
            entries = [
                (Event(id=(src, seq), ts=ts, source_id=src), ttl)
                for src, seq, ts, ttl in payload
            ]
            for event, ttl in entries:
                if ttl < TTL:
                    best = best_seen.get(event.id)
                    if best is None or ttl > best:
                        best_seen[event.id] = ttl
            component.receive_ball(Ball.of(entries))
        else:
            before = transport.sent.copy()
            component.round_tick()
            for _, _, ball in transport.sent[len(before):]:
                for event_id, ttl in ball.ttls.items():
                    assert ttl == best_seen[event_id] + 1
            best_seen.clear()


def _node(node_id: int, clock: str, now: List[int]) -> tuple:
    oracle = (
        LogicalClockOracle(TTL)
        if clock == "logical"
        else GlobalClockOracle(TTL, lambda: now[0])
    )
    transport = RecordingTransport()
    ordered: List[Ball] = []
    component = DisseminationComponent(
        node_id=node_id,
        config=EpToConfig(fanout=3, ttl=TTL, clock=clock),
        oracle=oracle,
        peer_sampler=StaticPeerSampler([1, 2, 3]),
        transport=transport,
        order_events=ordered.append,
        rng=random.Random(0),
    )
    return component, transport, ordered


@settings(max_examples=300, deadline=None)
@given(clock=clocks, data=st.data())
def test_a_receiver_fed_the_cut_ball_ends_where_the_whole_ball_leaves_it(clock, data):
    """Two receivers with the sender's bound, one fed every round's whole
    ball and one the ball the round shipped, end every step alike:
    every entry the cut drops is one they drop unread, and the clock
    carrier brings the largest timestamp along."""
    now = [0]
    sender, sent, ordered = _node(0, clock, now)
    whole_fed = _node(1, clock, now)[0]
    cut_fed = _node(1, clock, now)[0]
    entries = st.lists(
        st.tuples(
            st.integers(min_value=100, max_value=104),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=TTL + 1),
        ),
        max_size=6,
        unique_by=lambda entry: entry[:2],
    )
    steps = data.draw(st.integers(min_value=1, max_value=30), label="steps")
    for _ in range(steps):
        now[0] += 1
        kind = data.draw(
            st.sampled_from(
                ["broadcast", "receive", "round", "both receive", "both broadcast",
                 "both round"]
            ),
            label="step",
        )
        if kind == "broadcast":
            sender.broadcast("s")
        elif kind == "receive":
            sender.receive_ball(_foreign(data.draw(entries, label="entries")))
        elif kind == "round":
            sent.clear()
            ordered.clear()
            sender.round_tick()
            if sent.sent:
                (whole, ball), = _rounds(sent, ordered, clock == "logical")
                if data.draw(st.booleans(), label="as wire"):
                    # One receiver per object, as a decoded datagram.
                    whole = Ball(dict(whole.events), dict(whole.ttls))
                    ball = Ball(dict(ball.events), dict(ball.ttls))
                whole_fed.receive_ball(whole)
                cut_fed.receive_ball(ball)
        elif kind == "both receive":
            ball = _foreign(data.draw(entries, label="entries"))
            whole_fed.receive_ball(ball)
            cut_fed.receive_ball(ball)
        elif kind == "both broadcast":
            assert whole_fed.broadcast("r") == cut_fed.broadcast("r")
        else:
            whole_fed.round_tick()
            cut_fed.round_tick()
        assert list(cut_fed._next_ttls.items()) == list(whole_fed._next_ttls.items())
        assert list(cut_fed._next_events.items()) == list(
            whole_fed._next_events.items()
        )
        if clock == "logical":
            assert cut_fed.oracle.logical_clock == whole_fed.oracle.logical_clock
