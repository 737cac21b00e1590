"""Property-based tests (hypothesis) for the dissemination component.

Drive Algorithm 1 with arbitrary interleavings of broadcasts, incoming
balls (with arbitrary TTLs, an id seen again in a later ball included)
and round ticks, and
assert its structural invariants:

* nothing with ``ttl >= TTL`` is ever queued or relayed;
* relayed TTLs equal the highest sighting plus exactly one aging step;
* ``nextBall`` never holds two entries for one event id;
* every ball handed to the ordering component is also what was put on
  the wire that round (and vice versa), for non-empty rounds.
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core import EpToConfig
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


def run_schedule(actions) -> tuple[DisseminationComponent, RecordingTransport, List[Ball]]:
    config = EpToConfig(fanout=3, ttl=TTL, clock="logical")
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
            entries = [
                (Event(id=(src, seq), ts=ts, source_id=src), ttl)
                for src, seq, ts, ttl in payload
            ]
            component.receive_ball(Ball.of(entries))
    return component, transport, ordered


@settings(max_examples=200, deadline=None)
@given(action_sequences())
def test_never_relays_expired_events(actions):
    _, transport, _ = run_schedule(actions)
    for _, _, ball in transport.sent:
        # Aging happens before sending, so on-the-wire TTLs are at most
        # TTL (queued strictly below, plus one increment).
        assert ball.max_ttl <= TTL


@settings(max_examples=200, deadline=None)
@given(action_sequences())
def test_no_duplicate_ids_in_sent_balls(actions):
    _, transport, _ = run_schedule(actions)
    for _, _, ball in transport.sent:
        assert list(ball.events) == list(ball.ttls)


@settings(max_examples=200, deadline=None)
@given(action_sequences())
def test_wire_and_ordering_see_the_same_rounds(actions):
    component, transport, ordered = run_schedule(actions)
    # Group wire traffic per round: fanout peers get the same object.
    wire_balls = []
    for _, _, ball in transport.sent:
        if not wire_balls or wire_balls[-1] is not ball:
            wire_balls.append(ball)
    non_empty_ordered = [ball for ball in ordered if ball]
    assert wire_balls == non_empty_ordered


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
