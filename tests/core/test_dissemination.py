"""Unit tests for the dissemination component (Algorithm 1)."""

from __future__ import annotations

import random

import pytest

from repro.core import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.event import Ball

from ..conftest import ManualOracle, RecordingTransport, StaticPeerSampler, make_event


def build(
    node_id: int = 0,
    fanout: int = 2,
    ttl: int = 3,
    peers: list[int] | None = None,
    clock: str = "global",
):
    """Wire a dissemination component with recording collaborators."""
    config = EpToConfig(fanout=fanout, ttl=ttl, clock=clock)
    transport = RecordingTransport()
    sampler = StaticPeerSampler(peers if peers is not None else [1, 2, 3])
    oracle = ManualOracle(ttl=ttl)
    ordered_balls: list = []
    component = DisseminationComponent(
        node_id=node_id,
        config=config,
        oracle=oracle,
        peer_sampler=sampler,
        transport=transport,
        order_events=ordered_balls.append,
        rng=random.Random(0),
    )
    return component, transport, sampler, oracle, ordered_balls


class TestBroadcast:
    def test_stamps_clock_and_source(self):
        component, *_ = build(node_id=9)
        component.oracle.clock = 55
        event = component.broadcast("payload")
        assert event.ts == 55
        assert event.source_id == 9
        assert event.payload == "payload"

    def test_queues_with_ttl_zero(self):
        component, transport, *_ = build()
        component.broadcast()
        assert component.next_ball_size == 1
        component.round_tick()
        sent_ball = transport.sent[0][2]
        # Round tick ages the queued event once before sending.
        assert list(sent_ball.ttls.values()) == [1]

    def test_sequential_broadcasts_get_distinct_ids(self):
        component, *_ = build()
        a = component.broadcast()
        b = component.broadcast()
        assert a.id != b.id
        assert a.order_key < b.order_key or a.ts == b.ts


class TestReceiveBall:
    def test_fresh_event_queued_for_relay(self):
        component, *_ = build(ttl=3)
        ball = Ball.of([(make_event(src=5), 1)])
        component.receive_ball(ball)
        assert component.next_ball_size == 1

    def test_expired_event_dropped(self):
        component, *_ = build(ttl=3)
        ball = Ball.of([(make_event(src=5), 3)])  # ttl >= TTL
        component.receive_ball(ball)
        assert component.next_ball_size == 0
        assert component.stats.entries_expired == 1

    def test_duplicate_keeps_max_ttl(self):
        component, transport, *_ = build(ttl=10)
        event = make_event(src=5)
        component.receive_ball(Ball.of([(event, 2)]))
        component.receive_ball(Ball.of([(event, 7)]))
        component.receive_ball(Ball.of([(event, 4)]))
        assert component.next_ball_size == 1
        component.round_tick()
        assert transport.sent[0][2].ttls == {event.id: 8}  # max(7) + 1 aging

    def test_logical_clock_updated_per_entry(self):
        component, _, _, oracle, _ = build(clock="logical")
        ball = Ball.of(
            [
                (make_event(src=1, ts=10), 0),
                (make_event(src=2, ts=20), 0),
            ]
        )
        component.receive_ball(ball)
        # Algorithm 4 max-merges each entry's timestamp: one update with
        # the largest leaves the same clock.
        assert oracle.updates == [20]

    def test_global_clock_skips_updates(self):
        component, _, _, oracle, _ = build(clock="global")
        component.receive_ball(Ball.of([(make_event(src=1, ts=10), 0)]))
        assert oracle.updates == []

    def test_expired_event_still_updates_logical_clock(self):
        # Even non-relayed events carry causality information.
        component, _, _, oracle, _ = build(clock="logical", ttl=2)
        component.receive_ball(Ball.of([(make_event(src=1, ts=99), 2)]))
        assert oracle.updates == [99]


class TestRoundTick:
    def test_sends_to_fanout_peers(self):
        component, transport, sampler, *_ = build(fanout=3, peers=[4, 5, 6, 7])
        component.broadcast()
        component.round_tick()
        assert sampler.calls == [3]
        assert [dst for _, dst, _ in transport.sent] == [4, 5, 6]

    def test_empty_round_sends_nothing_but_orders(self):
        component, transport, _, _, ordered = build()
        component.round_tick()
        assert transport.sent == []
        assert ordered == [Ball({}, {})]  # ordering still invoked with empty ball

    def test_ball_passed_to_ordering(self):
        component, _, _, _, ordered = build()
        event = component.broadcast()
        component.round_tick()
        assert len(ordered) == 1
        assert list(ordered[0].events.values()) == [event]

    def test_next_ball_reset_after_round(self):
        component, transport, *_ = build()
        component.broadcast()
        component.round_tick()
        transport.clear()
        component.round_tick()
        assert transport.sent == []  # nothing left to relay

    def test_same_ball_object_shared_across_peers(self):
        component, transport, *_ = build(fanout=3, peers=[1, 2, 3])
        component.broadcast()
        component.round_tick()
        balls = [ball for _, _, ball in transport.sent]
        assert balls[0] is balls[1] is balls[2]

    def test_relay_chain_increments_ttl_per_round(self):
        component, transport, *_ = build(ttl=5)
        event = make_event(src=9)
        component.receive_ball(Ball.of([(event, 1)]))
        component.round_tick()
        assert transport.sent[0][2].ttls == {event.id: 2}
        # Receiving it again with the ttl we just relayed does not loop
        # it back up.
        component.receive_ball(Ball.of([(event, 2)]))
        transport.clear()
        component.round_tick()
        assert transport.sent[0][2].ttls == {event.id: 3}

    def test_a_reply_broadcast_while_ordering_is_sent_next_round(self):
        # A delivery callback runs inside order_events; what it
        # broadcasts must not be cleared with the ball being ordered.
        component, transport, _, _, ordered = build()
        replies = []

        def order_and_reply(ball):
            ordered.append(ball)
            if ball and not replies:
                replies.append(component.broadcast("reply"))

        component.order_events = order_and_reply
        first = component.broadcast("first")
        component.round_tick()
        assert list(ordered[0].events.values()) == [first]
        assert component.next_ball_size == 1
        transport.clear()
        component.round_tick()
        assert replies[0].id == (0, 1)
        assert list(transport.sent[0][2].events.values()) == replies
        assert list(ordered[1].events.values()) == replies

    def test_the_ball_carries_the_pending_events_it_hands_over(self):
        component, transport, *_ = build()
        pending = component._next_events  # noqa: SLF001 - what is handed over
        event = component.broadcast()
        component.round_tick()
        ball = transport.sent[0][2]
        assert ball.events is pending and pending == {event.id: event}
        assert component._next_events is not pending  # noqa: SLF001
        assert ball.ttls == {event.id: 1}

    def test_event_stops_being_relayed_at_ttl(self):
        component, transport, *_ = build(ttl=2)
        event = make_event(src=9)
        component.receive_ball(Ball.of([(event, 1)]))
        component.round_tick()  # relayed at ttl 2
        transport.clear()
        # A later copy at the bound is not re-queued.
        component.receive_ball(Ball.of([(event, 2)]))
        component.round_tick()
        assert transport.sent == []

    @pytest.mark.parametrize("clock", ["global", "logical"])
    def test_a_round_with_nothing_live_to_relay(self, clock):
        # Every pending entry ages to the bound: under the logical clock
        # only the clock carrier would ship, so the round sends nothing;
        # the global clock's cut ships an empty ball. Both draw peers
        # and order the whole aged ball.
        component, transport, sampler, _, ordered = build(ttl=3, clock=clock)
        event = make_event(src=9, ts=7)
        component.receive_ball(Ball.of([(event, 2)]))
        component.round_tick()
        assert sampler.calls == [2]
        assert ordered[0].ttls == {event.id: 3}
        stats = component.stats
        assert stats.entries_relayed == 0
        if clock == "logical":
            assert transport.sent == [] and stats.balls_sent == 0
        else:
            assert [ball.ttls for _, _, ball in transport.sent] == [{}, {}]
            assert stats.balls_sent == 2

    def test_the_carrier_ships_beside_a_live_entry(self):
        component, transport, *_ = build(ttl=3, clock="logical")
        old, young = make_event(src=9, ts=7), make_event(src=8, ts=2)
        component.receive_ball(Ball.of([(old, 2), (young, 0)]))
        component.round_tick()
        ball = transport.sent[0][2]
        assert ball.ttls == {old.id: 3, young.id: 1}
        assert ball.max_ts == 7


class TestStats:
    def test_counters(self):
        component, *_ = build(fanout=2, peers=[1, 2])
        component.broadcast()
        component.receive_ball(Ball.of([(make_event(src=3), 0)]))
        component.round_tick()
        stats = component.stats
        assert stats.events_broadcast == 1
        assert stats.balls_received == 1
        assert stats.entries_received == 1
        assert stats.balls_sent == 2
        assert stats.rounds == 1
