"""Encode-once fan-out at the dissemination layer.

A round's ball is identical for every peer, so a transport exposing
``send_many`` receives one call with the peer list (and can serialize
once); plain ``send``-only transports keep the per-peer loop.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.config import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.interfaces import FanoutTransport, Transport

from ..conftest import ManualOracle, RecordingTransport, StaticPeerSampler


class FanoutRecordingTransport(RecordingTransport):
    """Transport advertising the batched fan-out surface."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: List[Tuple[int, List[int], Any]] = []

    def send_many(self, src: int, dsts, ball: Any) -> None:
        self.batches.append((src, list(dsts), ball))
        for dst in dsts:
            self.sent.append((src, dst, ball))


def build(transport, fanout=3):
    config = EpToConfig(fanout=fanout, ttl=4, round_interval=10)
    return DisseminationComponent(
        node_id=0,
        config=config,
        oracle=ManualOracle(ttl=4),
        peer_sampler=StaticPeerSampler([1, 2, 3, 4]),
        transport=transport,
        order_events=lambda ball: None,
    )


class TestFanoutProtocol:
    def test_protocols_distinguish_batched_transports(self):
        assert isinstance(FanoutRecordingTransport(), Transport)
        assert isinstance(FanoutRecordingTransport(), FanoutTransport)
        assert isinstance(RecordingTransport(), Transport)
        assert not isinstance(RecordingTransport(), FanoutTransport)


class TestEncodeOnceFanout:
    def test_send_many_used_when_available(self):
        transport = FanoutRecordingTransport()
        component = build(transport)
        component.broadcast("payload")
        component.round_tick()

        assert len(transport.batches) == 1
        src, dsts, ball = transport.batches[0]
        assert src == 0
        assert dsts == [1, 2, 3]
        assert component.stats.balls_sent == 3

    def test_every_peer_gets_the_same_ball_object(self):
        transport = FanoutRecordingTransport()
        component = build(transport)
        component.broadcast("shared")
        component.round_tick()

        balls = [ball for _, _, ball in transport.sent]
        assert len(balls) == 3
        assert all(ball is balls[0] for ball in balls)

    def test_send_only_transport_falls_back_to_per_peer_loop(self):
        transport = RecordingTransport()
        component = build(transport)
        component.broadcast("payload")
        component.round_tick()

        assert [dst for _, dst, _ in transport.sent] == [1, 2, 3]
        assert component.stats.balls_sent == 3

    def test_fallback_and_fanout_ship_identical_balls(self):
        plain, batched = RecordingTransport(), FanoutRecordingTransport()
        for transport in (plain, batched):
            component = build(transport)
            component.broadcast("same")
            component.round_tick()
        plain_balls = [ball for _, _, ball in plain.sent]
        batched_balls = [ball for _, _, ball in batched.sent]
        assert [list(ball.ttls.items()) for ball in plain_balls] == [
            list(ball.ttls.items()) for ball in batched_balls
        ]
