"""Encode-once fan-out at the dissemination layer.

A round's ball is identical for every peer, so the transport receives
one ``send_many`` call with the peer list (and can serialize once).
Every transport fans out: ``send_many`` is part of the protocol.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.config import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.interfaces import Transport

from ..conftest import ManualOracle, RecordingTransport, StaticPeerSampler


class FanoutRecordingTransport(RecordingTransport):
    """Transport recording each fan-out call as one batch."""

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


class SendOnly:
    """A channel without the fan-out surface."""

    def send(self, src: int, dst: int, ball: Any) -> None:
        pass


class TestFanoutProtocol:
    def test_a_transport_fans_out(self):
        assert isinstance(FanoutRecordingTransport(), Transport)
        assert isinstance(RecordingTransport(), Transport)
        assert not isinstance(SendOnly(), Transport)


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
