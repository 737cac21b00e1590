"""Unit tests for the wired EpTO process (repro.core.process)."""

from __future__ import annotations

import random

import pytest

from repro.core import EpToConfig, EpToProcess
from repro.core.clock import LogicalClockOracle
from repro.core.errors import ConfigurationError
from repro.core.event import Ball

from ..conftest import RecordingTransport, StaticPeerSampler, make_event


def build_process(
    node_id: int = 0,
    fanout: int = 2,
    ttl: int = 2,
    clock: str = "logical",
    tagged: bool = False,
    expose: bool = False,
):
    config = EpToConfig(
        fanout=fanout,
        ttl=ttl,
        clock=clock,
        tagged_delivery=tagged,
        expose_stability=expose,
    )
    transport = RecordingTransport()
    delivered: list = []
    tagged_out: list = []
    process = EpToProcess(
        node_id=node_id,
        config=config,
        peer_sampler=StaticPeerSampler([1, 2, 3]),
        transport=transport,
        on_deliver=delivered.append,
        on_out_of_order=tagged_out.append if tagged else None,
        time_source=(lambda: 0) if clock == "global" else None,
        rng=random.Random(0),
        system_size_hint=16 if expose else None,
    )
    return process, transport, delivered, tagged_out


class TestWiring:
    def test_broadcast_eventually_self_delivers(self):
        # Validity for an isolated process: its own event must deliver
        # even though nobody answers.
        process, _, delivered, _ = build_process(ttl=2)
        process.broadcast("mine")
        for _ in range(5):
            process.on_round()
        assert [e.payload for e in delivered] == ["mine"]

    def test_received_events_deliver_in_order(self):
        process, _, delivered, _ = build_process(ttl=1)
        ball = Ball.of(
            [
                (make_event(src=2, ts=9, payload="second"), 0),
                (make_event(src=1, ts=3, payload="first"), 0),
            ]
        )
        process.on_ball(ball)
        for _ in range(4):
            process.on_round()
        assert [e.payload for e in delivered] == ["first", "second"]

    def test_on_ball_relays_next_round(self):
        process, transport, _, _ = build_process(ttl=3)
        process.on_ball(Ball.of([(make_event(src=5), 0)]))
        process.on_round()
        assert len(transport.sent) == 2  # fanout peers

    def test_counts(self):
        process, _, delivered, _ = build_process(ttl=1)
        process.broadcast()
        assert process.pending_count == 0  # not yet ordered
        process.on_round()
        assert process.pending_count == 1
        for _ in range(3):
            process.on_round()
        assert process.delivered_count == 1
        assert process.pending_count == 0

    def test_custom_oracle_injectable(self):
        oracle = LogicalClockOracle(ttl=1)
        config = EpToConfig(fanout=1, ttl=1, clock="logical")
        process = EpToProcess(
            node_id=0,
            config=config,
            peer_sampler=StaticPeerSampler([]),
            transport=RecordingTransport(),
            on_deliver=lambda e: None,
            oracle=oracle,
        )
        assert process.oracle is oracle


class TestConfigurationGuards:
    def test_global_clock_requires_time_source(self):
        with pytest.raises(ConfigurationError):
            EpToProcess(
                node_id=0,
                config=EpToConfig(fanout=1, ttl=1, clock="global"),
                peer_sampler=StaticPeerSampler([]),
                transport=RecordingTransport(),
                on_deliver=lambda e: None,
            )

    def test_tagged_delivery_requires_callback(self):
        with pytest.raises(ConfigurationError):
            EpToProcess(
                node_id=0,
                config=EpToConfig(
                    fanout=1, ttl=1, clock="logical", tagged_delivery=True
                ),
                peer_sampler=StaticPeerSampler([]),
                transport=RecordingTransport(),
                on_deliver=lambda e: None,
            )

    def test_expose_stability_requires_size_hint(self):
        with pytest.raises(ConfigurationError):
            EpToProcess(
                node_id=0,
                config=EpToConfig(
                    fanout=1, ttl=1, clock="logical", expose_stability=True
                ),
                peer_sampler=StaticPeerSampler([]),
                transport=RecordingTransport(),
                on_deliver=lambda e: None,
            )

    def test_peek_requires_extension(self):
        process, *_ = build_process(expose=False)
        with pytest.raises(ConfigurationError):
            process.peek()


class TestPeek:
    def test_peek_reports_pending_events(self):
        process, _, _, _ = build_process(ttl=10, expose=True)
        process.on_ball(Ball.of([(make_event(src=3, ts=1), 0)]))
        process.on_round()
        estimates = process.peek()
        assert len(estimates) == 1
        assert estimates[0].event.source_id == 3
        assert 0.0 <= estimates[0].probability_stable <= 1.0

    def test_peek_stability_rises_with_rounds(self):
        process, _, _, _ = build_process(ttl=30, fanout=3, expose=True)
        process.on_ball(Ball.of([(make_event(src=3, ts=1), 0)]))
        process.on_round()
        early = process.peek()[0].probability_stable
        for _ in range(10):
            process.on_round()
        late = process.peek()[0].probability_stable
        assert late >= early


class TestTaggedIntegration:
    def test_tagged_events_flow_through_process(self):
        process, _, delivered, tagged = build_process(ttl=1, tagged=True)
        process.on_ball(Ball.of([(make_event(src=2, ts=10), 0)]))
        for _ in range(3):
            process.on_round()
        assert len(delivered) == 1
        process.on_ball(Ball.of([(make_event(src=1, ts=5), 0)]))
        process.on_round()
        assert len(delivered) == 1
        assert len(tagged) == 1

    def test_tagged_flag_off_ignores_callback(self):
        # Callback supplied but config flag off: base behaviour.
        config = EpToConfig(fanout=1, ttl=1, clock="logical")
        tagged: list = []
        process = EpToProcess(
            node_id=0,
            config=config,
            peer_sampler=StaticPeerSampler([]),
            transport=RecordingTransport(),
            on_deliver=lambda e: None,
            on_out_of_order=tagged.append,
        )
        process.on_ball(Ball.of([(make_event(src=2, ts=10), 0)]))
        for _ in range(3):
            process.on_round()
        assert process.delivered_count == 1
        process.on_ball(Ball.of([(make_event(src=1, ts=5), 0)]))
        process.on_round()
        assert tagged == []
        assert process.ordering.stats.discarded_late == 1
