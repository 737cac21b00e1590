"""Tests for the unordered balls-and-bins baseline (repro.broadcast)."""

from __future__ import annotations

import pytest

from repro.broadcast.balls_bins import BallsBinsProcess
from repro.core import EpToConfig
from repro.core.event import Ball
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator

from ..conftest import RecordingTransport, StaticPeerSampler, make_event


def build_process(ttl=3, fanout=2):
    config = EpToConfig(fanout=fanout, ttl=ttl, clock="logical")
    transport = RecordingTransport()
    delivered: list = []
    process = BallsBinsProcess(
        node_id=0,
        config=config,
        peer_sampler=StaticPeerSampler([1, 2]),
        transport=transport,
        on_deliver=delivered.append,
    )
    return process, transport, delivered


class TestFirstSightDelivery:
    def test_delivers_on_arrival_not_round(self):
        process, _, delivered = build_process()
        process.on_ball(Ball.of([(make_event(src=1), 0)]))
        assert len(delivered) == 1  # immediately, before any round

    def test_never_delivers_twice(self):
        process, _, delivered = build_process()
        ball = Ball.of([(make_event(src=1), 0)])
        process.on_ball(ball)
        process.on_ball(ball)
        process.on_round()
        process.on_ball(ball)
        assert len(delivered) == 1

    def test_own_broadcast_delivered_at_next_round(self):
        process, _, delivered = build_process()
        process.broadcast("mine")
        assert delivered == []  # queued in nextBall
        process.on_round()
        assert [e.payload for e in delivered] == ["mine"]

    def test_expired_events_still_delivered_once(self):
        # Unlike EpTO, the baseline delivers events even at the TTL
        # boundary (they are just not relayed further).
        process, transport, delivered = build_process(ttl=2)
        process.on_ball(Ball.of([(make_event(src=1), 2)]))
        assert len(delivered) == 1
        process.on_round()
        assert transport.sent == []  # not relayed

    def test_no_order_guarantee_by_design(self):
        process, _, delivered = build_process()
        late = make_event(src=2, ts=100)
        early = make_event(src=1, ts=1)
        process.on_ball(Ball.of([(late, 0)]))
        process.on_ball(Ball.of([(early, 0)]))
        assert [e.ts for e in delivered] == [100, 1]  # arrival order


class TestRelaying:
    def test_relays_like_epto(self):
        process, transport, _ = build_process(ttl=3, fanout=2)
        process.on_ball(Ball.of([(make_event(src=1), 0)]))
        process.on_round()
        assert len(transport.sent) == 2
        assert list(transport.sent[0][2].ttls.values()) == [1]


class TestClusterIntegration:
    def test_baseline_faster_than_epto(self):
        """The whole point of Figure 6: first-sight delivery beats
        TTL-aged delivery by a multiple."""

        def run(kind):
            sim = Simulator(seed=4)
            network = SimNetwork(sim, latency=FixedLatency(10))
            config = EpToConfig(fanout=4, ttl=8, round_interval=100)

            def factory(*, node_id, pss, transport, on_deliver, time_source, rng):
                return BallsBinsProcess(
                    node_id=node_id,
                    config=config,
                    peer_sampler=pss,
                    transport=transport,
                    on_deliver=on_deliver,
                    time_source=time_source,
                    rng=rng,
                )

            cluster = SimCluster(
                sim,
                network,
                ClusterConfig(epto=config),
                process_factory=factory if kind == "baseline" else None,
            )
            cluster.add_nodes(12)
            cluster.broadcast_from(0, "race")
            sim.run(until=10_000)
            delays = cluster.collector.delivery_delays()
            assert len(delays) == 12
            return max(delays)

        assert run("baseline") * 2 < run("epto")
