"""Integration-style tests for SimCluster wiring (repro.sim.cluster)."""

from __future__ import annotations

import pytest

from repro.core import EpToConfig, record
from repro.core.dissemination import DisseminationComponent
from repro.core.errors import MembershipError
from repro.core.event import Ball, Event
from repro.core.process import EpToProcess
from repro.lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from repro.metrics import DeliveryCollector
from repro.pss.cyclon import CyclonPss, CyclonRequest, CyclonResponse
from repro.pss.uniform import UniformViewPss
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator
from repro.sync import SyncConfig, SyncManager
from repro.sync.protocol import DeliveryDigest, SyncChunk, SyncDigest, SyncRequest

from ..conftest import build_small_world


def build_cluster(n=6, pss="uniform", **config_kwargs):
    sim = Simulator(seed=11)
    network = SimNetwork(sim, latency=FixedLatency(5))
    config = ClusterConfig(
        epto=EpToConfig(fanout=3, ttl=4, round_interval=100), pss=pss, **config_kwargs
    )
    cluster = SimCluster(sim, network, config)
    cluster.add_nodes(n)
    return sim, network, cluster


class TestMembership:
    def test_add_nodes_assigns_sequential_ids(self):
        _, _, cluster = build_cluster(4)
        assert sorted(cluster.alive_ids()) == [0, 1, 2, 3]
        assert cluster.size == 4

    def test_remove_node_deregisters_everywhere(self):
        sim, network, cluster = build_cluster(4)
        cluster.remove_node(2)
        assert cluster.size == 3
        assert not network.is_registered(2)
        assert 2 not in cluster.directory
        with pytest.raises(MembershipError):
            cluster.node(2)

    def test_remove_unknown_rejected(self):
        _, _, cluster = build_cluster(2)
        with pytest.raises(MembershipError):
            cluster.remove_node(99)

    def test_removed_node_stops_gossiping(self):
        sim, network, cluster = build_cluster(4)
        sources = []
        original = network.send

        def spy(src, dst, msg):
            sources.append(src)
            original(src, dst, msg)

        network.send = spy  # type: ignore[method-assign]
        cluster.broadcast_from(0, "x")
        cluster.remove_node(0)
        sim.run(until=2000)
        # Node 0's round task stopped before its first tick: the queued
        # broadcast dies with it and node 0 never sends anything.
        assert 0 not in sources

    def test_random_alive(self):
        _, _, cluster = build_cluster(5)
        assert cluster.random_alive() in cluster.alive_ids()

    def test_random_alive_on_empty_rejected(self):
        sim = Simulator()
        network = SimNetwork(sim)
        cluster = SimCluster(
            sim, network, ClusterConfig(epto=EpToConfig(fanout=1, ttl=1))
        )
        with pytest.raises(MembershipError):
            cluster.random_alive()


class TestPssWiring:
    def test_uniform_pss_by_default(self):
        _, _, cluster = build_cluster(3, pss="uniform")
        assert isinstance(cluster.pss_of(0), UniformViewPss)

    def test_cyclon_pss_selected(self):
        _, _, cluster = build_cluster(6, pss="cyclon")
        assert isinstance(cluster.pss_of(0), CyclonPss)

    def test_cyclon_nodes_bootstrap_from_membership(self):
        _, _, cluster = build_cluster(8, pss="cyclon")
        # Later nodes see earlier ones at bootstrap.
        assert cluster.pss_of(7).view_fill > 0

    def test_invalid_pss_rejected(self):
        with pytest.raises(MembershipError):
            ClusterConfig(epto=EpToConfig(fanout=1, ttl=1), pss="oracle")

    def test_invalid_round_phase_rejected(self):
        with pytest.raises(MembershipError):
            ClusterConfig(epto=EpToConfig(fanout=1, ttl=1), round_phase="chaotic")


class TestEndToEnd:
    def test_single_broadcast_reaches_everyone(self):
        world = build_small_world(n=8)
        world.cluster.broadcast_from(0, "payload")
        world.quiesce()
        collector = world.cluster.collector
        assert collector.delivery_count == 8
        assert world.spec_report().safety_ok

    def test_concurrent_broadcasts_identically_ordered(self):
        world = build_small_world(n=8)
        for node_id in (0, 3, 5):
            world.cluster.broadcast_from(node_id, f"from-{node_id}")
        world.quiesce()
        sequences = {
            tuple(world.cluster.collector.sequence_of(nid))
            for nid in world.cluster.alive_ids()
        }
        assert len(sequences) == 1
        assert len(next(iter(sequences))) == 3

    def test_staggered_phase_still_safe(self):
        world = build_small_world(n=8, round_phase="staggered")
        for node_id in (0, 1, 2):
            world.cluster.broadcast_from(node_id, node_id)
        world.quiesce()
        report = world.spec_report()
        assert report.safety_ok and report.agreement_ok

    def test_logical_clock_end_to_end(self):
        world = build_small_world(n=8, clock="logical")
        world.cluster.broadcast_from(2, "l")
        world.quiesce()
        assert world.cluster.collector.delivery_count == 8
        assert world.spec_report().safety_ok

    def test_collector_lifetimes_tracked(self):
        world = build_small_world(n=4)
        world.cluster.remove_node(1)
        lifetime = world.cluster.collector.lifetime_of(1)
        assert lifetime is not None
        assert lifetime.left is not None

    def test_deterministic_given_seed(self):
        def run():
            world = build_small_world(n=6, seed=99)
            world.cluster.broadcast_from(0, "d")
            world.quiesce()
            return [
                (rec.node_id, rec.event_id, rec.time)
                for rec in world.cluster.collector.deliveries()
            ]

        assert run() == run()


class TestInboxDispatch:
    """One message of every kind through one node's inbox: each reaches
    its handler exactly once, and a ball — nearly all the traffic — is
    recognised first, whether a wire ball's or a round's shared one."""

    EVENT = Event(id=(1, 0), ts=3, source_id=1, payload="x")
    BALL = Ball.of([(EVENT, 1)])
    SHARED = Ball({EVENT.id: EVENT}, {EVENT.id: 1}, shared=True)
    MESSAGES = [
        ("ball", BALL),
        ("ball", SHARED),
        ("cyclon_request", CyclonRequest(entries=())),
        ("cyclon_response", CyclonResponse(entries=())),
        ("lazy", IdBall(Ball({}, {}))),
        ("lazy", PayloadRequest(req_id=1, ids=())),
        ("lazy", PayloadResponse(req_id=1, events=())),
        ("sync", SyncDigest(DeliveryDigest(last_key=None))),
        ("sync", SyncRequest(req_id=1, after=None)),
        ("sync", SyncChunk(req_id=1, events=(), checksum=0)),
    ]

    def test_every_kind_reaches_its_handler_exactly_once(self, tmp_path, monkeypatch):
        calls = []
        sent_here = {id(message) for _, message in self.MESSAGES}

        def recorder(kind):
            # On the class, so every node's layer records: keep what
            # this test sent (a Cyclon view may shuffle in the meantime).
            return lambda self, *args: (
                id(args[-1]) in sent_here and calls.append((kind, args))
            )

        # The stack builds its dispatch table from the handlers its
        # layers have when the node is wired, so the recorders go on
        # the classes before the cluster exists (an eager process does
        # not speak lazy; giving it the handler is what makes it the
        # owning layer here).
        monkeypatch.setattr(DisseminationComponent, "receive_ball", recorder("ball"))
        monkeypatch.setattr(
            EpToProcess, "on_lazy_message", recorder("lazy"), raising=False
        )
        monkeypatch.setattr(CyclonPss, "handle_request", recorder("cyclon_request"))
        monkeypatch.setattr(CyclonPss, "handle_response", recorder("cyclon_response"))
        monkeypatch.setattr(SyncManager, "on_message", recorder("sync"))
        sim = Simulator(seed=11)
        network = SimNetwork(sim, latency=FixedLatency(5))
        config = ClusterConfig(
            epto=EpToConfig(fanout=2, ttl=4, round_interval=100), pss="cyclon"
        )
        cluster = SimCluster(
            sim, network, config, storage_dir=tmp_path, sync=SyncConfig()
        )
        cluster.add_nodes(3)
        for _, message in self.MESSAGES:
            network.send(1, 0, message)
        sim.run(until=5)  # FixedLatency(5): all ten have landed, no round yet
        assert len(calls) == len(self.MESSAGES)
        for (kind, args), (expected, sent) in zip(calls, self.MESSAGES):
            assert kind == expected
            assert args[-1] is sent
            assert args[:-1] == (() if kind == "ball" else (1,))

    def test_stray_traffic_is_dropped_not_taken_for_a_ball(self, monkeypatch):
        # Uniform PSS, eager, no sync: nobody here speaks Cyclon, lazy
        # or anti-entropy, and none of it may fall through to the ball
        # inbox, which is the dissemination component's receive_ball.
        balls = []
        monkeypatch.setattr(
            DisseminationComponent, "receive_ball", lambda self, ball: balls.append(ball)
        )
        sim, network, cluster = build_cluster(3)
        strays = [
            message
            for kind, message in self.MESSAGES
            if kind in ("cyclon_request", "cyclon_response", "lazy", "sync")
        ]
        for message in strays + [self.BALL, self.SHARED]:
            network.send(1, 0, message)
        sim.run(until=5)
        assert len(balls) == 2
        assert balls[0] is self.BALL and balls[1] is self.SHARED
        assert network.stats.delivered == len(strays) + 2


class TestByteAccounting:
    """The simulator has no wire, so it counts entries, not bytes, and
    never serialises a payload: bytes are counted where a wire carries
    them (the UDP fabric, the lazy pull)."""

    PAYLOADS = [
        "sixteen-byte-str",
        {"op": "set", "key": "k", "value": [1, 2.5, None]},
        None,
        frozenset({3}),  # not JSON: the ``repr`` fallback
        "\u00e9\u2713",
    ]

    def _run(self):
        sim = Simulator(seed=23)
        network = SimNetwork(sim, latency=FixedLatency(5))
        config = ClusterConfig(epto=EpToConfig(fanout=5, ttl=6, round_interval=100))
        cluster = SimCluster(sim, network, config)
        cluster.add_nodes(16)
        for index, payload in enumerate(self.PAYLOADS):
            sim.schedule_at(
                150 + 100 * index,
                lambda node=3 * index, payload=payload: cluster.broadcast_from(
                    node, payload
                ),
            )
        sim.run(until=20 * 100 + 50)
        assert cluster.collector.delivery_count == len(self.PAYLOADS) * 16
        return [cluster.node(node).dissemination.stats for node in range(16)]

    def test_totals_of_a_seeded_twenty_round_run_are_pinned(self):
        stats = self._run()
        # Every ball ships cut at the TTL bound. Shipping whole balls,
        # this run relayed 1520 entries in 575 balls (all 575 arrive)
        # and its receivers dropped 505 of them as expired (global
        # clock: no clock carrier), so 1520 - 505 = 1015 ship now and
        # none arrives expired.
        assert sum(s.entries_relayed for s in stats) == 1015
        assert sum(s.balls_sent for s in stats) == 575
        assert sum(s.entries_received for s in stats) == 1015
        assert sum(s.entries_expired for s in stats) == 0

    def test_a_payload_is_measured_once_per_event(self, monkeypatch):
        measured = []
        payload_json = record.payload_json

        def counting(payload):
            measured.append(payload)
            return payload_json(payload)

        monkeypatch.setattr(record, "payload_json", counting)
        self._run()
        assert measured == []


class TestReplyFromADeliveryCallback:
    """An application that answers a delivery broadcasts from inside
    the round that delivered it (``order_events`` runs the callback):
    the reply must go out with the next round, not be cleared with the
    ball being ordered."""

    def test_every_node_delivers_the_reply(self):
        sim = Simulator(seed=5)
        network = SimNetwork(sim, latency=FixedLatency(5))
        config = ClusterConfig(epto=EpToConfig(fanout=3, ttl=4, round_interval=100))
        replies = []

        class Replying(DeliveryCollector):
            def record_delivery(self, node_id, event, time):
                super().record_delivery(node_id, event, time)
                if node_id == 1 and event.payload == "ping":
                    replies.append(cluster.broadcast_from(1, "pong"))

        cluster = SimCluster(sim, network, config, collector=Replying())
        cluster.add_nodes(6)
        sim.schedule_at(150, lambda: cluster.broadcast_from(0, "ping"))
        sim.run(until=40 * 100)
        assert [event.payload for event in replies] == ["pong"]
        reply = replies[0].id
        delivered = [r.node_id for r in cluster.collector.deliveries() if r.event_id == reply]
        assert sorted(delivered) == list(range(6))
