"""SimCluster same-identity crash/respawn and the fan-out send path."""

from __future__ import annotations

import pytest

from repro.core import EpToConfig
from repro.core.errors import MembershipError
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator
from repro.stack import NodeStack

from ..conftest import build_small_world, make_event


def build_cluster(n=6, seed=3):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(epto=EpToConfig(fanout=3, ttl=6, round_interval=10)),
    )
    cluster.add_nodes(n)
    return sim, network, cluster


class TestCrashRespawn:
    def test_respawn_resumes_broadcast_sequence(self):
        sim, network, cluster = build_cluster()
        first = cluster.broadcast_from(2, "a")
        second = cluster.broadcast_from(2, "b")
        assert [first.seq, second.seq] == [0, 1]

        cluster.crash_node(2)
        assert 2 not in cluster.alive_ids()
        assert cluster.crashed_ids() == [2]

        respawned = cluster.respawn_node(2)
        assert respawned == 2
        assert 2 in cluster.alive_ids()
        assert cluster.crashed_ids() == []
        # The replacement never reissues a used (source, seq) id.
        third = cluster.broadcast_from(2, "c")
        assert third.id == (2, 2)

    def test_respawned_node_rejoins_the_protocol(self):
        world = build_small_world(n=6, seed=9, latency=1)
        world.cluster.crash_node(0)
        world.cluster.respawn_node(0)
        event = world.cluster.broadcast_from(0, "after-restart")
        world.quiesce()
        for node_id in world.cluster.alive_ids():
            assert event.id in world.cluster.collector.delivered_ids_of(node_id)

    def test_respawn_without_crash_is_rejected(self):
        _, _, cluster = build_cluster()
        with pytest.raises(MembershipError):
            cluster.respawn_node(1)
        cluster.crash_node(1)
        cluster.respawn_node(1)
        with pytest.raises(MembershipError):  # already respawned
            cluster.respawn_node(1)

    def test_crash_of_unknown_node_is_rejected(self):
        _, _, cluster = build_cluster()
        with pytest.raises(MembershipError):
            cluster.crash_node(99)


class TestRespawnHoldGate:
    """The respawn round-gate length is a named, documented parameter."""

    def _config(self, **overrides):
        return ClusterConfig(
            epto=EpToConfig(fanout=3, ttl=6, round_interval=10), **overrides
        )

    def test_default_hold_is_ttl_plus_named_slack(self):
        from repro.sim.cluster import RESPAWN_HOLD_SLACK_ROUNDS

        config = self._config()
        assert RESPAWN_HOLD_SLACK_ROUNDS == 6
        assert config.respawn_hold_slack == RESPAWN_HOLD_SLACK_ROUNDS
        assert config.respawn_hold_rounds() == 6 + RESPAWN_HOLD_SLACK_ROUNDS

    def test_slack_is_overridable_and_validated(self):
        assert self._config(respawn_hold_slack=0).respawn_hold_rounds() == 6
        assert self._config(respawn_hold_slack=10).respawn_hold_rounds() == 16
        with pytest.raises(MembershipError):
            self._config(respawn_hold_slack=-1)

    def test_gate_opens_after_exactly_hold_rounds(self):
        """`NodeStack.hold` holds `on_round` for the configured count,
        no magic left."""

        class _Process:
            def __init__(self):
                self.rounds = 0

            def on_ball(self, ball):
                pass

            def on_round(self):
                self.rounds += 1

        class _Manager:
            caught_up = True

            class config:
                catch_up_rounds = 1000

        hold = self._config(respawn_hold_slack=4).respawn_hold_rounds()
        process = _Process()
        stack = NodeStack(
            0,
            self._config().epto,
            pss=None,
            fabric=None,
            on_deliver=None,
            time_source=None,
            rng=None,
            process_factory=lambda **wiring: process,
        )
        stack.sync_manager = _Manager()
        stack.hold(hold)
        for _ in range(hold - 1):
            stack.on_round()
        assert process.rounds == 0  # still held
        stack.on_round()
        assert process.rounds == 1  # opens on round `hold` exactly
        stack.on_round()
        assert process.rounds == 2  # and stays open


class TestSendMany:
    def test_send_many_reaches_every_destination(self):
        sim, network, cluster = build_cluster(n=4)
        inboxes = {nid: [] for nid in range(4)}
        for nid in range(4):
            network.unregister(nid)
            network.register(nid, lambda src, msg, n=nid: inboxes[n].append(msg))
        ball = (make_event(src=0, seq=0),)
        network.send_many(0, [1, 2, 3], ball)
        sim.run_for(50)
        for dst in (1, 2, 3):
            assert inboxes[dst] == [ball]
        assert network.stats.sent == 3
