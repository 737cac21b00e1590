"""SimCluster same-identity crash/respawn and the fan-out send path."""

from __future__ import annotations

import pytest

from repro.core import EpToConfig
from repro.core.errors import MembershipError
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator
from repro.stack import CATCH_UP_ROUNDS, RESPAWN_HOLD_SLACK_ROUNDS, NodeStack, respawn

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
    """The respawn hold: ``ttl + RESPAWN_HOLD_SLACK_ROUNDS`` of the
    node's own rounds, and ``caught_up``, armed by the one respawn
    procedure every host calls."""

    class _Process:
        def __init__(self, config):
            self.config = config
            self.rounds = 0

        def on_ball(self, ball):
            pass

        def on_round(self):
            self.rounds += 1

    class _Manager:
        def __init__(self, caught_up=True):
            self.caught_up = caught_up

    def _respawned(self, ttl, manager):
        """A stack brought back by :func:`repro.stack.respawn`, its
        process and sync manager stand-ins."""
        config = EpToConfig(fanout=3, ttl=ttl, round_interval=10)
        process = self._Process(config)
        stacks = []

        def build(journal):
            assert journal is None  # no storage: nothing to recover
            stack = NodeStack(
                0,
                config,
                pss=None,
                fabric=None,
                on_deliver=None,
                time_source=None,
                rng=None,
                process_factory=lambda **wiring: process,
            )
            stack.sync_manager = manager
            stacks.append(stack)
            return stack

        assert respawn(0, 0, build) is None
        return stacks[0], process

    @staticmethod
    def _rounds_until_open(stack, process, limit=500):
        for held in range(1, limit + 1):
            stack.on_round()
            if process.rounds:
                return held
        raise AssertionError(f"still held after {limit} rounds")

    def test_default_hold_is_ttl_plus_named_slack(self):
        from repro.sim.cluster import RESPAWN_HOLD_SLACK_ROUNDS as reexported

        assert RESPAWN_HOLD_SLACK_ROUNDS == 6
        assert reexported is RESPAWN_HOLD_SLACK_ROUNDS  # benchmarks/e2e reads it there
        stack, process = self._respawned(6, self._Manager())
        assert self._rounds_until_open(stack, process) == 6 + RESPAWN_HOLD_SLACK_ROUNDS

    def test_gate_opens_after_exactly_hold_rounds(self):
        """Held for ``ttl + slack`` rounds exactly, then open for good."""
        stack, process = self._respawned(6, self._Manager())
        hold = 6 + RESPAWN_HOLD_SLACK_ROUNDS
        for _ in range(hold - 1):
            stack.on_round()
        assert process.rounds == 0  # still held
        stack.on_round()
        assert process.rounds == 1  # opens on round `hold` exactly
        stack.on_round()
        assert process.rounds == 2  # and stays open

    def test_catch_up_budget_never_cuts_the_horizon_short(self):
        """At ttl=40 the horizon (46 rounds) outlasts the default
        catch-up budget (40): the gate still holds the whole horizon."""
        assert CATCH_UP_ROUNDS == 40
        stack, process = self._respawned(40, self._Manager())
        assert self._rounds_until_open(stack, process) == 40 + RESPAWN_HOLD_SLACK_ROUNDS

    def test_budget_bounds_only_the_wait_for_convergence(self):
        """A node that never hears ``caught_up`` (every peer gone) is
        released at ``max(horizon, CATCH_UP_ROUNDS)``."""
        stack, process = self._respawned(6, self._Manager(caught_up=False))
        assert self._rounds_until_open(stack, process) == 40
        stack, process = self._respawned(40, self._Manager(caught_up=False))
        assert self._rounds_until_open(stack, process) == 40 + RESPAWN_HOLD_SLACK_ROUNDS

    def test_a_stack_without_sync_is_not_held(self):
        stack, process = self._respawned(6, None)
        assert self._rounds_until_open(stack, process) == 1


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
