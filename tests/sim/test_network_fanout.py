"""``SimNetwork.send_many``: one calendar entry per arrival tick, and
nothing else different from that many one-destination sends.

``send(src, dst, m)`` is ``send_many(src, (dst,), m)``; a fan-out is
compared with the same destinations sent one by one, and both with
:class:`PerCopyNetwork` below, which spells a send out per copy and
gives every copy its own calendar entry.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth import HmacAuthenticator, KeyRing
from repro.core import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.event import Ball, Event
from repro.faults.byzantine import ByzantineRouter
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.drift import NoDrift
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, LogNormalLatency, UniformLatency
from repro.sim.network import SimNetwork

NODES = range(8)
#: Never registered: dead at send time.
GHOST = 99
#: Registered, then unregistered while balls to it are in flight.
DOOMED = 5
HOSTILE = 2

LATENCIES = {
    "fixed": lambda: FixedLatency(3),
    "uniform": lambda: UniformLatency(1, 6),
    "lognormal": lambda: LogNormalLatency(1.0, 0.8, cap=40),
}


def _ball(src: int, stamp: int, guard=None) -> Ball:
    """Two entries *src* originated and two it relays: one its source
    sealed (what a hostile relay forges fails verification) and one
    nobody sealed (unsigned under a guard)."""
    own = [
        Event(id=(src, 2 * stamp + i), ts=stamp, source_id=src, payload=f"{src}:{stamp}:{i}")
        for i in range(2)
    ]
    sealed = Event(id=(50 + src, stamp), ts=stamp, source_id=50 + src, payload="sealed")
    if guard is not None:
        guard.seal(50 + src, Ball.of([(sealed, 0)]))
    unsealed = Event(id=(70 + src, stamp), ts=stamp, source_id=70 + src, payload="unsealed")
    return Ball.of(
        [
            (own[0], 1),
            (sealed, 2),
            (own[1], 3),
            (unsealed, 2),
        ]
    )


class PerCopyNetwork(SimNetwork):
    """Reference: every decision of a send spelled out per copy, and a
    calendar entry per copy — the network before it had buckets."""

    def send(self, src, dst, message):
        if isinstance(message, Ball):
            if self._guard is not None:
                self._guard.seal(src, message)
            if self._adversary is not None and self._adversary.is_hostile(src):
                message = self._adversary.transform(src, dst, message)
        self.stats.sent += 1
        if self._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.stats.dropped_loss += 1
            return
        if not self.is_registered(dst):
            self.stats.dropped_dead += 1
            return
        delay = self.latency.sample(self._latency_rng, src, dst)
        self.sim.schedule(delay, lambda: self._deliver(src, [dst], [message]))
        if self.duplicate_rate > 0.0 and self._loss_rng.random() < self.duplicate_rate:
            self.stats.duplicated += 1
            extra = self.latency.sample(self._latency_rng, src, dst)
            self.sim.schedule(extra, lambda: self._deliver(src, [dst], [message]))

    def send_many(self, src, dsts, message):
        for dst in dsts:
            self.send(src, dst, message)


def _world(latency, loss, duplication, guard, seed, fabric=SimNetwork):
    sim = Simulator(seed=seed)
    net = fabric(
        sim,
        latency=LATENCIES[latency](),
        loss_rate=loss,
        duplicate_rate=duplication,
        authenticator=HmacAuthenticator(KeyRing("fan-out")) if guard else None,
    )
    log = []
    for node in NODES:
        net.register(
            node,
            lambda src, message, node=node: log.append((sim.now(), node, src, message)),
        )
    return sim, net, log


def _drive(
    fanned: bool,
    latency,
    loss,
    duplication,
    partition,
    guard,
    hostile,
    seed,
    plan,
    fabric=SimNetwork,
):
    sim, net, log = _world(latency, loss, duplication, guard, seed, fabric)
    if hostile:
        router = ByzantineRouter(rng=random.Random(seed))
        router.enable([HOSTILE], "equivocate", rate=0.5)
        router.enable([HOSTILE], "ttl_inflate")
        net.set_adversary(router)
    if partition:
        net.set_partition({0: "a", 1: "a", 2: "b", 3: "b", 4: "a"})
        sim.schedule_at(9, net.heal_partition)
    sim.schedule_at(6, lambda: net.unregister(DOOMED))

    def fan_out(src, dsts, message) -> None:
        if fanned:
            net.send_many(src, dsts, message)
        else:
            for dst in dsts:
                net.send(src, dst, message)

    for stamp, (tick, src, dsts, is_ball) in enumerate(plan):
        message = _ball(src, stamp, net._guard) if is_ball else f"control-{stamp}"
        sim.schedule_at(
            tick, lambda src=src, dsts=dsts, message=message: fan_out(src, dsts, message)
        )
    sim.run()
    return (
        log,
        dataclasses.asdict(net.stats),
        net._loss_rng.getstate(),
        net._latency_rng.getstate(),
        sim.now(),
    )


fan_outs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),  # tick of the send
        st.sampled_from(list(NODES)),
        st.lists(st.sampled_from(list(NODES) + [GHOST]), max_size=6),
        st.booleans(),  # a ball, or an opaque control message
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(
    latency=st.sampled_from(sorted(LATENCIES)),
    loss=st.sampled_from([0.0, 0.3]),
    duplication=st.sampled_from([0.0, 0.4]),
    partition=st.booleans(),
    guard=st.booleans(),
    hostile=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    plan=fan_outs,
)
def test_send_many_equals_sequential_sends(
    latency, loss, duplication, partition, guard, hostile, seed, plan
):
    """Same handler calls in the same order at the same ticks, same
    ``NetworkStats``, same state of both random streams afterwards —
    as a fan-out, as one-destination sends, and on the reference."""
    args = (latency, loss, duplication, partition, guard, hostile, seed, plan)
    fanned = _drive(True, *args)
    assert fanned == _drive(False, *args)
    assert fanned == _drive(True, *args, fabric=PerCopyNetwork)


def test_every_branch_of_the_matrix_is_reachable():
    """The property would hold vacuously if its faults never fired."""
    plan = [
        (tick, src, [0, 1, 2, 3, 4, DOOMED, GHOST], True)
        for tick in range(10)
        for src in (1, HOSTILE)
    ]
    _, stats, *_ = _drive(True, "uniform", 0.3, 0.4, True, True, True, 11, plan)
    for counter in (
        "delivered",
        "dropped_loss",
        "dropped_dead",
        "dropped_partition",
        "dropped_bad_signature",
        "dropped_unsigned",
        "duplicated",
    ):
        assert stats[counter] > 0, counter
    assert stats["sent"] == len(plan) * 7
    # Without the other faults the dead can be counted: GHOST always,
    # DOOMED at send from tick 6 on — and, beyond those, the copies
    # that were in flight to DOOMED when it went away.
    log, stats, *_ = _drive(True, "uniform", 0.0, 0.0, False, False, False, 11, plan)
    dead_at_send = len(plan) + sum(1 for tick, *_ in plan if tick >= 6)
    assert stats["dropped_dead"] > dead_at_send
    assert any(node == DOOMED for _, node, _, _ in log)


class TestCalendarShape:
    def test_one_entry_per_fan_out_under_fixed_latency(self):
        sim, net, log = _world("fixed", 0.0, 0.0, False, seed=1)
        before = sim.pending
        net.send_many(0, [1, 2, 3, 4, GHOST], "m")
        assert sim.pending - before == 1
        assert net.stats.sent == 5 and net.stats.dropped_dead == 1
        executed = sim.executed
        sim.run()
        assert sim.executed - executed == 1  # a fan-out is one action
        assert [(node, src) for _, node, src, _ in log] == [(1, 0), (2, 0), (3, 0), (4, 0)]

    def test_one_entry_per_arrival_tick_otherwise(self):
        sim, net, log = _world("uniform", 0.0, 0.5, False, seed=4)
        net.send_many(0, [1, 2, 3, 4, 1, 2, 3, 4], "m")
        assert net.stats.duplicated > 0
        copies = 8 + net.stats.duplicated
        assert sim.pending < copies
        sim.run()
        assert len(log) == copies
        assert sim.executed == len({tick for tick, *_ in log})

    def test_empty_fan_out_schedules_and_seals_nothing(self):
        sim, net, _ = _world("fixed", 0.0, 0.0, True, seed=1)
        net.send_many(0, [], _ball(0, 0))
        assert sim.pending == 0 and net.stats.sent == 0
        assert len(net._guard) == 0

    def test_synchronised_round_is_n_entries_for_n_times_k_messages(self):
        n, fanout = 64, 5
        config = ClusterConfig(
            epto=EpToConfig(fanout=fanout, ttl=8, round_interval=20), drift=NoDrift()
        )
        sim = Simulator(seed=3)
        net = SimNetwork(sim, latency=FixedLatency(1))
        cluster = SimCluster(sim, net, config)
        cluster.add_nodes(n)
        for node in range(n):
            cluster.broadcast_from(node)
        sim.run(until=20)  # one synchronised round: every node relays
        timers = n  # each node's next round
        assert sim.pending - timers <= n
        assert net.stats.sent == n * fanout
        executed = sim.executed
        sim.run(until=21)
        assert sim.executed - executed <= n
        assert net.stats.delivered == n * fanout


def test_ball_in_flight_is_never_mutated_and_keeps_its_senders_map(monkeypatch):
    """What a late receiver sees is the object its sender built.

    Copies of one ball arrive up to 15 ticks apart and some twice; in
    between, earlier receivers merged it, re-aged it and emptied their
    pending balls, and the sender's own ordering round consumed it. TTL
    3 makes entries expire, so the per-bound ``live`` maps derived from
    the ball are covered as well as the map itself.
    """
    built = {}  # id(ball) -> (ball, its map, entries and map as sent)
    received = []

    def snapshot(ball):
        return list(ball.events.items()), list(ball.ttls.items())

    send_many = SimNetwork.send_many

    def sending(self, src, dsts, ball):
        assert type(ball) is Ball and ball.shared
        assert list(ball.events) == list(ball.ttls)
        built[id(ball)] = (ball, ball.ttls, snapshot(ball))
        send_many(self, src, dsts, ball)

    receive_ball = DisseminationComponent.receive_ball

    def receiving(self, ball):
        sent, ttls, as_sent = built[id(ball)]
        assert ball is sent and ball.ttls is ttls
        assert snapshot(ball) == as_sent
        receive_ball(self, ball)
        assert snapshot(ball) == as_sent
        received.append(ball)

    monkeypatch.setattr(SimNetwork, "send_many", sending)
    monkeypatch.setattr(DisseminationComponent, "receive_ball", receiving)
    config = ClusterConfig(
        epto=EpToConfig(fanout=3, ttl=3, round_interval=20), drift=NoDrift()
    )
    sim = Simulator(seed=9)
    net = SimNetwork(sim, latency=UniformLatency(1, 15), duplicate_rate=0.2)
    cluster = SimCluster(sim, net, config)
    cluster.add_nodes(8)
    for node in range(4):
        sim.schedule_at(5 + node, lambda node=node: cluster.broadcast_from(node, node))
    sim.run(until=10 * 20)

    assert len(built) > 8 and len(received) > 3 * len(built) - 8
    assert net.stats.duplicated > 0
    expired = 0
    for ball, ttls, as_sent in built.values():
        assert ball.ttls is ttls and snapshot(ball) == as_sent
        live, gone = ball.split(3)
        assert list(live.items()) == [(eid, t) for eid, t in as_sent[1] if t < 3]
        expired += gone
    assert expired > 0


class TestDeliveryChangesTheArrival:
    """Under :class:`FixedLatency` a fault-free fan-out is one arrival;
    what an earlier delivery of it does to the network still applies to
    the later copies, exactly as if each copy were its own action."""

    @staticmethod
    def _run(fabric, guard, partition, fanned):
        sim, net, log = _world("fixed", 0.0, 0.0, guard, seed=5, fabric=fabric)

        def first(src, message):
            log.append((sim.now(), 1, src, message))
            net.unregister(3)  # a later destination of this arrival
            if partition == "by a delivery":
                net.set_partition({0: "a", 1: "a", 2: "a", 4: "b"})

        net.unregister(1)
        net.register(1, first)
        if partition == "at send":
            net.set_partition({0: "a", 1: "a", 2: "b", 3: "a", 4: "a", GHOST: "a"})
        dsts = [1, 2, 3, 4, 3, GHOST]
        ball = _ball(0, 0, net._guard)
        if fanned:
            net.send_many(0, dsts, ball)
        else:
            for dst in dsts:
                net.send(0, dst, ball)
        sim.run()
        return log, dataclasses.asdict(net.stats)

    @pytest.mark.parametrize("guard", [False, True])
    @pytest.mark.parametrize("partition", [None, "at send", "by a delivery"])
    def test_counts_equal_the_per_copy_network(self, guard, partition):
        log, stats = self._run(SimNetwork, guard, partition, fanned=True)
        assert (log, stats) == self._run(PerCopyNetwork, guard, partition, True)
        assert (log, stats) == self._run(SimNetwork, guard, partition, False)
        # Both copies to 3 were in flight when 1's delivery removed it.
        assert stats["sent"] == 6
        assert stats["dropped_dead"] == 1 + 2  # GHOST at send, 3 twice
        assert [node for _, node, _, _ in log][0] == 1
        if partition == "by a delivery":
            assert stats["dropped_partition"] == 1  # 4, cut off after 1
            assert [node for _, node, _, _ in log] == [1, 2]
        elif partition == "at send":
            assert stats["dropped_partition"] == 1  # 2, at send
            assert [node for _, node, _, _ in log] == [1, 4]
        else:
            assert stats["delivered"] == 3
            assert [node for _, node, _, _ in log] == [1, 2, 4]
