"""Micro-benchmarks of the hot paths (simulator-independent).

Unlike the figure benchmarks these use pytest-benchmark's statistical
machinery (many rounds) because each operation is microseconds-scale:

* dissemination: receiving and merging a large ball;
* ordering: one ``orderEvents`` round over a loaded received map;
* engine: schedule + drain throughput;
* Cyclon: one shuffle round-trip.

They exist to catch performance regressions in the code every
simulation second is made of.
"""

from __future__ import annotations

import random

from repro.core import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.event import Ball, Event
from repro.core.ordering import OrderingComponent
from repro.pss.cyclon import CyclonPss, CyclonRequest, CyclonResponse
from repro.sim.engine import Simulator

BALL_SIZE = 200


class ManualOracle:
    """Minimal oracle: deliverable strictly above a fixed TTL."""

    def __init__(self, ttl):
        self.ttl = ttl

    def is_deliverable(self, record):
        return record.ttl > self.ttl

    def get_clock(self):
        return 0

    def update_clock(self, ts):
        pass


class RecordingTransport:
    def __init__(self):
        self.sent = []

    def send(self, src, dst, ball):
        self.sent.append((src, dst, ball))

    def clear(self):
        self.sent.clear()


class StaticPeerSampler:
    def __init__(self, peers):
        self.peers = list(peers)

    def sample(self, k):
        return self.peers[:k]


def make_big_ball(ttl: int = 1, ts_base: int = 0):
    return Ball.of(
        (Event(id=(i, 0), ts=ts_base + i, source_id=i), ttl)
        for i in range(BALL_SIZE)
    )


def test_dissemination_receive_ball(benchmark):
    config = EpToConfig(fanout=16, ttl=20, clock="logical")
    component = DisseminationComponent(
        node_id=10**6,
        config=config,
        oracle=ManualOracle(ttl=20),
        peer_sampler=StaticPeerSampler(list(range(16))),
        transport=RecordingTransport(),
        order_events=lambda ball: None,
        rng=random.Random(0),
    )
    ball = make_big_ball()

    def receive():
        component.receive_ball(ball)

    benchmark(receive)
    assert component.next_ball_size == BALL_SIZE


def test_dissemination_round_tick(benchmark):
    config = EpToConfig(fanout=16, ttl=20, clock="logical")
    transport = RecordingTransport()
    component = DisseminationComponent(
        node_id=10**6,
        config=config,
        oracle=ManualOracle(ttl=20),
        peer_sampler=StaticPeerSampler(list(range(16))),
        transport=transport,
        order_events=lambda ball: None,
        rng=random.Random(0),
    )
    ball = make_big_ball()

    def round_trip():
        component.receive_ball(ball)
        component.round_tick()
        transport.clear()

    benchmark(round_trip)


def test_ordering_round(benchmark):
    oracle = ManualOracle(ttl=10**9)  # nothing ever delivers: pure aging
    component = OrderingComponent(oracle, deliver=lambda e: None)
    component.order_events(make_big_ball())

    empty = ()

    def one_round():
        component.order_events(empty)

    benchmark(one_round)
    assert component.received_count == BALL_SIZE


def test_ordering_delivery_burst(benchmark):
    def deliver_burst():
        component = OrderingComponent(ManualOracle(ttl=1), deliver=lambda e: None)
        component.order_events(make_big_ball(ttl=5))
        return component

    component = benchmark(deliver_burst)
    assert component.stats.delivered == BALL_SIZE


def test_engine_schedule_drain(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        noop = lambda: None
        for i in range(1000):
            sim.schedule(i % 97, noop)
        sim.run()
        return sim

    sim = benchmark(schedule_and_drain)
    assert sim.executed == 1000


def test_cyclon_shuffle_roundtrip(benchmark):
    outbox = []
    a = CyclonPss(0, view_size=16, shuffle_size=8,
                  send=lambda dst, msg: outbox.append((dst, msg)),
                  rng=random.Random(1))
    b = CyclonPss(1, view_size=16, shuffle_size=8,
                  send=lambda dst, msg: outbox.append((dst, msg)),
                  rng=random.Random(2))
    a.bootstrap(range(1, 17))
    b.bootstrap([0] + list(range(2, 17)))

    def roundtrip():
        # Two-node universe: b answers every request a emits (whatever
        # view entry a picked), so the full request/response/merge path
        # runs every iteration and a's view never drains.
        outbox.clear()
        a.shuffle()
        target = next(iter(a._pending), 1)
        for _dst, msg in list(outbox):
            if isinstance(msg, CyclonRequest):
                b.handle_request(0, msg)
        for dst, msg in list(outbox):
            if isinstance(msg, CyclonResponse) and dst == 0:
                a.handle_response(target, msg)

    benchmark(roundtrip)
    assert a.view_fill > 0
