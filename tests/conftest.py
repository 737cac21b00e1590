"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Tuple

import pytest

from repro.core import Ball, EpToConfig, Event
from repro.lazy.protocol import IdBall
from repro.metrics import check_run
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator


def make_event(
    src: int = 0, seq: int = 0, ts: int = 0, payload: Any = None
) -> Event:
    """Build a test event with sensible defaults."""
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


def pairs(ball: Ball) -> List[Tuple[Event, int]]:
    """A ball's ``(event, ttl)`` entries, in its order."""
    return list(zip(ball.events.values(), ball.ttls.values()))


def first_event(ball: Ball) -> Event:
    """The event of a ball's first entry."""
    return next(iter(ball.events.values()))


def id_ball(*entries: Tuple[int, int, int, int]) -> IdBall:
    """The id-ball of ``(ts, source, seq, ttl)`` entries."""
    return IdBall(
        Ball.of(
            (Event(id=(source, seq), ts=ts, source_id=source), ttl)
            for ts, source, seq, ttl in entries
        )
    )


class RecordingTransport:
    """Transport that captures every send for inspection."""

    def __init__(self) -> None:
        self.sent: List[Tuple[int, int, Any]] = []

    def send(self, src: int, dst: int, ball: Any) -> None:
        self.sent.append((src, dst, ball))

    def send_many(self, src: int, dsts, ball: Any) -> None:
        for dst in dsts:
            self.send(src, dst, ball)

    def balls_to(self, dst: int) -> List[Any]:
        return [ball for _, d, ball in self.sent if d == dst]

    def clear(self) -> None:
        self.sent.clear()


class StaticPeerSampler:
    """Peer sampler returning a fixed list (truncated to k)."""

    def __init__(self, peers: List[int]) -> None:
        self.peers = peers
        self.calls: List[int] = []

    def sample(self, k: int) -> List[int]:
        self.calls.append(k)
        return self.peers[:k]


class ManualOracle:
    """Stability oracle fully controlled by the test."""

    def __init__(self, ttl: int = 2, clock: int = 0) -> None:
        self.ttl = ttl
        self.clock = clock
        self.updates: List[int] = []

    def get_clock(self) -> int:
        return self.clock

    def update_clock(self, ts: int) -> None:
        self.updates.append(ts)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator."""
    return random.Random(1234)


@pytest.fixture
def transport() -> RecordingTransport:
    return RecordingTransport()


@dataclass
class SmallWorld:
    """A tiny fully-wired simulated deployment for integration tests."""

    sim: Simulator
    network: SimNetwork
    cluster: SimCluster
    config: EpToConfig

    def run_rounds(self, rounds: int) -> None:
        """Advance the simulation by *rounds* round intervals."""
        self.sim.run_for(rounds * self.config.round_interval)

    def quiesce(self, extra_rounds: int = 10) -> None:
        """Run long enough for all in-flight events to deliver."""
        self.run_rounds(self.config.ttl + 1 + extra_rounds)

    def spec_report(self):
        """Table 1 check over every node."""
        return check_run(self.cluster.collector)


def build_small_world(
    n: int = 8,
    seed: int = 7,
    latency: int = 10,
    loss_rate: float = 0.0,
    clock: str = "global",
    ttl: int | None = None,
    fanout: int | None = None,
    pss: str = "uniform",
    round_phase: str = "synchronized",
) -> SmallWorld:
    """Assemble a small simulated EpTO deployment for tests."""
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=FixedLatency(latency), loss_rate=loss_rate)
    config = EpToConfig.for_system_size(n, clock=clock, loss_rate=loss_rate)
    if ttl is not None:
        config = config.with_overrides(ttl=ttl)
    if fanout is not None:
        config = config.with_overrides(fanout=fanout)
    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(epto=config, pss=pss, round_phase=round_phase),
    )
    cluster.add_nodes(n)
    return SmallWorld(sim=sim, network=network, cluster=cluster, config=config)
