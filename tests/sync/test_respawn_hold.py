"""The respawn hold on the asyncio hosts (docs/SYNC.md).

A respawned journaled node (``AsyncCluster``) or host topic
(``ServiceCluster``) comes back running, but held: for ``ttl +
RESPAWN_HOLD_SLACK_ROUNDS`` of its own rounds, and until anti-entropy
reports ``caught_up``, it receives balls yet sends none and orders
nothing, so everything it delivers meanwhile arrives through
contiguous sync pulls. A held topic takes no publish. Then it takes
part in the epidemic again: an event it broadcasts reaches everyone,
and the Table 1 check holds over every history.

Real miniature clusters on the event loop (round_interval in ms): the
held rounds are counted exactly by watching the round function every
host's timer calls, the waits are wall-clock.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

import pytest

from repro.core import EpToConfig
from repro.metrics import check_survivors
from repro.runtime import AsyncCluster, AsyncNetwork
from repro.service import BackpressureError, ServiceCluster
from repro.stack import CATCH_UP_ROUNDS, RESPAWN_HOLD_SLACK_ROUNDS, NodeStack
from repro.sync.config import SyncConfig

N = 6
VICTIM = 2
TOPIC = 1
TTL = 5
HOLD = TTL + RESPAWN_HOLD_SLACK_ROUNDS
BUDGET = CATCH_UP_ROUNDS


def config() -> EpToConfig:
    return EpToConfig(fanout=3, ttl=TTL, round_interval=20, clock="logical")


class RoundWatch:
    """Records every round of one stack: whether anti-entropy reported
    ``caught_up`` as the round began, whether the process ran, and the
    balls sent and ordering rounds run so far."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.stack: Optional[NodeStack] = None
        self.rounds: List[Tuple[bool, bool, int, int]] = []
        original = NodeStack.on_round
        watch = self

        def on_round(stack: NodeStack) -> None:
            if stack is not watch.stack:
                original(stack)
                return
            process = stack.process
            before = process.dissemination.stats.rounds
            caught_up = stack.sync_manager.caught_up
            original(stack)
            watch.rounds.append(
                (
                    caught_up,
                    process.dissemination.stats.rounds > before,
                    process.dissemination.stats.balls_sent,
                    process.ordering.stats.rounds,
                )
            )

        monkeypatch.setattr(NodeStack, "on_round", on_round)

    @property
    def opened_at(self) -> Optional[int]:
        """The round (1-based) whose process ran first, if any has."""
        for index, (_, ran, _, _) in enumerate(self.rounds, start=1):
            if ran:
                return index
        return None

    def sent(self) -> bool:
        return bool(self.rounds) and self.rounds[-1][2] > 0

    def assert_held_then_rejoins(self) -> None:
        opened = self.opened_at
        assert opened is not None, "the gate never opened"
        # The whole in-flight horizon, counted in the node's own rounds.
        assert opened >= HOLD, f"opened on round {opened} < {HOLD}"
        caught_up = self.rounds[opened - 1][0]
        assert caught_up or opened == max(HOLD, BUDGET)
        # Held: no process round, so no ball sent and nothing ordered
        # (an epidemic delivery happens only inside an ordering round).
        for _, ran, balls_sent, ordering_rounds in self.rounds[: opened - 1]:
            assert (ran, balls_sent, ordering_rounds) == (False, 0, 0)
        assert self.sent() and not self.stack.held


def run(coro):
    return asyncio.run(coro)


class TestAsyncClusterHold:
    def test_respawned_node_is_running_and_held_then_rejoins(
        self, tmp_path, monkeypatch
    ):
        watch = RoundWatch(monkeypatch)

        async def scenario():
            cluster = AsyncCluster(
                config(),
                network=AsyncNetwork(seed=3),
                seed=3,
                storage_dir=tmp_path,
                sync=SyncConfig(interval_rounds=2.0),
            )
            cluster.add_nodes(N)
            cluster.start_all()
            cluster.nodes[0].broadcast("a")
            cluster.nodes[1].broadcast("b")
            assert await cluster.wait_for_deliveries(2, timeout=10.0)

            cluster.crash_node(VICTIM)
            for k, payload in enumerate("cde"):
                cluster.nodes[3 + k].broadcast(payload)
            assert await cluster.wait_for_deliveries(5, timeout=10.0)

            node = await cluster.respawn_node(VICTIM)
            watch.stack = node.stack
            running = node.running and node.stack.held
            # In flight while the node is held.
            cluster.nodes[0].broadcast("f")
            await asyncio.sleep(3 * 0.02)
            cluster.nodes[4].broadcast("g")
            assert await cluster.wait_until(
                lambda: watch.opened_at is not None, timeout=10.0
            )
            node.broadcast("h")
            assert await cluster.wait_until(
                lambda: watch.sent()
                and all(len(cluster.deliveries[n]) >= 8 for n in range(N)),
                timeout=10.0,
            ), (watch.rounds[-1], {n: len(d) for n, d in cluster.deliveries.items()})
            await cluster.stop_all()
            return running, cluster

        running, cluster = run(scenario())
        assert running
        watch.assert_held_then_rejoins()
        report = check_survivors(
            cluster.deliveries,
            survivors=set(range(N)) - {VICTIM},
            recovered=[VICTIM],
            restart_indices=cluster.restart_indices,
        )
        assert report.ok, report.summary()
        assert cluster.recoveries[VICTIM]


class TestServiceClusterHold:
    def test_respawned_topic_is_running_and_held_then_rejoins(
        self, tmp_path, monkeypatch
    ):
        watch = RoundWatch(monkeypatch)

        async def scenario():
            cluster = ServiceCluster(
                config(),
                storage_dir=tmp_path,
                sync=SyncConfig(interval_rounds=2.0),
                seed=3,
            )
            cluster.open_topic(TOPIC)
            cluster.add_hosts(N)
            cluster.start_all()
            await cluster.publish(TOPIC, 0, "a")
            await cluster.publish(TOPIC, 1, "b")
            assert await cluster.wait_for_topic(TOPIC, 2, timeout=10.0)

            cluster.crash_host(VICTIM)
            for k, payload in enumerate("cde"):
                await cluster.publish(TOPIC, 3 + k, payload)
            assert await cluster.wait_for_topic(TOPIC, 5, timeout=10.0)

            host = await cluster.respawn_host(VICTIM)
            watch.stack = host.topics[TOPIC].node.stack
            running = host.running and watch.stack.held
            await cluster.publish(TOPIC, 0, "f")
            # A held topic takes no publish: an event stamped now would
            # leave only when the gate opens, too late to be ordered.
            with pytest.raises(BackpressureError):
                await cluster.publish(TOPIC, VICTIM, "refused", wait=False)
            await asyncio.sleep(3 * 0.02)
            await cluster.publish(TOPIC, 4, "g")
            # A waiting publish returns once the gate has opened.
            await cluster.publish(TOPIC, VICTIM, "h")
            opened_before_h = watch.opened_at is not None
            assert await cluster.wait_until(
                lambda: watch.sent()
                and all(
                    len(service.deliveries(TOPIC)) >= 8
                    for service in cluster.hosts.values()
                ),
                timeout=10.0,
            ), (
                watch.rounds[-1],
                {h: len(s.deliveries(TOPIC)) for h, s in cluster.hosts.items()},
            )
            report = cluster.check_topic(TOPIC)
            recovered = host.topics[TOPIC].recoveries
            await cluster.close_all()
            return running, opened_before_h, report, recovered

        running, opened_before_h, report, recovered = run(scenario())
        assert running
        assert opened_before_h
        watch.assert_held_then_rejoins()
        assert report.ok, report.summary()
        assert recovered
