"""Tests for the self-healing node supervisor (repro.faults.supervisor)."""

from __future__ import annotations

import asyncio

from repro.core import EpToConfig
from repro.faults import NodeSupervisor
from repro.metrics import check_survivors
from repro.runtime import AsyncCluster


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(fanout=3, ttl=5, round_interval=15, clock="logical")
    defaults.update(overrides)
    return EpToConfig(**defaults)


def quick_supervisor(cluster, **overrides):
    defaults = dict(poll_interval=0.01, base_delay=0.02, healthy_after=60.0)
    defaults.update(overrides)
    return NodeSupervisor(cluster, **defaults)


class TestRestart:
    def test_crashed_node_is_detected_and_restarted(self):
        """Acceptance scenario: a node crashed mid-run is restarted by
        the supervisor and delivers new events in the same total order
        as everyone else."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=21)
            cluster.add_nodes(6)
            cluster.start_all()
            supervisor = quick_supervisor(cluster)
            supervisor.start()

            cluster.nodes[0].broadcast("before-crash")
            await cluster.wait_for_deliveries(1, timeout=8.0)

            cluster.crash_node(2)
            revived = await cluster.wait_until(
                lambda: not cluster.nodes[2].crashed and cluster.nodes[2].running,
                timeout=8.0,
            )
            cluster.nodes[1].broadcast("after-restart")
            ok = await cluster.wait_until(
                lambda: all(
                    any(e.payload == "after-restart" for e in cluster.deliveries[n])
                    for n in cluster.live_ids()
                ),
                timeout=8.0,
            )
            await supervisor.stop()
            await cluster.stop_all()
            return revived, ok, supervisor, cluster

        revived, ok, supervisor, cluster = run(scenario())
        assert revived and ok
        assert supervisor.stats.detected >= 1
        assert supervisor.stats.restarted == 1
        assert supervisor.stats.attempts[2] == 1
        assert not supervisor.is_abandoned(2)
        report = check_survivors(
            cluster.deliveries,
            survivors=[0, 1, 3, 4, 5],
            recovered=[2],
            restart_indices=cluster.restart_indices,
        )
        assert report.ok, report.summary()
        # The restarted node picked up the post-restart event.
        suffix = cluster.deliveries[2][cluster.restart_indices[2][-1] :]
        assert any(e.payload == "after-restart" for e in suffix)

    def test_round_task_exception_triggers_self_heal(self):
        """A node whose round loop *raises* (not an injected crash) is
        flagged by its done-callback and resurrected."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=22)
            cluster.add_nodes(4)
            cluster.start_all()
            supervisor = quick_supervisor(cluster)
            supervisor.start()

            # Sabotage one node's round handler; the replacement process
            # built by respawn_node is healthy again.
            def explode():
                raise RuntimeError("cosmic ray")

            cluster.nodes[3].process.on_round = explode
            restarted = await cluster.wait_until(
                lambda: supervisor.stats.restarted >= 1, timeout=8.0
            )
            healed = await cluster.wait_until(
                lambda: cluster.nodes[3].running and not cluster.nodes[3].crashed,
                timeout=8.0,
            )
            await supervisor.stop()
            await cluster.stop_all()
            return restarted and healed, supervisor

        healed, supervisor = run(scenario())
        assert healed
        assert supervisor.stats.restarted >= 1


class TestBackoff:
    def test_backoff_grows_geometrically_and_caps(self):
        cluster = AsyncCluster(small_config())
        supervisor = NodeSupervisor(
            cluster, base_delay=0.05, backoff_factor=2.0, max_delay=0.5
        )
        assert supervisor.backoff_delay(7) == 0.05
        supervisor.stats.attempts[7] = 1
        assert supervisor.backoff_delay(7) == 0.1
        supervisor.stats.attempts[7] = 3
        assert supervisor.backoff_delay(7) == 0.4
        supervisor.stats.attempts[7] = 10
        assert supervisor.backoff_delay(7) == 0.5

    def test_crash_loop_is_abandoned_after_max_restarts(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=23)
            cluster.add_nodes(3)
            cluster.start_all()
            supervisor = quick_supervisor(cluster, max_restarts=2)
            supervisor.start()

            # Crash node 1 repeatedly: each revival is crashed again.
            for _ in range(3):
                await cluster.wait_until(
                    lambda: cluster.nodes[1].running, timeout=8.0
                )
                cluster.crash_node(1)
                await asyncio.sleep(0.05)

            abandoned = await cluster.wait_until(
                lambda: supervisor.is_abandoned(1), timeout=8.0
            )
            # The abandoned corpse stays dead (checked before stop_all,
            # which clears crash flags as part of orderly shutdown).
            stayed_dead = cluster.nodes[1].crashed
            await supervisor.stop()
            await cluster.stop_all()
            return abandoned, stayed_dead, supervisor

        abandoned, stayed_dead, supervisor = run(scenario())
        assert abandoned
        assert supervisor.stats.restarted == 2
        assert supervisor.stats.abandoned == 1
        assert stayed_dead


class TestLifecycle:
    def test_stop_cancels_pending_restart(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=24)
            cluster.add_nodes(3)
            cluster.start_all()
            # Huge backoff: the restart stays pending until we stop.
            supervisor = quick_supervisor(cluster, base_delay=30.0)
            supervisor.start()
            assert supervisor.running
            cluster.crash_node(0)
            await cluster.wait_until(
                lambda: supervisor.stats.detected >= 1, timeout=8.0
            )
            await supervisor.stop()
            await asyncio.sleep(0.05)
            still_dead = cluster.nodes[0].crashed
            running = supervisor.running
            await cluster.stop_all()
            return still_dead, running, supervisor

        still_dead, running, supervisor = run(scenario())
        assert still_dead
        assert not running
        assert supervisor.stats.restarted == 0

    def test_restart_callback_invoked(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=25)
            cluster.add_nodes(3)
            cluster.start_all()
            calls = []
            supervisor = quick_supervisor(
                cluster, on_restart=lambda nid, attempt: calls.append((nid, attempt))
            )
            supervisor.start()
            cluster.crash_node(1)
            await cluster.wait_until(lambda: bool(calls), timeout=8.0)
            await supervisor.stop()
            await cluster.stop_all()
            return calls

        assert run(scenario()) == [(1, 1)]
