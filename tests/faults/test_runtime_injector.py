"""Tests for the asyncio fault-schedule interpreter.

Runs the *same* ``standard_drill`` scenario as
``test_sim_injector.py``, but against a live
:class:`~repro.runtime.cluster.AsyncCluster` on real wall-clock timers,
in memory and over loopback UDP sockets — the cross-runtime portability
the fault layer exists for.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import EpToConfig
from repro.core.errors import FaultInjectionError
from repro.faults import (
    AsyncFaultInjector,
    ByzantineNodes,
    CorruptDatagrams,
    CrashNodes,
    FaultSchedule,
    LatencySpike,
    PartitionNetwork,
)
from repro.metrics import check_survivors
from repro.runtime import AsyncCluster
from repro.runtime.udp import UdpNetwork


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(fanout=4, ttl=6, round_interval=15, clock="logical")
    defaults.update(overrides)
    return EpToConfig(**defaults)


def run_standard_drill(network=None):
    """The standard drill on ten nodes: crash, partition + heal, a loss
    burst, then a post-drill wave from two continuous survivors. Returns
    whether every node caught up, the injector, the survivors, the
    :func:`check_survivors` report and the cluster."""

    async def scenario():
        cluster = AsyncCluster(small_config(), network=network, seed=13)
        cluster.add_nodes(10)
        if network is not None:
            await network.open_all()
        cluster.start_all()
        injector = AsyncFaultInjector(
            cluster, FaultSchedule.standard_drill(), seed=13
        )
        for node_id in (0, 1, 2):
            cluster.nodes[node_id].broadcast(f"pre-{node_id}")
        await injector.run()  # returns once the last action fired
        # Let the loss burst window (3 rounds) expire, then a
        # post-drill wave from continuous survivors.
        await asyncio.sleep(4 * cluster.config.round_interval / 1000.0)
        survivors = injector.continuous_survivors()
        for node_id in sorted(survivors)[:2]:
            cluster.nodes[node_id].broadcast(f"post-{node_id}")

        def post_wave_reached(nid: int) -> bool:
            # The suffix assertion below needs the respawned nodes
            # to have delivered the whole post-drill wave; without
            # waiting for them, stop_all() can win the race on a
            # loaded machine and truncate their suffixes.
            marks = cluster.restart_indices[nid]
            start = marks[-1] if marks else 0
            payloads = (
                str(e.payload) for e in cluster.deliveries[nid][start:]
            )
            return (
                sum(1 for p in payloads if p.startswith("post-")) >= 2
            )

        def done() -> bool:
            return all(
                len(cluster.deliveries[nid]) >= 5 for nid in survivors
            ) and all(
                post_wave_reached(nid) for nid in injector.crashed_ids
            )

        ok = await cluster.wait_until(done, timeout=10.0)
        await cluster.stop_all()
        if network is not None:
            await network.close()
        report = check_survivors(
            cluster.deliveries,
            survivors=survivors,
            recovered=injector.crashed_ids,
            restart_indices=cluster.restart_indices,
        )
        return ok, injector, survivors, report, cluster

    return run(scenario())


class TestStandardDrill:
    def test_shared_scenario_survives_with_total_order(self):
        """Acceptance scenario, asyncio half: the same standard drill
        completes on real timers and ``check_survivors`` passes —
        including the crashed-and-respawned nodes' post-restart
        suffixes."""
        ok, injector, survivors, report, cluster = run_standard_drill()
        assert ok
        assert injector.stats.crashes == 2
        assert injector.stats.recoveries == 2
        assert injector.stats.partitions == 1
        assert injector.stats.heals == 1
        assert injector.stats.loss_bursts == 1
        assert len(survivors) == 8
        assert report.ok, report.summary()
        # The respawned nodes kept their identities and delivered the
        # post-drill wave in the same order as everyone else.
        for node_id in injector.crashed_ids:
            assert cluster.restart_indices[node_id]
            suffix = [
                e.payload
                for e in cluster.deliveries[node_id][
                    cluster.restart_indices[node_id][-1] :
                ]
            ]
            assert [p for p in suffix if str(p).startswith("post-")] == [
                f"post-{nid}" for nid in sorted(survivors)[:2]
            ]

    def test_shared_scenario_survives_over_real_sockets(self):
        """The same drill over loopback UDP: the partition and the loss
        burst are installed on the socket fabric, crashed nodes rebind
        their sockets on respawn, and ``check_survivors`` still
        passes."""
        network = UdpNetwork(seed=13)
        ok, injector, survivors, report, _ = run_standard_drill(network)
        assert ok
        assert injector.stats.crashes == injector.stats.recoveries == 2
        assert injector.stats.heals == injector.stats.loss_bursts == 1
        assert report.ok, report.summary()
        assert network.stats.delivered > 0

    def test_respawned_node_resumes_its_sequence(self):
        """A recovered node must not reuse ``(source, seq)`` event ids:
        its replacement process resumes the predecessor's counter.

        The wait asks the survivors for both lives' events and the
        journal-less replacement for its own only: EpTO owes it nothing
        broadcast before it came up, and "first-life" reaches it only
        if it beats the peers' last relays of that event."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=4)
            cluster.add_nodes(5)
            cluster.start_all()
            first = cluster.nodes[0].broadcast("first-life")
            schedule = FaultSchedule(
                [CrashNodes(at_round=2.0, nodes=(0,), recover_after=3.0)]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=4)
            await injector.run()
            second = cluster.nodes[0].broadcast("second-life")

            def delivered(node_id: int) -> set:
                return {event.id for event in cluster.deliveries[node_id]}

            ok = await cluster.wait_until(
                lambda: second.id in delivered(0)
                and all(
                    {first.id, second.id} <= delivered(nid) for nid in (1, 2, 3, 4)
                ),
                timeout=10.0,
            )
            await cluster.stop_all()
            return ok, first, second, cluster

        ok, first, second, cluster = run(scenario())
        assert ok
        assert first.id[0] == second.id[0] == 0
        assert second.id[1] > first.id[1]
        # No id collision: both lives' events live side by side in the
        # survivors' journals.
        for node_id in (1, 2, 3, 4):
            ids = [e.id for e in cluster.deliveries[node_id]]
            assert len(ids) == len(set(ids))


class TestByzantineWindow:
    def test_byzantine_action_interpreted_like_the_sim_injector(self):
        """Cross-runtime parity: the asyncio interpreter installs the
        same :class:`ByzantineRouter` on its fabric, scopes it to the
        action window, and restores honesty afterwards."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=13)
            cluster.add_nodes(8)
            cluster.start_all()
            schedule = FaultSchedule(
                [
                    ByzantineNodes(
                        at_round=1.0,
                        behavior="equivocate",
                        nodes=(1,),
                        duration=6.0,
                    )
                ]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=13)
            for node_id in (2, 3, 4):
                cluster.nodes[node_id].broadcast(f"pre-{node_id}")
            await injector.run()
            router = injector._router
            hostile_after = router.is_hostile(1)
            await cluster.stop_all()
            return injector, router, hostile_after

        injector, router, hostile_after = run(scenario())
        assert injector.stats.byzantine_windows == 1
        assert injector.byzantine_ids == {1}
        # The hostile relay really mutated foreign entries mid-window...
        assert router.stats.equivocated > 0
        # ...and the window closed: the node is honest again.
        assert not hostile_after
        assert any("byzantine equivocate on [1]" in msg for _, msg in injector.log)
        assert any("byzantine equivocate off" in msg for _, msg in injector.log)


class TestFabricChecks:
    class _BareFabric:
        """Minimal register/unregister/send fabric with no fault surface."""

        def register(self, node_id, handler):
            pass

        def unregister(self, node_id):
            pass

        def send(self, src, dst, message):
            pass

    def test_unsupported_action_rejected_before_running(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), network=self._BareFabric())
            cluster.add_nodes(3)
            schedule = FaultSchedule([PartitionNetwork(at_round=1.0)])
            injector = AsyncFaultInjector(cluster, schedule)
            with pytest.raises(FaultInjectionError):
                await injector.run()
            assert injector.log == []

        run(scenario())

    def test_corruption_degrades_to_loss_on_codecless_fabric(self):
        """The in-memory fabric has no wire bytes; corruption becomes a
        loss burst with an explicit note in the log."""

        async def scenario():
            cluster = AsyncCluster(small_config(round_interval=10), seed=6)
            cluster.add_nodes(3)
            cluster.start_all()
            schedule = FaultSchedule(
                [CorruptDatagrams(at_round=1.0, rate=0.5, duration=1.0)]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=6)
            await injector.run()
            await cluster.stop_all()
            return injector

        injector = run(scenario())
        assert injector.stats.corruption_windows == 1
        assert any("approximated as loss" in msg for _, msg in injector.log)

    def test_latency_spike_applied_to_fabric(self):
        async def scenario():
            cluster = AsyncCluster(small_config(round_interval=10), seed=6)
            cluster.add_nodes(3)
            cluster.start_all()
            schedule = FaultSchedule(
                [LatencySpike(at_round=1.0, factor=5.0, duration=2.0)]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=6)
            await injector.run()
            factor = cluster.network._spike_factor
            await cluster.stop_all()
            return injector, factor

        injector, factor = run(scenario())
        assert injector.stats.latency_spikes == 1
        assert factor == 5.0
