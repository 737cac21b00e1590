"""A node respawned from its journal resumes its logical clock.

Under the logical clock (Algorithm 4) a broadcast is stamped with the
node's clock, and a peer that has delivered past that stamp must
discard the event as late. A respawned node knows, from its journal,
the newest ``ts`` it delivered before the crash; its clock starts
there, so its first broadcast, made before any ball reaches it, is
still delivered everywhere.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import EpToConfig
from repro.runtime import AsyncCluster
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator

EARLY = 5  # broadcasts before the crash


def _config(mode="eager"):
    return EpToConfig(fanout=3, ttl=6, round_interval=10, clock="logical", mode=mode)


@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_sim_respawn_broadcasts_above_its_last_delivery(tmp_path, mode):
    sim = Simulator(seed=11)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim, network, ClusterConfig(epto=_config(mode)), storage_dir=tmp_path
    )
    cluster.add_nodes(6)
    for k in range(EARLY):
        sim.schedule_at(5 + 7 * k, lambda k=k: cluster.broadcast_from(k % 6, k))
    sim.run(until=400)
    sequences = cluster.collector.sequences()
    assert {len(sequence) for sequence in sequences.values()} == {EARLY}
    last_ts = sequences[2][-1][0]

    cluster.crash_node(2)
    cluster.respawn_node(2)
    survivors = [0, 1, 3, 4, 5]

    def discarded_late(n):
        process = cluster.stack_of(n).process
        inner = getattr(process, "process", process)  # a lazy node's EpTO
        return inner.ordering.stats.discarded_late

    late = {n: discarded_late(n) for n in survivors}
    event = cluster.broadcast_from(2, "after-respawn")
    assert event.ts > last_ts

    sim.run(until=800)
    for n in survivors:
        assert event.id in cluster.collector.delivered_ids_of(n)
        assert discarded_late(n) == late[n]
    for journal in cluster.journals.values():
        journal.close()


def test_async_respawn_broadcasts_above_its_last_delivery(tmp_path):
    async def scenario():
        cluster = AsyncCluster(_config(), seed=11, storage_dir=tmp_path)
        cluster.add_nodes(5)
        cluster.start_all()
        for k in range(EARLY):  # one at a time, so the clocks climb
            cluster.nodes[k % 5].broadcast(k)
            assert await cluster.wait_for_deliveries(k + 1, timeout=8.0)
        last_ts = cluster.deliveries[2][-1].ts

        cluster.crash_node(2)
        await asyncio.sleep(0)
        node = await cluster.respawn_node(2)
        survivors = [0, 1, 3, 4]
        late = {n: cluster.nodes[n].process.ordering.stats.discarded_late for n in survivors}
        event = node.broadcast("after-respawn")  # before any ball reached it
        node.start()
        delivered = await cluster.wait_until(
            lambda: all(
                event.id in {e.id for e in cluster.deliveries[n]} for n in survivors
            ),
            timeout=8.0,
        )
        # A late discard would show within a few rounds of the broadcast.
        await asyncio.sleep(3 * 0.01 * _config().ttl)
        late_after = {
            n: cluster.nodes[n].process.ordering.stats.discarded_late for n in survivors
        }
        await cluster.stop_all()
        return event.ts, last_ts, delivered, late, late_after

    ts, last_ts, delivered, late, late_after = asyncio.run(scenario())
    assert ts > last_ts
    assert delivered
    assert late_after == late
