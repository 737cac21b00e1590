"""Behavioral tests for lazy-mode clusters (repro.lazy.process).

Built on the simulator: a ``mode="lazy"`` :class:`SimCluster` ships
id-only balls, pulls payloads on demand, and must deliver the same
events — with their payloads intact — as the eager protocol, holding
ordered events in the gate only while their payload is in flight.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.core import EpToConfig
from repro.core.errors import ConfigurationError
from repro.lazy.process import (
    RETENTION_SLACK_ROUNDS,
    RETENTION_TTL_FACTOR,
    LazyEpToProcess,
)
from repro.lazy.protocol import PayloadResponse
from repro.metrics import check_run
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator
from repro.sync.config import SyncConfig


def build_lazy_cluster(n=6, pss="uniform", seed=11, fanout=3, ttl=6):
    """A lazy-mode cluster whose per-node deliveries (full events) are
    recorded via a process factory, since the collector keeps keys only."""
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=FixedLatency(5))
    config = ClusterConfig(
        epto=EpToConfig(fanout=fanout, ttl=ttl, round_interval=100, mode="lazy"),
        pss=pss,
        expected_size=n,
    )
    delivered = defaultdict(list)

    def factory(*, node_id, pss, transport, on_deliver, time_source, rng):
        def recording(event):
            delivered[node_id].append(event)
            on_deliver(event)

        return LazyEpToProcess(
            node_id=node_id,
            config=config.epto,
            peer_sampler=pss,
            transport=transport,
            on_deliver=recording,
            time_source=time_source,
            rng=rng,
            system_size_hint=n,
        )

    cluster = SimCluster(sim, network, config, process_factory=factory)
    cluster.add_nodes(n)
    return sim, network, cluster, delivered


class TestDelivery:
    def test_lazy_cluster_delivers_payloads_intact(self):
        sim, _, cluster, delivered = build_lazy_cluster(n=6)
        payloads = {i: {"value": i, "blob": "x" * 50} for i in range(3)}
        for i, payload in payloads.items():
            sim.schedule_at(50 + i * 100, lambda p=payload, nd=i: cluster.broadcast_from(nd, p))
        sim.run(until=6000)
        assert cluster.collector.delivery_count == 3 * 6
        assert not check_run(cluster.collector).holes
        for node_id in cluster.alive_ids():
            got = sorted(
                (event.source_id, event.payload["value"]) for event in delivered[node_id]
            )
            assert got == [(i, i) for i in range(3)]
            # Full payloads, not the id-ball's payload=None placeholders.
            assert all(
                event.payload == payloads[event.source_id]
                for event in delivered[node_id]
            )

    def test_pull_statistics_are_exercised(self):
        sim, _, cluster, _ = build_lazy_cluster(n=6)
        sim.schedule_at(50, lambda: cluster.broadcast_from(0, "stats"))
        sim.run(until=6000)
        totals = defaultdict(int)
        for node_id in cluster.alive_ids():
            for key, value in cluster.node(node_id).stats_snapshot().items():
                totals[key] += value
        assert totals["id_balls_sent"] > 0
        assert totals["pulls_issued"] >= 5  # every non-source pulled once
        assert totals["pulls_served"] >= 5
        assert totals["payload_bytes"] > 0
        assert totals["metadata_bytes"] > totals["payload_bytes"]

    def test_store_retention_gc_evicts_after_drain(self):
        sim, _, cluster, _ = build_lazy_cluster(n=5)
        sim.schedule_at(50, lambda: cluster.broadcast_from(0, "gc-me"))
        sim.run(until=20_000)  # long drain: far past any retention window
        stored = sum(len(cluster.node(nid).store) for nid in cluster.alive_ids())
        evicted = sum(
            cluster.node(nid).store.stats.evicted for nid in cluster.alive_ids()
        )
        assert stored == 0
        assert evicted >= 5


class TestPayloadGate:
    def test_gate_holds_deliveries_while_responses_are_lost(self):
        # The blackout ends inside the retention window (ttl 6, rounds
        # of 100 ticks), so the payload is still there to pull after it.
        blackout_ends = 2500
        assert blackout_ends < (RETENTION_TTL_FACTOR * 6 + RETENTION_SLACK_ROUNDS) * 100
        sim, network, cluster, delivered = build_lazy_cluster(n=6)
        original = network.send

        def dropping(src, dst, msg):
            if isinstance(msg, PayloadResponse):
                return
            original(src, dst, msg)

        network.send = dropping  # type: ignore[method-assign]
        sim.schedule_at(50, lambda: cluster.broadcast_from(0, "held-hostage"))
        sim.run(until=blackout_ends)
        # Ordering finished everywhere, but only the source (which holds
        # its own payload) could pass the gate.
        assert delivered[0] and delivered[0][0].payload == "held-hostage"
        held = sum(cluster.node(nid).held_count for nid in cluster.alive_ids())
        assert held >= 1
        assert cluster.collector.delivery_count < 6

        # Heal the network: retries pull the payload and the gate opens.
        network.send = original  # type: ignore[method-assign]
        sim.run(until=12_000)
        assert cluster.collector.delivery_count == 6
        for node_id in cluster.alive_ids():
            assert [event.payload for event in delivered[node_id]] == ["held-hostage"]
        retried = sum(
            cluster.node(nid).pull.stats.pulls_retried
            for nid in cluster.alive_ids()
        )
        assert retried >= 1


class TestModeGuards:
    def test_sync_with_lazy_mode_rejected(self, tmp_path):
        sim = Simulator(seed=3)
        network = SimNetwork(sim)
        config = ClusterConfig(
            epto=EpToConfig(fanout=2, ttl=3, round_interval=100, mode="lazy"),
        )
        with pytest.raises(ConfigurationError, match="lazy"):
            SimCluster(
                sim,
                network,
                config,
                storage_dir=tmp_path,
                sync=SyncConfig(),
            )

    def test_eager_cluster_has_no_lazy_surface(self):
        sim = Simulator(seed=3)
        network = SimNetwork(sim)
        cluster = SimCluster(
            sim,
            network,
            ClusterConfig(epto=EpToConfig(fanout=2, ttl=3, round_interval=100)),
        )
        cluster.add_nodes(2)
        assert not hasattr(cluster.node(0), "on_lazy_message")


class TestRealisticOverlays:
    @pytest.mark.parametrize("pss", ["cyclon"])
    def test_lazy_mode_delivers_over_realistic_overlays(self, pss):
        sim, _, cluster, delivered = build_lazy_cluster(n=8, pss=pss, fanout=3, ttl=7)
        # Let the overlay mix before the workload starts (bootstrap
        # views lag at small n; Figure 9 measures exactly that).
        for i in range(3):
            sim.schedule_at(
                900 + i * 100, lambda nd=i: cluster.broadcast_from(nd, f"evt-{nd}")
            )
        sim.run(until=12_000)
        assert cluster.collector.delivery_count == 3 * 8
        for node_id in cluster.alive_ids():
            assert sorted(event.payload for event in delivered[node_id]) == [
                "evt-0",
                "evt-1",
                "evt-2",
            ]
