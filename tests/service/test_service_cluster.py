"""ServiceCluster integration: the issue's acceptance scenario.

A 4-topic loopback cluster over one shared socket per host must deliver
every topic in total order (per-topic ``check_survivors`` clean) and
exactly-once across a crash/respawn via per-topic journals.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.core.config import EpToConfig
from repro.runtime.udp import UdpNetwork
from repro.service import ServiceCluster
from repro.sync.config import SyncConfig

TOPICS = (1, 2, 3, 4)


def _run(coro):
    return asyncio.run(coro)


def _build(tmp_path: Path, n=6, interval=25, seed=5):
    config = EpToConfig.for_system_size(n, round_interval=interval)
    network = UdpNetwork(seed=seed)
    cluster = ServiceCluster(
        config,
        network=network,
        storage_dir=tmp_path / "store",
        sync=SyncConfig(),
        expected_size=n,
        seed=seed,
    )
    for topic in TOPICS:
        cluster.open_topic(topic)
    cluster.add_hosts(n)
    return cluster


class TestAcceptance:
    def test_four_topics_one_socket_crash_respawn_exactly_once(self, tmp_path):
        async def scenario():
            cluster = _build(tmp_path)
            network = cluster.network
            await cluster.open_all()
            cluster.start_all()
            # One socket per host, not one per (host, topic).
            assert len(network._transports) == len(cluster.hosts)

            for i in range(4):
                for topic in TOPICS:
                    await cluster.publish(topic, i % 6, f"t{topic}-{i}")
            assert await cluster.wait_for_topic(TOPICS[0], 4, timeout=15)

            cluster.crash_host(2)
            for i in range(4, 8):
                publisher = i % 6 if i % 6 != 2 else 0
                for topic in TOPICS:
                    await cluster.publish(topic, publisher, f"t{topic}-{i}")
            await asyncio.sleep(1.0)
            await cluster.respawn_host(2)

            for topic in TOPICS:
                assert await cluster.wait_for_topic(
                    topic, 8, timeout=30
                ), f"topic {topic} stalled"
                report = cluster.check_topic(topic)
                assert report.ok, f"topic {topic}: {report.summary()}"

            # Exactly-once on the recovered host: no delivery id repeats
            # across its pre-crash history and post-respawn suffix.
            recovered = cluster.hosts[2]
            for topic in TOPICS:
                state = recovered.topics[topic]
                assert state.restart_indices, "respawn was not recorded"
                ids = [event.id for event in state.deliveries]
                assert len(ids) == len(set(ids)), f"duplicate on topic {topic}"
                assert state.recoveries, "no durable recovery ran"

            # Cross-topic batching really happened: strictly fewer
            # datagrams than frames shipped.
            frames = sum(s.demux.stats.frames_sent for s in cluster.hosts.values())
            envelopes = sum(
                s.demux.stats.envelopes_sent for s in cluster.hosts.values()
            )
            assert 0 < envelopes < frames
            await cluster.close_all()

        _run(scenario())

    def test_per_topic_journals_live_in_separate_dirs(self, tmp_path):
        async def scenario():
            cluster = _build(tmp_path, n=4)
            await cluster.open_all()
            cluster.start_all()
            await cluster.publish(1, 0, "x")
            assert await cluster.wait_for_topic(1, 1, timeout=10)
            await cluster.close_all()
            host_root = cluster.host_storage_dir(0)
            assert (host_root / "topic-1").is_dir()
            assert (host_root / "topic-2").is_dir()

        _run(scenario())


class TestPerTopicFaults:
    def test_partitioned_topic_heals_while_other_flows(self):
        async def scenario():
            config = EpToConfig.for_system_size(6, round_interval=15)
            cluster = ServiceCluster(config, expected_size=6, seed=9)
            cluster.open_topic(1)
            cluster.open_topic(2)
            cluster.add_hosts(6)
            cluster.start_all()

            # Cut topic 1's publisher (host 0) off from everyone, on
            # topic 1 only.
            groups = {0: "lonely"}
            cluster.set_topic_partition(1, groups)
            await cluster.publish(1, 0, "stuck")
            await cluster.publish(2, 0, "flows")
            assert await cluster.wait_for_topic(2, 1, timeout=10)
            # Topic 1 must not have crossed the partition to host 1+.
            assert all(
                cluster.hosts[h].deliveries(1) == [] for h in range(1, 6)
            )
            cluster.heal_topic_partition(1)
            await cluster.publish(1, 1, "after-heal")
            assert await cluster.wait_until(
                lambda: all(
                    any(
                        e.payload == "after-heal"
                        for e in cluster.hosts[h].deliveries(1)
                    )
                    for h in range(6)
                ),
                timeout=10,
            )
            # Topic 2 (never faulted) passes the full survivor check;
            # topic 1's unpartitioned majority agrees among itself (the
            # isolated publisher may have locally delivered the event
            # the partition swallowed — that is the partition's cost,
            # not a bug).
            assert cluster.check_topic(2).ok
            from repro.metrics.checker import check_survivors

            majority = check_survivors(
                {h: cluster.hosts[h].deliveries(1) for h in range(1, 6)},
                survivors=range(1, 6),
            )
            assert majority.ok, majority.summary()
            await cluster.close_all()

        _run(scenario())

    def test_topic_loss_burst_delays_only_that_topic(self):
        async def scenario():
            config = EpToConfig.for_system_size(4, round_interval=15)
            cluster = ServiceCluster(config, expected_size=4, seed=13)
            cluster.open_topic(1)
            cluster.open_topic(2)
            cluster.add_hosts(4)
            cluster.start_all()
            cluster.set_topic_loss(1, rate=1.0, duration=0.3)
            await cluster.publish(1, 0, "lossy")
            await cluster.publish(2, 0, "clean")
            assert await cluster.wait_for_topic(2, 1, timeout=10)
            dropped = sum(
                s.demux.stats.dropped_burst for s in cluster.hosts.values()
            )
            assert dropped > 0
            # The burst outlives the lossy event's TTL (it may be gone
            # for good — UDP semantics); what matters is that the topic
            # itself recovers once the window closes.
            await asyncio.sleep(0.35)
            await cluster.publish(1, 1, "after-burst")
            assert await cluster.wait_until(
                lambda: all(
                    any(
                        e.payload == "after-burst"
                        for e in s.deliveries(1)
                    )
                    for s in cluster.hosts.values()
                ),
                timeout=10,
            )
            await cluster.close_all()

        _run(scenario())
