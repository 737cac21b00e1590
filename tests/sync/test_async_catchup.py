"""Asyncio runtime: post-recovery catch-up under loss and corruption.

Real miniature clusters on the event loop (round_interval in ms), so
each scenario takes a second or two. The faults are injected
deterministically — the first SYNC_CHUNK to the victim is dropped
(exercising the request timeout + retry path) and the second is
corrupted (exercising the checksum + re-request path) — so the
assertions on the retry machinery are exact, not probabilistic.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.core import EpToConfig
from repro.runtime import AsyncCluster, AsyncNetwork
from repro.sync.config import SyncConfig
from repro.sync.protocol import SyncChunk

VICTIM = 1
N = 6


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(fanout=3, ttl=5, round_interval=25, clock="logical")
    defaults.update(overrides)
    return EpToConfig(**defaults)


def sync_config():
    return SyncConfig(interval_rounds=2.0)


async def outage_past_the_ttl(cluster):
    """Broadcast, crash the victim, broadcast more, drain past the TTL.

    Returns once every live node delivered all five events and nothing
    is in flight any more — the victim's gap is then unrepairable by
    epidemic traffic alone.
    """
    cluster.add_nodes(N)
    cluster.start_all()
    cluster.nodes[0].broadcast("a")
    cluster.nodes[2].broadcast("b")
    assert await cluster.wait_for_deliveries(2, timeout=10.0)

    cluster.crash_node(VICTIM)
    cluster.nodes[0].broadcast("c")
    cluster.nodes[3].broadcast("d")
    cluster.nodes[4].broadcast("e")
    assert await cluster.wait_for_deliveries(5, timeout=10.0)
    # Let every relay window close: > 2 TTLs of quiet rounds.
    await asyncio.sleep(2 * 5 * 0.025 + 0.15)


class TestAsyncCatchUp:
    def test_catch_up_converges_under_chunk_loss_and_corruption(self, tmp_path):
        async def scenario():
            network = AsyncNetwork(seed=5)
            cluster = AsyncCluster(
                small_config(),
                network=network,
                seed=5,
                storage_dir=tmp_path,
                sync=sync_config(),
            )
            await outage_past_the_ttl(cluster)

            # Fault injection on the repair path itself: lose the first
            # chunk, corrupt the second, then let everything through.
            faults = {"dropped": 0, "corrupted": 0}
            clean_send = network.send

            def faulty_send(src, dst, message):
                if dst == VICTIM and isinstance(message, SyncChunk):
                    if faults["dropped"] == 0:
                        faults["dropped"] += 1
                        return
                    if faults["corrupted"] == 0:
                        faults["corrupted"] += 1
                        message = dataclasses.replace(
                            message, checksum=message.checksum ^ 0xDEAD
                        )
                clean_send(src, dst, message)

            network.send = faulty_send

            node = await cluster.respawn_node(VICTIM)
            manager = node.sync_manager
            caught_up = manager.caught_up
            stats = dataclasses.replace(manager.stats)
            network.send = clean_send

            node.start()
            converged = await cluster.wait_until(
                lambda: all(
                    len(cluster.deliveries[n]) >= 5 for n in range(N)
                ),
                timeout=5.0,
            )
            await cluster.stop_all()
            payloads = cluster.delivery_payload_sequences()
            watermarks = {
                n: dict(cluster.journals[n].source_watermarks) for n in range(N)
            }
            return faults, caught_up, stats, converged, payloads, watermarks

        faults, caught_up, stats, converged, payloads, watermarks = run(
            scenario()
        )

        # Both injected faults actually fired, and the retry machinery
        # absorbed them: a timeout for the lost chunk, a checksum
        # failure for the corrupted one, a retry for each.
        assert faults == {"dropped": 1, "corrupted": 1}
        assert stats.timeouts >= 1
        assert stats.checksum_failures == 1
        assert stats.retries >= 2
        assert stats.sessions_completed >= 1

        # The blocking catch-up repaired the full gap before the round
        # loop started, and the traffic is visible in the metrics.
        assert caught_up
        assert stats.events_repaired == 3
        assert stats.bytes_fetched > 0
        assert stats.chunks_received >= 1

        # Full convergence: every node — victim included — delivered
        # the same five payloads in the same order.
        assert converged
        assert len({tuple(seq) for seq in payloads.values()}) == 1
        assert len(payloads[VICTIM]) == 5
        assert len({tuple(sorted(w.items())) for w in watermarks.values()}) == 1

    def test_without_sync_the_gap_is_permanent(self, tmp_path):
        async def scenario():
            cluster = AsyncCluster(
                small_config(),
                seed=5,
                storage_dir=tmp_path,
            )
            await outage_past_the_ttl(cluster)

            node = await cluster.respawn_node(VICTIM)
            assert node.sync_manager is None
            node.start()
            # Give live gossip ample time to (not) fill the gap.
            await asyncio.sleep(10 * 0.025 * 5)
            await cluster.stop_all()
            return cluster.delivery_payload_sequences()

        payloads = run(scenario())
        survivors = {
            tuple(seq) for n, seq in payloads.items() if n != VICTIM
        }
        assert survivors == {("a", "b", "c", "d", "e")}
        # The regression docs/SYNC.md exists to fix: without
        # anti-entropy the recovered node never sees c, d, e.
        assert tuple(payloads[VICTIM]) == ("a", "b")
