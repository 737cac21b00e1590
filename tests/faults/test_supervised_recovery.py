"""Supervised restart with durable recovery (runtime + storage).

The async half of the recovery acceptance drill: on an
:class:`AsyncCluster` provisioned with ``storage_dir``, a crashed node
resurrected by the :class:`NodeSupervisor` comes back from disk —
snapshot + delivery-log replay — instead of blank, optionally under
Lemma 7 parameters recomputed from the observed churn
(:func:`supervisor_adaptation`).
"""

from __future__ import annotations

import asyncio

from repro.core import EpToConfig
from repro.faults import NodeSupervisor, supervisor_adaptation
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


class TestSupervisedRecovery:
    def test_restart_recovers_from_disk_and_adapts(self, tmp_path):
        """Crash -> supervised restart -> recovery from the journal: the
        replacement replays its durable deliveries, resumes its
        broadcast sequence without id reuse, and comes up under an
        adapted config."""

        async def scenario():
            cluster = AsyncCluster(
                small_config(), seed=31, storage_dir=tmp_path
            )
            cluster.add_nodes(6)
            cluster.start_all()
            supervisor = quick_supervisor(
                cluster, adapt=supervisor_adaptation()
            )
            supervisor.start()

            # The future victim broadcasts, so both its delivery log and
            # its broadcast-sequence marker hit disk before the crash.
            before = cluster.nodes[2].broadcast("before-crash")
            await cluster.wait_for_deliveries(1, timeout=8.0)

            cluster.crash_node(2)
            revived = await cluster.wait_until(
                lambda: not cluster.nodes[2].crashed and cluster.nodes[2].running,
                timeout=8.0,
            )
            after = cluster.nodes[2].broadcast("after-restart")
            ok = await cluster.wait_until(
                lambda: all(
                    any(e.payload == "after-restart" for e in cluster.deliveries[n])
                    for n in cluster.live_ids()
                ),
                timeout=8.0,
            )
            await supervisor.stop()
            await cluster.stop_all()
            return revived, ok, supervisor, cluster, before, after

        revived, ok, supervisor, cluster, before, after = run(scenario())
        assert revived and ok
        assert supervisor.stats.restarted == 1

        # The respawn went through the recovery driver, and the durable
        # record covered the pre-crash delivery.
        (recovered,) = cluster.recoveries[2]
        assert not recovered.blank
        assert recovered.replayed >= 1
        assert recovered.last_delivered_key is not None

        # Broadcast sequence resumed from the persisted marker: no
        # (source, seq) id reuse across incarnations.
        assert before.id != after.id
        assert after.seq > before.seq
        assert recovered.next_seq >= before.seq + 1

        # The adapt hook supplied the replacement's config, and the
        # replacement runs under it.
        assert 2 in supervisor.adapted_configs
        assert cluster.nodes[2].process.config == supervisor.adapted_configs[2]

        # Total order held across the restart.
        report = check_survivors(
            cluster.deliveries,
            survivors=[0, 1, 3, 4, 5],
            recovered=[2],
            restart_indices=cluster.restart_indices,
        )
        assert report.ok, report.summary()

    def test_unprovisioned_cluster_restarts_blank(self):
        """Without ``storage_dir`` a supervised restart behaves exactly
        as before the storage subsystem existed: fresh process, no
        recovery record."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=32)
            cluster.add_nodes(4)
            cluster.start_all()
            supervisor = quick_supervisor(cluster)
            supervisor.start()
            cluster.crash_node(1)
            revived = await cluster.wait_until(
                lambda: not cluster.nodes[1].crashed and cluster.nodes[1].running,
                timeout=8.0,
            )
            await supervisor.stop()
            await cluster.stop_all()
            return revived, cluster

        revived, cluster = run(scenario())
        assert revived
        assert cluster.recoveries == {}
        assert cluster.journals == {}
