#!/usr/bin/env python3
"""State-machine replication: a versioned key-value store over EpTO.

The paper motivates EpTO with DataFlasks (§1.1): an epidemic data store
that, lacking ordering, "delegates important tasks such as version
control to the client". This example shows what EpTO buys such a
system, in two parts.

**Order** (simulator). Two runs over the identical workload and
network:

1. *EpTO total order*: all replicas converge to byte-identical stores;
2. *unordered epidemic broadcast* (the Figure 6 baseline): replicas
   apply writes in arrival order and typically diverge on contended
   keys (last-writer-wins races resolve differently per replica).

**Durability** (broadcast service). The store runs as a *tenant* of the
multi-topic broadcast service (`repro.service`, docs/SERVICE.md): every
host multiplexes a KV topic and an audit-log topic over one socket,
each topic journaling its own deliveries to a segmented,
CRC-checksummed log (`repro.storage`). One host crashes mid-run. Its
KV tenant recovers from disk —

1. load the latest snapshot,
2. replay the delivery-log suffix in order-key order,
3. resume the broadcast sequence past every issued `(source, seq)` id,
4. deduplicate re-gossiped deliveries against the recovered watermark,
5. close the TTL-outliving gap with anti-entropy before rejoining —

and converges with the cluster, exactly-once, while the audit-log topic
on the *same* sockets never stops flowing.

Run with::

    python examples/replicated_kv_store.py
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path
from typing import Dict

from repro import (
    BallsBinsProcess,
    ClusterConfig,
    EpToConfig,
    Event,
    PlanetLabLatency,
    SimCluster,
    SimNetwork,
    Simulator,
)
from repro.service import ServiceCluster, ServiceReplica
from repro.smr.machine import AppendLog, KeyValueStore
from repro.sync.config import SyncConfig

N = 12
KEYS = ("config", "leader", "quota")
WRITES_PER_REPLICA = 3

HOSTS = 6
VICTIM = 3
KV_TOPIC = 1
AUDIT_TOPIC = 2


# ----------------------------------------------------------------------
# Order: EpTO against the unordered epidemic
# ----------------------------------------------------------------------


def run(process_kind: str, seed: int = 11) -> Dict[int, KeyValueStore]:
    """Run the workload under EpTO or the unordered baseline."""
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=PlanetLabLatency(), loss_rate=0.01)
    config = EpToConfig.for_system_size(N, loss_rate=0.01)

    def factory(*, node_id, pss, transport, on_deliver, time_source, rng):
        return BallsBinsProcess(
            node_id=node_id,
            config=config,
            peer_sampler=pss,
            transport=transport,
            on_deliver=on_deliver,
            time_source=time_source,
            rng=rng,
        )

    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(epto=config),
        process_factory=factory if process_kind == "unordered" else None,
    )
    cluster.add_nodes(N)

    # Hook each replica's delivery stream into its store. The cluster's
    # collector already journals deliveries; we additionally materialize.
    stores = {node_id: KeyValueStore() for node_id in cluster.alive_ids()}
    original = cluster.collector.record_delivery

    def record_and_apply(node_id: int, event: Event, time: int) -> None:
        original(node_id, event, time)
        stores[node_id].apply(event.payload)

    cluster.collector.record_delivery = record_and_apply  # type: ignore[method-assign]

    # Contended workload: every replica writes every key.
    rng = sim.fork_rng("kv-workload")
    writers = list(cluster.alive_ids())
    for round_idx in range(WRITES_PER_REPLICA):
        for writer in writers:
            key = KEYS[rng.randrange(len(KEYS))]
            cluster.broadcast_from(writer, ("put", key, f"v{round_idx}-by-{writer}"))
        sim.run_for(config.round_interval)  # writes spread across rounds

    sim.run_for((config.ttl + 10) * config.round_interval)
    return stores


def order() -> None:
    for kind in ("epto", "unordered"):
        stores = run(kind)
        snapshots = {store.snapshot() for store in stores.values()}
        status = "CONSISTENT" if len(snapshots) == 1 else "DIVERGED"
        print(f"{kind:>9}: {len(snapshots)} distinct replica states -> {status}")
        if len(snapshots) == 1:
            print("           sample state:")
            for key, value, version in next(iter(snapshots)):
                print(f"             {key} = {value!r} (version {version})")
        if kind == "epto":
            assert len(snapshots) == 1
    print(
        "\nEpTO's total order makes the replicated store deterministic; "
        "the unordered epidemic typically diverges on contended keys.\n"
    )


# ----------------------------------------------------------------------
# Durability: a journaled tenant of the broadcast service
# ----------------------------------------------------------------------


async def drill(storage_dir: Path) -> None:
    config = EpToConfig.for_system_size(HOSTS, round_interval=20)
    cluster = ServiceCluster(
        config,
        storage_dir=storage_dir,
        sync=SyncConfig(),
        expected_size=HOSTS,
        seed=11,
    )
    cluster.open_topic(KV_TOPIC)
    cluster.open_topic(AUDIT_TOPIC)
    cluster.add_hosts(HOSTS)

    kv = {
        host_id: ServiceReplica(
            service, KV_TOPIC, KeyValueStore(), journal_commands=True
        )
        for host_id, service in cluster.hosts.items()
    }
    audit = {
        host_id: ServiceReplica(service, AUDIT_TOPIC, AppendLog())
        for host_id, service in cluster.hosts.items()
    }
    cluster.start_all()

    sent = 0

    async def submit(host_id: int, index: int) -> None:
        nonlocal sent
        await kv[host_id].submit(("put", f"key{index}", index))
        await audit[host_id].submit(f"put key{index} by host {host_id}")
        sent += 1

    # Early traffic: delivered, journaled, then its TTL expires — after
    # the crash these commands survive only in the victim's journal.
    for i in range(4):
        await submit(i % HOSTS, i)
    await cluster.wait_for_topic(KV_TOPIC, 4, timeout=20)

    # Mid-run checkpoint, so recovery is snapshot *plus* log suffix.
    kv[VICTIM].checkpoint()

    cluster.crash_host(VICTIM)
    # Traffic across the outage: the victim's epidemic window for these
    # events closes while it is down; only disk + anti-entropy bring
    # them back.
    for i in range(4, 8):
        await submit((i + 1) % HOSTS, i)
    await asyncio.sleep(0.5)
    await cluster.respawn_host(VICTIM)

    # Post-recovery traffic, including from the recovered host.
    for i in range(8, 12):
        await submit(i % HOSTS, i)
    for topic in (KV_TOPIC, AUDIT_TOPIC):
        await cluster.wait_for_topic(topic, 12, timeout=30)

    recovered = cluster.hosts[VICTIM].topics[KV_TOPIC].recoveries[-1]
    print(f"commands submitted : {sent} (x2 topics, one socket per host)")
    print(
        f"recovery           : snapshot #{recovered.snapshot_index}, "
        f"{recovered.replayed} log records replayed, "
        f"{recovered.applied_count} commands restored from disk"
    )
    print(f"resume point       : next broadcast seq {recovered.next_seq}")

    victim = kv[VICTIM]
    kv_converged = len({replica.digest() for replica in kv.values()}) == 1
    audit_converged = len({replica.digest() for replica in audit.values()}) == 1
    print(
        f"victim replica     : {victim.applied_count}/{sent} commands "
        f"applied across both incarnations"
    )
    print(f"kv topic           : {'CONVERGED' if kv_converged else 'DIVERGED'}")
    print(f"audit topic        : {'CONVERGED' if audit_converged else 'DIVERGED'}")

    frames = sum(s.demux.stats.frames_sent for s in cluster.hosts.values())
    envelopes = sum(s.demux.stats.envelopes_sent for s in cluster.hosts.values())
    print(
        f"wire               : {frames} topic frames in {envelopes} "
        f"datagrams ({frames / max(envelopes, 1):.2f} frames/datagram)"
    )
    print(
        "\nThe recovered tenant's early state came purely from disk — those\n"
        "events had expired from the epidemic — and the journal watermark\n"
        "kept every command exactly-once across the restart, while the\n"
        "audit topic kept flowing over the same shared sockets."
    )
    assert kv_converged and audit_converged
    await cluster.close_all()


def main() -> None:
    order()
    storage_dir = tempfile.mkdtemp(prefix="epto-durable-kv-")
    try:
        asyncio.run(drill(Path(storage_dir)))
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
