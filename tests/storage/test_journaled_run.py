"""A seeded cluster run, pinned, and the same run under a journal.

The run (24 nodes, 40 broadcasts) is fully seeded, so its counts are
literals that hold whatever the hash seed. With a :mod:`repro.storage`
journal under every node it must stay the same run — same counts, same
per-node delivery sequences — because durable logging observes the
protocol and never steers it (docs/STORAGE.md).
"""

from __future__ import annotations

from repro.core.config import EpToConfig
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork

NODES, BROADCASTS = 24, 40


def seeded_run(storage_dir=None):
    """Counts, per-node sequences and journal records of the run."""
    sim = Simulator(seed=13)
    network = SimNetwork(sim)
    config = ClusterConfig(
        epto=EpToConfig(fanout=4, ttl=12, round_interval=10), expected_size=NODES
    )
    cluster = SimCluster(sim, network, config, storage_dir=storage_dir)
    cluster.add_nodes(NODES)
    rng = sim.fork_rng("bench.broadcast")
    for i in range(BROADCASTS):
        sim.schedule_at(
            5 + i * 7, lambda: cluster.broadcast_from(cluster.random_alive(rng))
        )
    sim.run(until=5 + BROADCASTS * 7 + 4 * 12 * 10)
    records = 0
    for journal in cluster.journals.values():
        records += journal.stats.recorded + journal.stats.markers
        journal.close()
    collector = cluster.collector
    counts = (
        collector.broadcast_count, collector.delivery_count,
        network.stats.sent, network.stats.delivered,
    )
    return counts, collector.sequences(), records


def test_the_seeded_run_is_pinned():
    counts, sequences, records = seeded_run()
    # broadcasts, deliveries, messages sent, messages delivered
    assert counts == (40, 960, 3516, 3516)
    # Every node delivers every broadcast, all in one order.
    assert len(sequences) == NODES and len(set(sequences.values())) == 1
    assert {len(sequence) for sequence in sequences.values()} == {BROADCASTS}
    assert records == 0


def test_a_journal_never_steers_the_run(tmp_path):
    plain_counts, plain_sequences, _ = seeded_run()
    counts, sequences, records = seeded_run(storage_dir=tmp_path)
    assert counts == plain_counts == (40, 960, 3516, 3516)
    assert sequences == plain_sequences
    # A record per delivery plus a marker per broadcast.
    assert records == 1000
