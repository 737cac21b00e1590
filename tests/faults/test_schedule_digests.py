"""Determinism licence for refactors of the node wiring and the fault
interpreter: the four canned schedules, run on ``SimCluster`` at a fixed
seed with journals, anti-entropy and authentication on, must keep
producing bit-identical delivery sequences and injector logs.

The digests were computed at the commit *before* ``repro.stack`` and
``repro.faults.interpreter`` existed (PR 19's head) and are pinned here:
a change that moves an RNG label, a draw, or the order two actions are
scheduled at one tick changes a digest. Re-pin only with the reason
written down in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.auth import HmacAuthenticator, KeyRing
from repro.core import EpToConfig
from repro.faults import FaultSchedule, SimFaultInjector
from repro.metrics.collector import DeliveryCollector
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.drift import UniformDrift
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import SimNetwork
from repro.sync.config import SyncConfig
from repro.workloads.broadcast import ProbabilisticWorkload

N = 16
SEED = 20151207

PINNED = {
    "standard_drill": "2c85234ec068b1dd543ebb9dc234f647254afd826de820b133986e7ad066b094",
    "long_outage": "7379f9bd4c56ad9331b419551be928b9588c8cd17f158e12b6e77f61870d3142",
    "byzantine_drill": "341cc1c2863f1d33c5d4bc54c094e3d5ad0fe9a25c0c917ae61fc18dce2d950c",
    "self_stab": "ee12d770fb1f99175ce9aece905189e1550222fb8c71c9a847188370a9ce84b5",
}


def run_digest(name: str, storage_dir) -> str:
    schedule = getattr(FaultSchedule, name)()
    sim = Simulator(seed=SEED)
    network = SimNetwork(
        sim,
        latency=FixedLatency(ticks=2),
        authenticator=HmacAuthenticator(KeyRing(f"digest:{SEED}")),
    )
    config = EpToConfig.for_system_size(N, round_interval=100)
    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(epto=config, drift=UniformDrift(0.01), expected_size=N),
        collector=DeliveryCollector(),
        storage_dir=storage_dir,
        sync=SyncConfig(interval_rounds=2.0),
    )
    cluster.add_nodes(N)
    injector = SimFaultInjector(sim, cluster, schedule, recovery="same_id")
    injector.install()
    active_rounds = int(schedule.horizon_rounds) + 4
    ProbabilisticWorkload(sim, cluster, rate=0.05, rounds=active_rounds, start=1)
    sim.run(until=(active_rounds + 3 * config.ttl) * config.round_interval)

    digest = hashlib.sha256()
    sequences = cluster.collector.sequences()
    assert sum(len(keys) for keys in sequences.values()) > 10 * N
    for node_id in sorted(sequences):
        digest.update(repr((node_id, list(sequences[node_id]))).encode())
    assert injector.log
    for tick, message in injector.log:
        assert str(storage_dir) not in message  # nothing run-specific
        digest.update(repr((tick, message)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_schedule_digest_equals_the_parents(name, tmp_path):
    assert run_digest(name, tmp_path) == PINNED[name]
