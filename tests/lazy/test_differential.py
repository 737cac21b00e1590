"""Differential eager-vs-lazy total-order tests (ISSUE acceptance).

The lazy subsystem reorders *bytes*, never *events*: for the identical
seeded workload, a ``mode="lazy"`` cluster must deliver the same total
order as a ``mode="eager"`` one. Exact per-node sequence equality
cannot be demanded once loss or the Cyclon overlay is in play — the
two modes draw different amounts of network randomness, and bootstrap
view lag at small n produces (identical-looking) early holes in *both*
modes — so the check is the total-order contract itself:

* within each mode, every node's sequence is a prefix-compatible
  subsequence of the longest sequence (no agreement violations);
* across modes, the longest sequences are identical (same events, same
  total order).

Run across 26 seeded configurations including loss and churn.
"""

from __future__ import annotations

import pytest

from repro.core import EpToConfig
from repro.metrics.checker import check_run
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator

N = 8
EVENTS = 4
INTERVAL = 100


def _run_mode(mode, seed, loss=0.0, churn=False, pss="uniform"):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=FixedLatency(5), loss_rate=loss)
    config = ClusterConfig(
        epto=EpToConfig(fanout=4, ttl=8, round_interval=INTERVAL, mode=mode),
        pss=pss,
        expected_size=N,
    )
    cluster = SimCluster(sim, network, config)
    cluster.add_nodes(N)
    # Broadcasts start after a few rounds so Cyclon views mix;
    # broadcasters are nodes 0..EVENTS-1.
    for i in range(EVENTS):
        sim.schedule_at(
            600 + i * INTERVAL,
            lambda nd=i: cluster.broadcast_from(nd, f"evt-{nd}"),
        )
    if churn:
        # Crash a non-broadcaster mid-workload (the same tick in both
        # modes: the churn schedule must not depend on traffic).
        sim.schedule_at(750, lambda: cluster.remove_node(N - 1))
    sim.run(until=600 + EVENTS * INTERVAL + 40 * INTERVAL)
    return cluster


def _is_subsequence(shorter, longer):
    it = iter(longer)
    return all(key in it for key in shorter)


def _mode_order(cluster):
    """Longest delivered sequence, after checking intra-mode agreement."""
    collector = cluster.collector
    sequences = [
        tuple(collector.sequence_of(nid)) for nid in cluster.alive_ids()
    ]
    longest = max(sequences, key=len)
    for sequence in sequences:
        assert _is_subsequence(sequence, longest), (
            "agreement violation inside one mode: "
            f"{sequence} is not a subsequence of {longest}"
        )
    report = check_run(
        collector,
        correct_nodes=collector.stable_nodes(since=0, until=10**9),
    )
    assert report.safety_ok
    return longest


CONFIGS = (
    # 16 clean/lossy uniform-PSS seeds ...
    [(seed, 0.0, False, "uniform") for seed in range(1, 9)]
    + [(seed, 0.05, False, "uniform") for seed in range(9, 17)]
    # ... 4 heavier-loss, 4 churn, 2 Cyclon-overlay configurations.
    + [(seed, 0.15, False, "uniform") for seed in range(17, 21)]
    + [(seed, 0.05, True, "uniform") for seed in range(21, 25)]
    + [(25, 0.0, False, "cyclon"), (28, 0.05, True, "cyclon")]
)


@pytest.mark.parametrize(
    ("seed", "loss", "churn", "pss"),
    CONFIGS,
    ids=[f"seed{s}-loss{l}-churn{c}-{p}" for s, l, c, p in CONFIGS],
)
def test_lazy_delivers_the_same_total_order_as_eager(seed, loss, churn, pss):
    eager = _mode_order(_run_mode("eager", seed, loss, churn, pss))
    lazy = _mode_order(_run_mode("lazy", seed, loss, churn, pss))
    assert lazy == eager


def test_config_count_meets_the_acceptance_floor():
    assert len(CONFIGS) >= 20
