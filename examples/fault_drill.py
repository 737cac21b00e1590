#!/usr/bin/env python3
"""One fault scenario, two runtimes: the unified fault-injection layer.

A single declarative :class:`repro.faults.FaultSchedule` — crash 20% of
the cluster (recovering later), partition the network and heal it,
then a loss burst — is interpreted twice:

1. against the **discrete-event simulator** (`SimFaultInjector`,
   rounds = simulator ticks);
2. against the **asyncio runtime** (`AsyncFaultInjector`,
   rounds = wall-clock milliseconds), where a `NodeSupervisor` also
   self-heals an *extra*, unscheduled crash with exponential backoff.

Both halves are judged by the one Table 1 checker
(`repro.metrics.checker`), which returns one `SpecReport`:
`check_run` reads the simulator's delivery collector, and
`check_survivors` reads the asyncio cluster's per-node journals.

Finally the Lemma 7 feedback loop (`ObservedConditions` →
`adapt_config`) recomputes K/TTL from the conditions the run actually
experienced.

Run with::

    python examples/fault_drill.py
"""

from __future__ import annotations

import asyncio

from repro.core import EpToConfig
from repro.faults import (
    AsyncFaultInjector,
    FaultSchedule,
    NodeSupervisor,
    ObservedConditions,
    SimFaultInjector,
    adapt_config,
)
from repro.metrics import check_run, check_survivors
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator
from repro.runtime import AsyncCluster

NODES = 10
DRILL = FaultSchedule.standard_drill()  # crash 20% / partition+heal / loss burst


def simulator_half() -> None:
    print("=== simulator half " + "=" * 42)
    print(f"schedule: {DRILL}")
    round_ticks = 10
    sim = Simulator(seed=11)
    network = SimNetwork(sim)
    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(
            epto=EpToConfig(
                fanout=5, ttl=8, round_interval=round_ticks, clock="logical"
            )
        ),
    )
    cluster.add_nodes(NODES)
    injector = SimFaultInjector(sim, cluster, DRILL)
    injector.install()

    for node_id in cluster.alive_ids()[:3]:
        cluster.broadcast_from(node_id, f"pre-{node_id}")

    def late_wave() -> None:
        for node_id in sorted(injector.continuous_survivors())[:2]:
            cluster.broadcast_from(node_id, f"post-{node_id}")

    sim.schedule_at(24 * round_ticks, late_wave)
    sim.run(until=60 * round_ticks)

    for tick, message in injector.log:
        print(f"  t={tick:4d}  {message}")
    survivors = injector.continuous_survivors()
    report = check_run(cluster.collector, correct_nodes=survivors)
    print(f"survivors {sorted(survivors)}: {report.summary()}")
    assert report.safety_ok and report.agreement_ok, report.summary()


async def asyncio_half() -> EpToConfig:
    print("=== asyncio half " + "=" * 44)
    config = EpToConfig(fanout=4, ttl=6, round_interval=20, clock="logical")
    cluster = AsyncCluster(config, seed=13)
    cluster.add_nodes(NODES)
    cluster.start_all()

    for node_id in (0, 1, 2):
        cluster.nodes[node_id].broadcast(f"pre-{node_id}")

    injector = AsyncFaultInjector(cluster, DRILL, seed=13)
    await injector.run()  # same schedule, wall-clock rounds
    await asyncio.sleep(4 * config.round_interval / 1000.0)  # burst tail

    # An *unscheduled* crash: the supervisor (started only now, so it
    # does not race the injector's scheduled recovery) detects the
    # corpse and restarts it with backoff under the same identity.
    supervisor = NodeSupervisor(
        cluster, poll_interval=0.01, base_delay=0.02, healthy_after=60.0
    )
    supervisor.start()
    survivors = injector.continuous_survivors()
    victim = sorted(survivors)[-1]
    survivors.discard(victim)
    cluster.crash_node(victim)
    revived = await cluster.wait_until(
        lambda: not cluster.nodes[victim].crashed
        and cluster.nodes[victim].running,
        timeout=10.0,
    )
    assert revived, "supervisor failed to revive the crashed node"
    print(
        f"  node {victim} crashed unscheduled; supervisor revived it "
        f"(restarts={supervisor.stats.restarted}, "
        f"next backoff={supervisor.backoff_delay(victim):.2f}s)"
    )

    for node_id in sorted(survivors)[:2]:
        cluster.nodes[node_id].broadcast(f"post-{node_id}")
    done = await cluster.wait_until(
        lambda: all(len(cluster.deliveries[n]) >= 5 for n in survivors),
        timeout=15.0,
    )
    await supervisor.stop()
    await cluster.stop_all()
    assert done, "survivors did not deliver both waves in time"

    for seconds, message in injector.log:
        print(f"  t={seconds:5.2f}s  {message}")
    recovered = injector.crashed_ids | {victim}
    report = check_survivors(
        cluster.deliveries,
        survivors=survivors,
        recovered=recovered,
        restart_indices=cluster.restart_indices,
    )
    print(f"survivors {sorted(survivors)} + recovered {sorted(recovered)}: "
          f"{report.summary()}")
    assert report.ok, report.summary()

    # Lemma 7 feedback: what would K/TTL need to be for the loss we saw?
    observed = ObservedConditions.from_run(
        population=NODES,
        rounds=max(1, round(DRILL.horizon_rounds)),
        network_stats=cluster.network.stats,
        churn_stats=injector.stats,
    )
    adapted = adapt_config(config, observed)
    print(
        f"observed churn={observed.churn_rate:.3f} loss={observed.loss_rate:.3f}"
        f" -> adapted K={adapted.fanout} TTL={adapted.ttl}"
        f" (was K={config.fanout} TTL={config.ttl})"
    )
    return adapted


def main() -> None:
    simulator_half()
    adapted = asyncio.run(asyncio_half())
    assert adapted.fanout >= 4 and adapted.ttl >= 6
    print("fault drill complete: same scenario, both runtimes, order intact")


if __name__ == "__main__":
    main()
