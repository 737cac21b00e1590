"""One schedule with every action kind through both drivers of the
fault interpreter, against recording fake hosts: what an action means —
victims, partition groups, counters, id sets and every log line — must
not depend on which clock drives it."""

from __future__ import annotations

import asyncio
import random
from types import SimpleNamespace

from repro.faults import (
    AsyncFaultInjector,
    ByzantineNodes,
    CorruptDatagrams,
    CrashNodes,
    FaultSchedule,
    HealPartition,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
    ScrambleState,
    SimFaultInjector,
)
from repro.sim.engine import Simulator

N = 10

#: Distinct times throughout: the simulator arms a recovery when its
#: crash fires, the asyncio driver sorts one static timeline, and only
#: a tie could order the two differently.
SCHEDULE = FaultSchedule(
    [
        CrashNodes(at_round=1.0, fraction=0.2, recover_after=7.5),
        PartitionNetwork(at_round=2.0, fraction=0.4, heal_after=2.5),
        LossBurst(at_round=3.0, rate=0.3, duration=1.25),
        LatencySpike(at_round=5.0, factor=3.0, duration=1.25),
        CorruptDatagrams(at_round=6.5, rate=0.5, duration=0.75),
        ByzantineNodes(at_round=8.0, behavior="replay", nodes=(0, 1), duration=1.25),
        PartitionNetwork(at_round=9.5, groups={0: "a", 1: "b"}),
        HealPartition(at_round=10.0),
        CrashNodes(at_round=10.5, nodes=(0,)),
        ScrambleState(at_round=11.0, nodes=(1,), recover_after=1.25),
    ]
)


class FakeFabric:
    """Records what the interpreter asks of a fabric; offers the fault
    surface of both kinds of fabric (attributes to raise and restore,
    self-timed windows)."""

    def __init__(self):
        self.calls = []
        self.loss_rate = 0.0
        self.latency = SimpleNamespace(sample=lambda rng, src, dst: 1)

    def set_partition(self, groups):
        self.calls.append(("partition", dict(groups)))

    def heal_partition(self):
        self.calls.append(("heal",))

    def set_adversary(self, router):
        self.calls.append(("adversary",))

    def send_many(self, src, dsts, ball):
        self.calls.append(("spray", src, sorted(dsts), len(ball)))

    def set_loss_burst(self, rate, duration):
        pass

    def set_latency_spike(self, factor, duration):
        pass


class FakeCluster:
    """The membership surface both drivers use, over one dict."""

    storage_dir = None

    def __init__(self, round_interval):
        self.network = FakeFabric()
        interval = SimpleNamespace(round_interval=round_interval)
        #: `.config.epto.round_interval` (sim) / `.config.round_interval`.
        self.config = SimpleNamespace(epto=interval, round_interval=round_interval)
        self.up = {node_id: True for node_id in range(N)}
        self.calls = []
        oracle = SimpleNamespace(get_clock=lambda: 41)
        process = SimpleNamespace(dissemination=SimpleNamespace(oracle=oracle))
        self.nodes = {
            node_id: SimpleNamespace(crashed=False, process=process, start=lambda: None)
            for node_id in range(N)
        }

    def alive_ids(self):
        return [node_id for node_id, up in self.up.items() if up]

    live_ids = alive_ids

    def crashed_ids(self):
        return [node_id for node_id, up in self.up.items() if not up]

    def crash_node(self, node_id):
        self.calls.append(("crash", node_id))
        self.up[node_id] = False
        self.nodes[node_id].crashed = True

    def _respawn(self, node_id):
        self.calls.append(("respawn", node_id))
        self.up[node_id] = True
        self.nodes[node_id].crashed = False
        return self.nodes[node_id]

    def respawn_node(self, node_id):
        raise NotImplementedError


class FakeSimCluster(FakeCluster):
    def respawn_node(self, node_id):
        return self._respawn(node_id)


class FakeAsyncCluster(FakeCluster):
    async def respawn_node(self, node_id):
        return self._respawn(node_id)


def through_the_simulator():
    sim = Simulator(seed=3)
    cluster = FakeSimCluster(round_interval=100)
    injector = SimFaultInjector(sim, cluster, SCHEDULE, recovery="same_id")
    injector._rng = random.Random(5)  # the two drivers seed differently
    injector.install()
    sim.run(until=2_000)
    return injector, cluster


def through_asyncio():
    async def scenario():
        cluster = FakeAsyncCluster(round_interval=4)
        injector = AsyncFaultInjector(cluster, SCHEDULE, seed=3)
        injector._rng = random.Random(5)
        await injector.run()
        return injector, cluster

    return asyncio.run(scenario())


def test_both_drivers_interpret_one_schedule_identically():
    on_ticks, sim_cluster = through_the_simulator()
    on_timers, async_cluster = through_asyncio()

    texts = [text for _, text in on_ticks.log]
    assert texts == [text for _, text in on_timers.log]
    # Every action kind, and every ending, left its line.
    for fragment in (
        "crashed [",
        "recovered [",
        "partitioned into groups of sizes [4, 4]",
        "healed partition",
        "loss burst rate=0.3",
        "loss restored to 0.0",
        "latency spike x3.0",
        "latency restored",
        "approximated as loss",
        "byzantine replay on [0, 1]",
        "byzantine replay off for [0, 1]",
        "partitioned into groups of sizes [1, 1]",
        "crashed [0]",
        "scramble 1: sprayed 3 forged events",
        "scrambled [1]",
        "scrambled nodes [1] respawned",
    ):
        assert any(fragment in text for text in texts), fragment
    assert len(texts) == 18
    # Log times are the drivers' own clocks, in order.
    for log in (on_ticks.log, on_timers.log):
        assert [at for at, _ in log] == sorted(at for at, _ in log)

    assert on_ticks.stats == on_timers.stats
    assert on_ticks.stats.recoveries == 3 and on_ticks.stats.scrambles == 1
    assert on_ticks.crashed_ids == on_timers.crashed_ids
    assert len(on_ticks.crashed_ids) == 4
    assert on_ticks.byzantine_ids == on_timers.byzantine_ids == {0, 1}
    assert on_ticks.scrambled_ids == on_timers.scrambled_ids == {1}
    survivors = on_ticks.continuous_survivors()
    assert survivors == on_timers.continuous_survivors()
    # A respawned node is up again but not a *continuous* survivor.
    assert survivors == set(range(N)) - on_ticks.crashed_ids
    assert set(sim_cluster.alive_ids()) - survivors
    # The hosts were asked for the same things in the same order.
    assert sim_cluster.calls == async_cluster.calls
    assert sim_cluster.network.calls == async_cluster.network.calls
