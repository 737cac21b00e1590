"""One fault surface: each fault acts alike on every fabric offering it.

Five fabrics carry EpTO's traffic and one fault schedule drives them
all (docs/FAULTS.md). A partition drops crossing sends and counts them
in ``dropped_partition`` on all five, and a heal restores delivery; on
the asyncio fabrics it also drops a message already in flight when it
forms; a loss burst at rate 1 drops every send on the three asyncio fabrics; a
latency spike delays delivery on ``AsyncNetwork`` and ``UdpNetwork``,
zero-latency ones included; and every fabric offers exactly the fault
verbs the table in docs/FAULTS.md lists for it — no verb it ignores.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Tuple

import pytest

from repro.core.config import EpToConfig
from repro.core.errors import MembershipError
from repro.core.event import Ball, Event
from repro.fabric import DEFAULT_SPIKE_BASE
from repro.runtime.transport import AsyncNetwork
from repro.runtime.udp import UdpNetwork
from repro.service.demux import TopicChannel, TopicDemux
from repro.sim.cluster import ClusterConfig
from repro.sim.drift import NoDrift
from repro.sim.engine import Simulator
from repro.sim.flat import FlatCluster, FlatEngine, FlatNetwork
from repro.sim.network import SimNetwork

from .conftest import first_event

FAULTS_MD = Path(__file__).resolve().parents[1] / "docs" / "FAULTS.md"

FABRICS = {
    "SimNetwork": SimNetwork,
    "FlatNetwork": FlatNetwork,
    "AsyncNetwork": AsyncNetwork,
    "UdpNetwork": UdpNetwork,
    "TopicChannel": TopicChannel,
}


def a_ball(payload: str) -> Ball:
    return Ball.of([(Event(id=(9, 0), ts=1, source_id=9, payload=payload), 0)])


# ----------------------------------------------------------------------
# The asyncio fabrics: node 0 sends to node 1
# ----------------------------------------------------------------------


@dataclass
class Rig:
    """One asyncio fabric with two nodes: ``fabric`` takes the fault
    verbs, ``stats`` counts the drops, ``send`` ships a ball from node
    0 to node 1, whose handler appends ``(loop time, payload)`` to
    ``inbox``."""

    fabric: Any
    stats: Any
    send: Callable[[Ball], None]
    inbox: List[Tuple[float, str]]
    close: Callable[[], Awaitable[None]]


def _inbox_handler(inbox: List[Tuple[float, str]]):
    def handler(src: int, message: Ball) -> None:
        inbox.append(
            (asyncio.get_running_loop().time(), first_event(message).payload)
        )

    return handler


async def _nothing() -> None:
    return None


async def async_rig() -> Rig:
    network = AsyncNetwork(seed=1)
    inbox: List[Tuple[float, str]] = []
    network.register(0, lambda src, message: None)
    network.register(1, _inbox_handler(inbox))
    return Rig(network, network.stats, lambda b: network.send(0, 1, b), inbox, _nothing)


async def udp_rig() -> Rig:
    network = UdpNetwork(seed=1)
    inbox: List[Tuple[float, str]] = []
    network.register(0, lambda src, message: None)
    network.register(1, _inbox_handler(inbox))
    await network.open_all()
    return Rig(
        network, network.stats, lambda b: network.send(0, 1, b), inbox, network.close
    )


async def topic_rig() -> Rig:
    network = AsyncNetwork(seed=1)
    sender = TopicDemux(network, host_id=0, seed=1)
    receiver = TopicDemux(network, host_id=1, seed=1)
    inbox: List[Tuple[float, str]] = []
    receiver.channel(7).register(1, _inbox_handler(inbox))
    channel = sender.channel(7)
    return Rig(channel, sender.stats, lambda b: channel.send(0, 1, b), inbox, _nothing)


LOOP_RIGS = {
    "AsyncNetwork": async_rig,
    "UdpNetwork": udp_rig,
    "TopicChannel": topic_rig,
}


async def arrival(inbox: List[Tuple[float, str]], count: int = 1) -> None:
    """Wait until *inbox* holds *count* messages (at most 5 s)."""
    deadline = asyncio.get_running_loop().time() + 5.0
    while len(inbox) < count and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.002)


# ----------------------------------------------------------------------
# Partitions: all five fabrics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", LOOP_RIGS)
def test_partition_drops_crossing_sends_and_heal_restores_them(name):
    async def scenario():
        rig = await LOOP_RIGS[name]()
        # Node 1 is absent from the map: it sits in the implicit None
        # group, apart from node 0.
        rig.fabric.set_partition({0: "a"})
        rig.send(a_ball("across"))
        await asyncio.sleep(0.02)
        dropped = rig.stats.dropped_partition
        rig.fabric.heal_partition()
        rig.send(a_ball("healed"))
        await arrival(rig.inbox)
        await rig.close()
        return dropped, [payload for _, payload in rig.inbox]

    dropped, payloads = asyncio.run(scenario())
    assert dropped == 1
    assert payloads == ["healed"]


@pytest.mark.parametrize("name", LOOP_RIGS)
def test_a_partition_drops_a_message_already_in_flight(name):
    """The rule is checked at send and again on arrival. In flight
    means deferred by a latency spike on the two fabrics that have
    spikes, and queued for the demux's flush, later in the same loop
    tick, on a topic channel."""

    async def scenario():
        rig = await LOOP_RIGS[name]()
        if name != "TopicChannel":
            rig.fabric.set_latency_spike(50.0, 60.0)
        rig.send(a_ball("in flight"))
        rig.fabric.set_partition({0: "a"})
        await asyncio.sleep(0.2)
        await rig.close()
        return rig.stats.dropped_partition, rig.inbox

    dropped, inbox = asyncio.run(scenario())
    assert dropped == 1
    assert inbox == []


def test_partition_on_the_object_simulator():
    sim = Simulator(seed=1)
    network = SimNetwork(sim)
    inbox: List[str] = []
    network.register(0, lambda src, message: None)
    network.register(1, lambda src, message: inbox.append(message))
    network.set_partition({0: "a"})
    network.send(0, 1, "across")
    sim.run(until=10)
    assert network.stats.dropped_partition == 1
    network.heal_partition()
    network.send(0, 1, "healed")
    sim.run(until=20)
    assert inbox == ["healed"]


def test_partition_on_the_flat_simulator():
    sim = FlatEngine(seed=1)
    network = FlatNetwork(sim)
    config = ClusterConfig(
        epto=EpToConfig(fanout=3, ttl=6, round_interval=20), drift=NoDrift()
    )
    cluster = FlatCluster(sim, network, config)
    cluster.add_nodes(8)
    network.set_partition({0: "alone"})
    cluster.broadcast_from(0, "across")
    sim.run(until=1_000)
    assert network.stats.dropped_partition > 0
    # Only the isolated sender itself delivered its event.
    assert cluster.delivery_counts() == {0: 1}
    network.heal_partition()
    cluster.broadcast_from(0, "healed")
    sim.run(until=2_000)
    assert cluster.delivery_counts() == {0: 2, **{n: 1 for n in range(1, 8)}}


# ----------------------------------------------------------------------
# Loss bursts and latency spikes: the asyncio fabrics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", LOOP_RIGS)
def test_a_burst_at_rate_one_drops_every_send(name):
    async def scenario():
        rig = await LOOP_RIGS[name]()
        rig.fabric.set_loss_burst(1.0, 60.0)
        for i in range(10):
            rig.send(a_ball(f"lost-{i}"))
        await asyncio.sleep(0.02)
        await rig.close()
        return rig.stats.dropped_burst, rig.inbox

    dropped, inbox = asyncio.run(scenario())
    assert dropped == 10
    assert inbox == []


@pytest.mark.parametrize("name", ["AsyncNetwork", "UdpNetwork"])
def test_a_spike_delays_delivery_on_a_zero_latency_fabric(name):
    factor = 50.0

    async def scenario():
        rig = await LOOP_RIGS[name]()
        rig.fabric.set_latency_spike(factor, 60.0)
        sent_at = asyncio.get_running_loop().time()
        rig.send(a_ball("slow"))
        await arrival(rig.inbox)
        await rig.close()
        return sent_at, rig.inbox

    sent_at, inbox = asyncio.run(scenario())
    assert [payload for _, payload in inbox] == ["slow"]
    # The one rule: (latency or DEFAULT_SPIKE_BASE) x factor, jittered
    # by a factor of at least 0.5.
    assert inbox[0][0] - sent_at >= 0.5 * DEFAULT_SPIKE_BASE * factor


# ----------------------------------------------------------------------
# Each fabric offers exactly the verbs docs/FAULTS.md lists for it
# ----------------------------------------------------------------------


def fault_table() -> Dict[str, Dict[Tuple[str, ...], str]]:
    """docs/FAULTS.md's fabric x fault table: fabric -> {the column's
    verbs: the cell}."""
    lines = FAULTS_MD.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| fabric |"))

    def cells(line: str) -> List[str]:
        return [cell.strip() for cell in line.strip().strip("|").split("|")]

    columns = [tuple(re.findall(r"`(\w+)`", cell)) for cell in cells(lines[start])[1:]]
    table = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        row = cells(line)
        table[row[0].strip("`")] = dict(zip(columns, row[1:]))
    return table


TABLE = fault_table()


def test_the_table_covers_every_fabric_and_fault():
    assert set(TABLE) == set(FABRICS)
    verbs = {verb for row in TABLE.values() for column in row for verb in column}
    assert {"set_partition", "set_adversary", "set_loss_burst"} <= verbs
    assert {"set_latency_spike", "set_corruption"} <= verbs


@pytest.mark.parametrize("name", FABRICS)
def test_each_fabric_offers_exactly_the_verbs_the_table_lists(name):
    listed = set()
    for verbs, cell in TABLE[name].items():
        if cell == "yes":
            listed.update(verbs)
        elif cell == "refuses":
            listed.add(verbs[0])
    offered = {
        attribute
        for attribute in dir(FABRICS[name])
        if attribute.startswith(("set_", "heal_", "clear_"))
    }
    assert offered == listed


def test_a_refused_verb_raises():
    refused = [
        (name, verbs[0])
        for name, row in TABLE.items()
        for verbs, cell in row.items()
        if cell == "refuses"
    ]
    assert refused == [("FlatNetwork", "set_adversary")]
    with pytest.raises(MembershipError):
        FlatNetwork(FlatEngine(seed=1)).set_adversary(object())
