"""A node whose TTL bound exceeds its senders': what the cut costs it.

Every round ships its ball cut at the sender's own TTL bound
(``DisseminationComponent.round_tick``). A receiver with the same bound
drops the cut entries unread, so it cannot tell. One with a larger bound
— a node the supervisor respawned with a ratcheted TTL
(:func:`repro.faults.adaptive.supervisor_adaptation`) — would have kept
them: it no longer gets its senders' entries aged to their bound, the
logical clock's carrier excepted. What it still gets are the copies
every node with its senders' bound learns an event from, and its
records age locally, so for an event it hears of only its timing can
move:

* under synchronized rounds a copy's TTL is about its event's age in
  rounds, so a missed copy tells the node's records little their own
  aging does not: in the seeded runs below every delivery, at every
  node, is what shipping whole balls gives;
* under staggered round phases TTLs run ahead of age; the node then
  delivers the same events in the same order, up to three rounds later
  (seeds 1–40 at these parameters, global clock: 0 rounds for 36 %, 1
  for 58 %, 2 for 5 % and 3 for 0.3 % of its deliveries; the logical
  clock reads alike).

The reference is the same seeded run with whole balls shipped.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import pytest

from repro.core import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator
from repro.sim.latency import UniformLatency

N = 24
FANOUT, TTL, RATCHET = 6, 8, 3
INTERVAL = 20
EVENTS = 30


def _run(
    seed: int, clock: str, phase: str, whole: bool, monkeypatch
) -> Tuple[int, Dict[int, list]]:
    """The high-bound node's id and every node's ``[(event id, time)]``
    in delivery order; *whole* ships every round's ball uncut."""
    with monkeypatch.context() as patch:
        if whole:
            patch.setattr(DisseminationComponent, "_cut", lambda self, ball, bound: ball)
        sim = Simulator(seed=seed)
        network = SimNetwork(sim, latency=UniformLatency(1, 15))
        config = ClusterConfig(
            epto=EpToConfig(
                fanout=FANOUT, ttl=TTL, round_interval=INTERVAL, clock=clock
            ),
            round_phase=phase,
        )
        cluster = SimCluster(sim, network, config)
        cluster.add_nodes(N - 1)
        cluster.config = dataclasses.replace(
            config, epto=config.epto.with_overrides(ttl=TTL + RATCHET)
        )
        high = cluster.add_node()
        cluster.config = config
        for index in range(EVENTS):
            sim.schedule_at(
                30 + 7 * index,
                lambda node=(5 * index) % (N - 1): cluster.broadcast_from(node),
            )
        sim.run(until=30 + 7 * EVENTS + 3 * (TTL + RATCHET) * INTERVAL)
    deliveries: Dict[int, list] = {node: [] for node in range(N)}
    for record in cluster.collector.deliveries():
        deliveries[record.node_id].append((record.event_id, record.time))
    assert all(len(log) == EVENTS for log in deliveries.values())
    return high, deliveries


@pytest.mark.parametrize("clock", ["global", "logical"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synchronized_rounds_deliver_as_whole_balls_do(seed, clock, monkeypatch):
    _, cut = _run(seed, clock, "synchronized", False, monkeypatch)
    _, whole = _run(seed, clock, "synchronized", True, monkeypatch)
    assert cut == whole


@pytest.mark.parametrize("clock", ["global", "logical"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_staggered_rounds_delay_the_high_bound_node_only(seed, clock, monkeypatch):
    high, cut = _run(seed, clock, "staggered", False, monkeypatch)
    _, whole = _run(seed, clock, "staggered", True, monkeypatch)
    order = [event_id for event_id, _ in whole[0]]
    for log in cut.values():
        assert [event_id for event_id, _ in log] == order
    late = {
        node: [(time - was) / INTERVAL for (_, time), (_, was) in zip(log, whole[node])]
        for node, log in cut.items()
    }
    assert all(0 <= rounds <= 3 for rounds in late[high])
    assert any(rounds > 0 for rounds in late[high])  # the cut does reach it
    # The others lose nothing: where the high-bound node now relays an
    # event at a lower TTL, the copy it sent before was expired for them.
    assert all(rounds <= 0 for node in late if node != high for rounds in late[node])
