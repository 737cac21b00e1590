"""The anti-entropy applier: events repaired by sync move the clock.

Algorithm 4 merges every timestamp a node learns into its logical
clock. A node repaired by :func:`repro.sync.manager.epto_chunk_applier`
learns the repaired events outside the epidemic path, so the applier
merges their timestamps itself: otherwise the node's next broadcast is
stamped below events it already delivered, and it (and every peer)
discards that broadcast as late.
"""

from __future__ import annotations

import random

import pytest

from repro.core import EpToConfig, EpToProcess
from repro.core.event import Event
from repro.sync.manager import epto_chunk_applier

from ..conftest import RecordingTransport, StaticPeerSampler


def build(clock: str):
    delivered: list = []
    process = EpToProcess(
        node_id=0,
        config=EpToConfig(fanout=2, ttl=2, clock=clock),
        peer_sampler=StaticPeerSampler([1, 2]),
        transport=RecordingTransport(),
        on_deliver=delivered.append,
        time_source=(lambda: 7) if clock == "global" else None,
        rng=random.Random(0),
    )
    return process, delivered


def test_a_repaired_event_lifts_the_logical_clock():
    process, delivered = build("logical")
    repaired = Event(id=(5, 0), ts=100, source_id=5)
    assert epto_chunk_applier(process)([repaired]) == 1

    own = process.broadcast("after repair")
    assert own.ts == 101
    for _ in range(4):
        process.on_round()
    assert delivered == [repaired, own]
    assert process.ordering.stats.discarded_late == 0


def test_every_timestamp_in_the_chunk_is_merged():
    # A duplicate (already delivered) still names a timestamp the node
    # has learnt; the clock ends above the largest one.
    process, _ = build("logical")
    apply = epto_chunk_applier(process)
    first, second = (Event(id=(5, seq), ts=ts, source_id=5) for seq, ts in ((0, 40), (1, 60)))
    assert apply([first, second]) == 2
    assert apply([first]) == 0
    assert process.oracle.logical_clock == 60


@pytest.mark.parametrize("ts", [3, 100])
def test_the_global_clock_is_left_alone(ts):
    process, _ = build("global")
    epto_chunk_applier(process)([Event(id=(5, 0), ts=ts, source_id=5)])
    assert process.broadcast().ts == 7
