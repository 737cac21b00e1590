"""Property: the flat engine's receive merge is Algorithm 1's max-merge.

``FlatCluster._receive_ball_batch`` never loops over a copy's entries
when it can avoid it: an empty pending ball takes the whole ball with one
``dict.update`` and a copy that teaches the receiver nothing is skipped
by a dict-view subset test. This file checks both shortcuts, and the
per-entry loop behind them, against the plain per-entry merge of the
paper's Algorithm 1 (lines 13–20, plus Algorithm 4's clock update): any
sequence of balls must leave the receiver with the same ``{event: ttl}``
*in the same insertion order* — the order is the next ball's entry
order — and the same logical clock. A sender whose every entry ages to
the bound sends nothing under the logical clock (the clock carrier
never travels alone), so the model merges no clock from that round.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import EpToConfig
from repro.sim import ClusterConfig, FixedLatency, NoDrift
from repro.sim.flat import _OP_BALL, _OP_ROUND, FlatCluster, FlatEngine, FlatNetwork

TTL = 4
RECEIVER = 0
SENDERS = (1, 2)
#: Events the senders relay, broadcast up front: three per sender, with
#: logical timestamps 1..3 (the receiver's clock starts at 0).
POOL = [(sender, seq) for sender in SENDERS for seq in range(3)]

#: A pending ball at a sender: any events of the pool in any order, at
#: TTLs from fresh (0) to already past the bound once aged (TTL + 1).
pending_balls = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(min_value=0, max_value=TTL + 1)),
    min_size=1,
    max_size=len(POOL),
    unique_by=lambda pair: pair[0],
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("ball"), st.sampled_from(SENDERS), pending_balls),
        # The same pending ball relayed twice: the second copy is equal.
        st.tuples(st.just("twice"), st.sampled_from(SENDERS), pending_balls),
        st.tuples(st.just("broadcast")),
        st.tuples(st.just("round")),  # the receiver's round empties its ball
    ),
    min_size=1,
    max_size=12,
)


def _cluster() -> FlatCluster:
    config = ClusterConfig(
        epto=EpToConfig(fanout=2, ttl=TTL, round_interval=20, clock="logical"),
        drift=NoDrift(),
    )
    sim = FlatEngine(seed=1)
    cluster = FlatCluster(sim, FlatNetwork(sim, latency=FixedLatency(1)), config)
    cluster.add_nodes(3)
    for eid in POOL:
        assert cluster.broadcast_from(eid[0]).id == eid
    return cluster


def _relay(cluster: FlatCluster, sender: int, pending: list) -> list:
    """Run *sender*'s node-round over *pending*; return the ball entries.

    With three nodes and fan-out two the receiver gets a copy of every
    ball. The calendar is emptied so the property drives every step.
    """
    sim = cluster.sim
    cluster._next_ball[sender] = dict(pending)
    fire = (_OP_ROUND, sender, cluster._incarnation[sender])
    cluster._run_round_batch([fire], 0)
    entries = [
        entry
        for bucket in sim._calendar.values()
        for entry in bucket
        if entry[0] == _OP_BALL
    ]
    sim._calendar.clear()
    sim._ticks.clear()
    assert all(RECEIVER in entry[2] for entry in entries)
    return entries


@settings(max_examples=200, deadline=None)
@given(steps)
def test_receive_merge_equals_algorithm_1(walk) -> None:
    cluster = _cluster()
    timestamp = {eid: cluster._broadcasts[eid][0][0] for eid in POOL}
    model: dict = {}  # Alg. 1's nextBall at the receiver
    clock = 0
    for step in walk:
        if step[0] == "broadcast":
            event = cluster.broadcast_from(RECEIVER)
            clock += 1
            model[event.id] = 0
            assert event.ts == clock
        elif step[0] == "round":
            cluster._next_ball[RECEIVER].clear()
            model.clear()
        else:
            _kind, sender, pending = step
            for _copy in range(2 if step[0] == "twice" else 1):
                entries = _relay(cluster, sender, pending)
                if all(ttl + 1 >= TTL for _, ttl in pending):
                    # Nothing live to relay: the round sends nothing, and
                    # the receiver's clock does not see the carrier.
                    assert entries == []
                    continue
                consumed, copies = cluster._receive_ball_batch(entries, 0)
                assert (consumed, copies) == (len(entries), 2)
                for eid, ttl in pending:
                    ttl += 1  # aged by the sender's round
                    if ttl < TTL and (eid not in model or model[eid] < ttl):
                        model[eid] = ttl
                    clock = max(clock, timestamp[eid])
        assert list(cluster._next_ball[RECEIVER].items()) == list(model.items())
        assert cluster._clock_value[RECEIVER] == clock
