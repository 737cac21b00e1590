"""Property: the flat engine's receive merge is Algorithm 1's max-merge.

``FlatCluster._receive_ball_batch`` never loops over a copy's entries
when it can avoid it: a ball object the receiver has merged since its
last round is skipped with one memo lookup, an empty pending ball takes
the whole ball with one ``dict.update`` and a copy that teaches the
receiver nothing is skipped by a dict-view subset test. Senders of one
round batch whose live maps are equal ship one shared object, each with
its own clock. This file checks the shortcuts, and the per-entry loop
behind them, against the plain per-entry merge of the paper's
Algorithm 1 (lines 13–20, plus Algorithm 4's clock update): any
sequence of balls — the very same ball object handed over again within
a round, after the receiver's round, or with another sender's clock
among them — must leave the receiver with the same ``{event: ttl}`` *in
the same insertion order* — the order is the next ball's entry order —
and the same logical clock. A sender whose every entry ages to the
bound sends nothing under the logical clock (the clock carrier never
travels alone), so the model merges no clock from that round.

A second property hands one batch of ball entries to several receivers
at once, as a calendar tick does: entries that share one live map, with
different senders' clocks, copies to a dead receiver and across a
partition, and broadcasts into a receiver whose pending ball is a map it
received whole. Each receiver must end with the per-entry model's
``{event: ttl}`` and clock, the network counters must equal counting
copy by copy, no node outside the batch may see its pending ball move,
and no shared map may change. It runs under a fixed latency, where the
engine groups a batch's entries by map and so may merge a receiver's
entries in another order than the batch's, and under a sampled one,
where it receives entry by entry; the property compares contents, not
insertion order.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import EpToConfig
from repro.sim import ClusterConfig, FixedLatency, NoDrift, UniformLatency
from repro.sim.flat import (
    _EMPTY_BALL,
    _OP_BALL,
    _OP_ROUND,
    FlatCluster,
    FlatEngine,
    FlatNetwork,
)

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
#: The live part two senders share, and what only the first also holds
#: at TTLs that age to the bound: its ball is cut to the same live map
#: but may carry a larger clock.
shared_live = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(min_value=0, max_value=TTL - 2)),
    min_size=1,
    max_size=len(POOL),
    unique_by=lambda pair: pair[0],
)
expiring = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(min_value=TTL - 1, max_value=TTL + 1)),
    max_size=3,
    unique_by=lambda pair: pair[0],
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("ball"), st.sampled_from(SENDERS), pending_balls),
        # The same pending ball relayed twice: the second copy is equal.
        st.tuples(st.just("twice"), st.sampled_from(SENDERS), pending_balls),
        # Both senders in one round batch, their live maps equal.
        st.tuples(st.just("pair"), shared_live, expiring),
        # The last copies delivered, handed over again as the very same
        # objects; with a clock, as a sender with a larger one would.
        st.tuples(
            st.just("again"), st.none() | st.integers(min_value=0, max_value=9)
        ),
        st.tuples(st.just("broadcast")),
        st.tuples(st.just("round")),  # the receiver's round empties its ball
    ),
    min_size=1,
    max_size=12,
)


def _cluster(
    nodes: int = 3, pool: list = POOL, latency: object = FixedLatency(1)
) -> FlatCluster:
    config = ClusterConfig(
        epto=EpToConfig(fanout=2, ttl=TTL, round_interval=20, clock="logical"),
        drift=NoDrift(),
    )
    sim = FlatEngine(seed=1)
    cluster = FlatCluster(sim, FlatNetwork(sim, latency=latency), config)
    cluster.add_nodes(nodes)
    for eid in pool:
        assert cluster.broadcast_from(eid[0]).id == eid
    return cluster


def _relay(cluster: FlatCluster, pendings: dict) -> list:
    """Run each sender's node-round over its pending ball, in one round
    batch; return the ball entries.

    With three nodes and fan-out two the receiver gets a copy of every
    ball. The calendar is emptied so the property drives every step.
    """
    sim = cluster.sim
    fires = []
    for sender, pending in pendings.items():
        cluster._next_ball[sender] = dict(pending)
        fires.append((_OP_ROUND, sender, cluster._incarnation[sender]))
    assert cluster._run_round_batch(fires, 0) == len(fires)
    entries = [
        entry
        for bucket in sim._calendar.values()
        for entry in bucket
        if entry[0] == _OP_BALL
    ]
    sim._calendar.clear()
    sim._ticks.clear()
    return entries


@settings(max_examples=200, deadline=None)
@given(steps)
# Again within the round, with a larger clock, then after the round.
@example(
    [("ball", 1, [((1, 0), 1)]), ("again", 7), ("round",), ("again", None)]
)
# One shared ball from two clocks, handed over again after the round.
@example(
    [("pair", [((1, 0), 0)], [((2, 2), TTL)]), ("round",), ("again", None)]
)
def test_receive_merge_equals_algorithm_1(walk) -> None:
    cluster = _cluster()
    timestamp = {eid: cluster._broadcasts[eid][0][0] for eid in POOL}

    def sent(pending: list) -> tuple:
        """What Algorithm 1 ships for *pending*: its entries aged by the
        round and still below the bound, and the largest timestamp."""
        live = [(eid, ttl + 1) for eid, ttl in pending if ttl + 1 < TTL]
        return live, max(timestamp[eid] for eid, _ in pending)

    model: dict = {}  # Alg. 1's nextBall at the receiver
    clock = 0
    last: tuple = ()  # the last copies delivered, and what they ship
    for step in walk:
        if step[0] == "broadcast":
            event = cluster.broadcast_from(RECEIVER)
            clock += 1
            model[event.id] = 0
            assert event.ts == clock
            continue
        if step[0] == "round":
            _relay(cluster, {RECEIVER: list(cluster._next_ball[RECEIVER].items())})
            assert cluster._next_ball[RECEIVER] == {}
            assert cluster._absorbed[RECEIVER] == {}
            model.clear()
            continue
        batches = []  # (entries, what each sender's round ships)
        if step[0] == "again":
            if not last:
                continue
            entries, ships = last
            if step[1] is not None:
                entries = [entry[:4] + (step[1],) for entry in entries]
                ships = [(live, step[1]) for live, _ts in ships]
            batches.append((entries, ships))
        elif step[0] == "pair":
            _kind, shared, extra = step
            first = dict(shared)
            first.update(pair for pair in extra if pair[0] not in first)
            pendings = {1: list(first.items()), 2: shared}
            entries = _relay(cluster, pendings)
            assert len(entries) == 2 and entries[0][3] is entries[1][3]
            batches.append((entries, [sent(p) for p in pendings.values()]))
        else:
            _kind, sender, pending = step
            for _copy in range(2 if step[0] == "twice" else 1):
                entries = _relay(cluster, {sender: pending})
                if all(ttl + 1 >= TTL for _, ttl in pending):
                    # Nothing live to relay: the round sends nothing, and
                    # the receiver's clock does not see the carrier.
                    assert entries == []
                    continue
                batches.append((entries, [sent(pending)]))
        for entries, ships in batches:
            assert all(RECEIVER in entry[2] for entry in entries)
            consumed, copies = cluster._receive_ball_batch(entries, 0)
            assert (consumed, copies) == (len(entries), 2 * len(entries))
            assert all(id(entry[3]) in cluster._absorbed[RECEIVER] for entry in entries)
            for live, ts in ships:
                for eid, ttl in live:
                    if eid not in model or model[eid] < ttl:
                        model[eid] = ttl
                clock = max(clock, ts)
            last = (entries, ships)
        assert list(cluster._next_ball[RECEIVER].items()) == list(model.items())
        assert cluster._clock_value[RECEIVER] == clock


#: The several-receiver property: three receivers, three senders whose
#: events the live maps carry (the senders never receive).
RECEIVERS = (0, 1, 2)
RELAYS = (3, 4, 5)
RELAYED = [(sender, seq) for sender in RELAYS for seq in range(2)]

#: Three live maps, each entry below the TTL as a shipped map's are; an
#: entry names one by index, so entries share map objects.
live_maps = st.lists(
    st.lists(
        st.tuples(st.sampled_from(RELAYED), st.integers(min_value=1, max_value=TTL - 1)),
        max_size=4,
        unique_by=lambda pair: pair[0],
    ),
    min_size=3,
    max_size=3,
)
#: (sender, destinations with repeats, which map, the sender's clock)
ball_entry = st.tuples(
    st.sampled_from(RELAYS),
    st.lists(st.sampled_from(RECEIVERS), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=9),
)
batch_steps = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(ball_entry, min_size=1, max_size=6)),
        st.tuples(st.just("broadcast"), st.sampled_from(RECEIVERS)),
        st.tuples(st.just("round"), st.sampled_from(RECEIVERS)),
        # Crash a live receiver, or respawn a crashed one.
        st.tuples(st.just("crash"), st.sampled_from(RECEIVERS)),
        st.tuples(
            st.just("partition"),
            st.lists(st.sampled_from("ab"), min_size=6, max_size=6),
        ),
        st.tuples(st.just("heal")),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize(
    "latency", [FixedLatency(1), UniformLatency(1, 3)], ids=["fixed", "sampled"]
)
@settings(max_examples=200, deadline=None)
@given(live_maps, batch_steps)
# A map two senders share with different clocks, held by two receivers;
# a broadcast into one; the map again, to both and to a third receiver.
@example(
    [[((3, 0), 1), ((4, 1), 2)], [((5, 0), 3)], []],
    [
        ("batch", [(3, [0, 1, 0], 0, 2), (4, [1], 0, 7), (5, [2], 1, 4)]),
        ("broadcast", 0),
        ("batch", [(5, [0, 1, 2], 0, 5), (3, [0], 1, 1)]),
    ],
)
# A dead receiver and a partition, in one batch with a live receiver.
@example(
    [[((3, 0), 1)], [((4, 0), 2)], [((5, 1), 1)]],
    [
        ("crash", 2),
        ("partition", list("aabaab")),
        ("batch", [(3, [0, 1, 2, 2], 0, 3), (4, [0, 1, 1], 1, 6)]),
        ("heal",),
        ("crash", 2),
        ("batch", [(5, [2, 0], 2, 8)]),
    ],
)
def test_one_batch_to_several_receivers_equals_algorithm_1(
    latency, lives, walk
) -> None:
    cluster = _cluster(nodes=6, pool=RELAYED, latency=latency)
    stats = cluster.network.stats
    maps = [dict(live) for live in lives]
    shipped = [list(live.items()) for live in maps]
    model: dict = {node: {} for node in RECEIVERS}  # None once crashed
    clock = {node: 0 for node in RECEIVERS}
    labels: dict = {}
    partitioned = False
    for step in walk:
        kind = step[0]
        if kind == "broadcast":
            node = step[1]
            if model[node] is None:
                continue
            event = cluster.broadcast_from(node)
            clock[node] += 1
            assert event.ts == clock[node]
            model[node][event.id] = 0
        elif kind == "round":
            node = step[1]
            if model[node] is None:
                continue
            fire = (_OP_ROUND, node, cluster._incarnation[node])
            assert cluster._run_round_batch([fire], 0) == 1
            assert cluster._next_ball[node] is _EMPTY_BALL
            assert cluster._absorbed[node] == {}
            model[node] = {}
        elif kind == "crash":
            node = step[1]
            if model[node] is None:
                cluster.respawn_node(node)
                model[node], clock[node] = {}, 0
            else:
                cluster.crash_node(node)
                model[node] = None
                labels.pop(node, None)  # a removed node leaves its group
        elif kind == "partition":
            labels = dict(enumerate(step[1]))
            partitioned = True
            cluster.network.set_partition(labels)
        elif kind == "heal":
            labels, partitioned = {}, False
            cluster.network.heal_partition()
        else:
            entries = [
                (_OP_BALL, src, list(dsts), maps[which], ts)
                for src, dsts, which, ts in step[1]
            ]
            before = list(cluster._next_ball)
            counted = (stats.delivered, stats.dropped_dead, stats.dropped_partition)
            delivered = dead = cut = 0
            reached = set()
            for _op, src, dsts, live, ts in entries:
                for dst in dsts:
                    if model[dst] is None:
                        dead += 1
                    elif partitioned and labels.get(src) != labels.get(dst):
                        cut += 1
                    else:
                        delivered += 1
                        reached.add(dst)
                        pending = model[dst]
                        for eid, ttl in live.items():
                            if eid not in pending or pending[eid] < ttl:
                                pending[eid] = ttl
                        clock[dst] = max(clock[dst], ts)
            # A trailing round fire ends the batch.
            bucket = entries + [(_OP_ROUND, RELAYS[0], 0)]
            consumed, copies = cluster._receive_ball_batch(bucket, 0)
            assert (consumed, copies) == (len(entries), delivered + dead + cut)
            assert (
                stats.delivered - counted[0],
                stats.dropped_dead - counted[1],
                stats.dropped_partition - counted[2],
            ) == (delivered, dead, cut)
            for node, pending in enumerate(before):
                if node not in reached:
                    assert cluster._next_ball[node] is pending
        cluster.sim._calendar.clear()
        cluster.sim._ticks.clear()
        for node in RECEIVERS:
            if model[node] is None:
                assert cluster._next_ball[node] is None
                continue
            assert cluster._next_ball[node] == model[node]
            assert cluster._clock_value[node] == clock[node]
        assert [list(live.items()) for live in maps] == shipped
        assert _EMPTY_BALL == {}
