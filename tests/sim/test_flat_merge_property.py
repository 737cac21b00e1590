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
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

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
