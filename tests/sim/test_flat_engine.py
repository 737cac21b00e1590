"""Unit tests for the flat engine and its recording modes.

Equivalence with the object engine lives in
``tests/sim/test_flat_equivalence.py``; this file pins down the flat
stack's own contracts — calendar semantics, the explicit feature
restrictions, the two recording modes, ``as_collector`` parity with the
metrics checkers, and the ball representation (shared, never mutated,
one calendar entry per node-round's fan-out).
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import EpToConfig
from repro.core.errors import ConfigurationError, MembershipError, SimulationError
from repro.metrics import check_run
from repro.sim import (
    ClusterConfig,
    FixedLatency,
    NoDrift,
    Simulator,
    UniformDrift,
    UniformLatency,
)
from repro.sim.flat import _OP_BALL, FlatCluster, FlatEngine, FlatNetwork


def _config(
    fanout: int = 4,
    ttl: int = 8,
    interval: int = 20,
    clock: str = "global",
    **kwargs,
) -> ClusterConfig:
    return ClusterConfig(
        epto=EpToConfig(
            fanout=fanout, ttl=ttl, round_interval=interval, clock=clock
        ),
        drift=kwargs.pop("drift", NoDrift()),
        **kwargs,
    )


# ----------------------------------------------------------------------
# FlatEngine calendar semantics
# ----------------------------------------------------------------------


def test_engine_runs_actions_in_time_then_fifo_order():
    sim = FlatEngine(seed=1)
    trace = []
    sim.schedule(5, lambda: trace.append("b"))
    sim.schedule(2, lambda: trace.append("a"))
    sim.schedule(5, lambda: trace.append("c"))  # same tick: FIFO
    sim.run()
    assert trace == ["a", "b", "c"]


def test_engine_same_tick_reentrant_schedule_runs_this_tick():
    """An action scheduling at delay 0 runs within the same tick."""
    sim = FlatEngine(seed=1)
    trace = []
    sim.schedule(3, lambda: (trace.append("outer"), sim.schedule(0, lambda: trace.append("inner"))))
    sim.run()
    assert trace == ["outer", "inner"]
    assert sim.now() == 3


def test_engine_cancel_and_past_scheduling():
    sim = FlatEngine(seed=1)
    trace = []
    handle = sim.schedule(4, lambda: trace.append("cancelled"))
    sim.schedule(6, lambda: trace.append("kept"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert trace == ["kept"]
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(2, lambda: None)  # now is already 6


def test_engine_run_until_advances_clock_even_when_drained():
    sim = FlatEngine(seed=1)
    sim.schedule(3, lambda: None)
    sim.run(until=50)
    assert sim.now() == 50
    assert sim.executed_count == 1


@pytest.mark.parametrize("engine", [Simulator, FlatEngine])
def test_max_events_raises_and_loses_nothing(engine):
    """``max_events`` is a safety bound, the same on both engines.

    Exceeding it raises; whatever had not run — the rest of the tick
    included — is still scheduled and runs on the next call.
    """
    sim = engine(seed=1)
    trace = []
    for i in range(5):
        sim.schedule(3, lambda i=i: trace.append(i))
    sim.schedule(4, lambda: trace.append("next tick"))
    with pytest.raises(SimulationError):
        sim.run(max_events=2)
    assert trace == [0, 1]
    sim.run()
    assert trace == [0, 1, 2, 3, 4, "next tick"]


@pytest.mark.parametrize("engine", [Simulator, FlatEngine])
def test_max_events_equal_to_the_work_does_not_raise(engine):
    sim = engine(seed=1)
    trace = []
    cancelled = sim.schedule(2, lambda: trace.append("cancelled"))
    for i in range(3):
        sim.schedule(2, lambda i=i: trace.append(i))
    cancelled.cancel()
    sim.run(max_events=3)
    assert trace == [0, 1, 2]


def test_engine_fork_rng_is_deterministic_per_label():
    a = FlatEngine(seed=7).fork_rng("node:3")
    b = FlatEngine(seed=7).fork_rng("node:3")
    c = FlatEngine(seed=7).fork_rng("node:4")
    draws = [a.random() for _ in range(5)]
    assert draws == [b.random() for _ in range(5)]
    assert draws != [c.random() for _ in range(5)]


# ----------------------------------------------------------------------
# Restrictions: unsupported features raise instead of diverging
# ----------------------------------------------------------------------


def test_cluster_rejects_cyclon_pss():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    with pytest.raises(ConfigurationError, match="flat engine"):
        FlatCluster(sim, net, _config(pss="cyclon"))


def test_cluster_rejects_tagged_delivery_and_stability():
    for override in ({"tagged_delivery": True}, {"expose_stability": True}):
        sim = FlatEngine(seed=1)
        net = FlatNetwork(sim)
        # The size hint keeps expose_stability's own requirement met,
        # so what is refused is the engine.
        config = ClusterConfig(
            epto=EpToConfig(fanout=4, ttl=8, round_interval=20, **override),
            drift=NoDrift(),
            expected_size=8,
        )
        with pytest.raises(ConfigurationError, match="flat engine"):
            FlatCluster(sim, net, config)


def test_cluster_rejects_unknown_record_mode():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    with pytest.raises(MembershipError):
        FlatCluster(sim, net, _config(), record="everything")


def test_engine_refuses_second_cluster():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    FlatCluster(sim, net, _config())
    with pytest.raises(SimulationError):
        FlatCluster(sim, net, _config())


def test_network_rejects_adversary():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    with pytest.raises(MembershipError):
        net.set_adversary(object())


# ----------------------------------------------------------------------
# Recording modes
# ----------------------------------------------------------------------


def _run_flat(record: str, seed: int = 11, n: int = 24, rounds: int = 36):
    config = _config(drift=UniformDrift(0.01))
    sim = FlatEngine(seed=seed)
    net = FlatNetwork(sim, latency=FixedLatency(3))
    cluster = FlatCluster(sim, net, config, record=record)
    cluster.add_nodes(n)
    interval = config.epto.round_interval
    for r in range(1, 7):
        node = r % n
        sim.schedule_at(r * interval, lambda nd=node: cluster.broadcast_from(nd))
    sim.run(until=rounds * interval)
    return cluster


def test_stats_mode_matches_sequences_mode_aggregates():
    full = _run_flat("sequences")
    stats = _run_flat("stats")
    assert stats.delivery_counts() == full.delivery_counts()
    assert stats.sequence_hashes() == full.sequence_hashes()
    assert sorted(stats.delivery_delays()) == sorted(full.delivery_delays())
    assert stats.delivered_total == full.delivered_total
    assert stats.broadcast_count() == full.broadcast_count()


def test_stats_mode_refuses_sequence_surfaces():
    stats = _run_flat("stats", rounds=4)
    for accessor in (stats.sequences, stats.deliveries, stats.as_collector):
        with pytest.raises(SimulationError):
            accessor()


def test_identical_hashes_iff_identical_sequences():
    cluster = _run_flat("sequences")
    sequences = cluster.sequences()
    hashes = cluster.sequence_hashes()
    by_hash = {}
    for node, seq in sequences.items():
        by_hash.setdefault((len(seq), hashes[node]), set()).add(seq)
    for key, distinct in by_hash.items():
        assert len(distinct) == 1, f"hash collision across sequences: {key}"


def test_as_collector_passes_table1_checks():
    """A flat run feeds the existing metrics pipeline unchanged."""
    cluster = _run_flat("sequences")
    collector = cluster.as_collector()
    assert collector.sequences() == cluster.sequences()
    report = check_run(collector)
    assert report.safety_ok, report.summary()


# ----------------------------------------------------------------------
# Ball representation: {event id: ttl}, shared and never mutated, one
# calendar entry per node-round's fan-out
# ----------------------------------------------------------------------


def _ball_entries(sim: FlatEngine) -> list:
    return [
        entry
        for bucket in sim._calendar.values()
        for entry in bucket
        if entry[0] == _OP_BALL
    ]


def test_ball_in_flight_is_never_mutated():
    """What a late receiver sees is what was sent.

    Copies of one ball arrive up to 15 ticks apart; in between, earlier
    receivers merged it, re-aged it and cleared their pending balls,
    and the sender's own ordering round consumed it. TTL 3 makes
    entries expire, so the filtered ``live`` dict is covered as well as
    the shared ``ball``.
    """
    config = _config(fanout=3, ttl=3, interval=20)
    ttl = config.epto.ttl
    sim = FlatEngine(seed=9)
    net = FlatNetwork(sim, latency=UniformLatency(1, 15))
    cluster = FlatCluster(sim, net, config)
    cluster.add_nodes(8)
    for node in range(4):
        sim.schedule_at(5 + node, lambda nd=node: cluster.broadcast_from(nd, nd))
    sent = []  # (the dict in flight, its entries as sent)
    seen = set()
    expired = 0
    for r in range(1, 9):
        sim.run(until=r * 20 - 1)  # every ball of round r-1 has landed
        pending = {
            node: dict(cluster._next_ball[node]) for node in cluster.alive_ids()
        }
        sim.run(until=r * 20)  # round r: every node ages, sends, orders
        for _op, src, _dsts, live, _max_ts in _ball_entries(sim):
            if id(live) in seen:
                continue
            seen.add(id(live))
            expected = [
                (eid, t + 1) for eid, t in pending[src].items() if t + 1 < ttl
            ]
            assert list(live.items()) == expected
            sent.append((live, expected))
            expired += len(pending[src]) - len(expected)
    sim.run(until=10 * 20)
    assert len(sent) > 8 and expired > 0
    for live, expected in sent:
        assert list(live.items()) == expected


def test_one_calendar_entry_per_node_round_counts_every_copy():
    n = 64
    config = _config(fanout=5, ttl=8, interval=20)
    sim = FlatEngine(seed=3)
    net = FlatNetwork(sim, latency=FixedLatency(1))
    cluster = FlatCluster(sim, net, config)
    cluster.add_nodes(n)
    for node in range(n):
        cluster.broadcast_from(node)
    sim.run(until=20)  # one synchronized round: every node relays
    bucket = sim._calendar[21]
    assert len(bucket) <= n
    assert all(entry[0] == _OP_BALL for entry in bucket)
    assert net.stats.sent == n * 5
    before = sim.executed_count
    sim.run(until=21)
    assert sim.executed_count - before == n * 5
    assert net.stats.delivered == n * 5


@pytest.mark.parametrize("latency", [FixedLatency(3), UniformLatency(1, 25)])
def test_unfiltered_send_path_equals_filtered_path(latency):
    """The no-fault send path skips the per-destination filter.

    A ``duplicate_rate`` of the smallest positive float never fires and
    draws only from the separate ``network.loss`` stream, but forces
    every send through the filter: both runs must agree exactly.
    """

    def run(duplicate_rate: float):
        config = _config(
            fanout=4, ttl=6, clock="logical", drift=UniformDrift(0.05)
        )
        sim = FlatEngine(seed=21)
        net = FlatNetwork(sim, latency=latency, duplicate_rate=duplicate_rate)
        cluster = FlatCluster(sim, net, config)
        cluster.add_nodes(20)
        for r in range(1, 9):
            sim.schedule_at(
                r * 20 + 7, lambda nd=r % 20: cluster.broadcast_from(nd, nd)
            )
        sim.schedule_at(102, lambda: cluster.remove_node(13))
        sim.run(until=24 * 20)
        return cluster

    plain = run(0.0)
    filtered = run(math.ulp(0.0))
    assert filtered.network.stats.duplicated == 0
    assert filtered.sequences() == plain.sequences()
    assert filtered.deliveries() == plain.deliveries()
    assert filtered.network.stats == plain.network.stats
    assert plain.network.stats.dropped_dead > 0
    assert plain.delivered_total >= 8 * 19


# ----------------------------------------------------------------------
# Copy memo: the balls a node merged since its last round
# ----------------------------------------------------------------------


def test_copy_memo_is_emptied_by_every_round_and_stays_bounded():
    """Every round of a node empties its memo, whether or not its
    pending ball is empty, and crash and respawn drop it.

    Under the global clock a round whose entries all reach the TTL
    still ships its empty live map. After the last broadcast the run
    stays quiet for long enough that every node merges such empty balls
    and then has nothing pending: a memo emptied only by rounds that
    relay something would keep them for good. Between its rounds a node
    hears each of its ``n - 1`` peers at most once, so no memo ever
    holds more than ``n - 1`` balls.
    """
    n = 12
    config = _config(fanout=4, ttl=5, interval=20)
    sim = FlatEngine(seed=5)
    cluster = FlatCluster(sim, FlatNetwork(sim, latency=FixedLatency(1)), config)
    cluster.add_nodes(n)
    memos = cluster._absorbed
    seen = {"rounds": 0, "largest": 0, "empty_balls": 0}
    run_rounds = cluster._run_round_batch
    receive_balls = cluster._receive_ball_batch

    def rounds_then_check(bucket, start):
        seen["largest"] = max(
            [seen["largest"]] + [len(memo) for memo in memos if memo is not None]
        )
        consumed = run_rounds(bucket, start)
        for _op, node, incarnation in bucket[start : start + consumed]:
            if cluster._incarnation[node] == incarnation:
                assert memos[node] == {}
                seen["rounds"] += 1
        return consumed

    def receive_and_count(bucket, start):
        consumed, copies = receive_balls(bucket, start)
        seen["empty_balls"] += sum(
            1 for entry in bucket[start : start + consumed] if not entry[3]
        )
        return consumed, copies

    cluster._run_round_batch = rounds_then_check
    cluster._receive_ball_batch = receive_and_count
    for r in range(1, 5):
        sim.schedule_at(r * 20 + 3, lambda nd=r: cluster.broadcast_from(nd))
    sim.schedule_at(50, lambda: cluster.crash_node(7))
    sim.run(until=55)
    assert memos[7] is None
    sim.schedule_at(70, lambda: cluster.respawn_node(7))
    sim.schedule_at(75, lambda: cluster.broadcast_from(7))
    sim.run(until=200 * 20)
    assert seen["rounds"] >= 190 * n
    assert seen["empty_balls"] > 0
    assert 0 < seen["largest"] <= n - 1
    assert all(memo == {} for memo in memos)
