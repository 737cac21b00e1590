"""Deterministic workloads for the ordering-hot-path perf harness.

Everything here is seeded: the same ``(n, seed)`` pair always produces
the same schedule of balls, so timing runs are comparable across
machines and the metrics embedded in ``BENCH_core.json`` are
bit-reproducible (asserted by the determinism test in
``tests/sim/test_bench_determinism.py``).

The ordering workload models what a process actually sees at steady
state: every round a ball arrives carrying mostly-fresh events from
many sources, a few duplicates of recently seen events (relayed copies
with further-aged TTLs, exercising the merge path), and the occasional
stale event whose delivery window has passed (exercising the late
path). Arrivals are spread over ``n / BALL_SIZE`` rounds so the
``received`` map stays populated with O(BALL_SIZE * TTL) events — the
regime where the seed implementation's per-round full scans hurt and
the frontier/heap structures in :mod:`repro.core.ordering` win.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.clock import GlobalClockOracle
from repro.core.event import Ball, Event
from repro.core.ordering import OrderingComponent

#: Stability threshold used by every ordering workload.
TTL = 30
#: Fresh events per round; arrivals span ``n / BALL_SIZE`` rounds.
BALL_SIZE = 16
#: Distinct broadcasting sources (tie-breaker diversity).
SOURCES = 32
#: Safety cap on drain rounds after arrivals stop.
DRAIN_CAP = 3 * TTL + 10


def build_ordering_schedule(n: int, seed: int) -> List[Ball]:
    """Build the per-round ball schedule carrying *n* fresh events."""
    rng = random.Random(f"perf-ordering:{n}:{seed}")
    seqs = [0] * SOURCES
    rounds = max(1, n // BALL_SIZE)
    recent: List[Event] = []
    schedule: List[Ball] = []
    made = 0
    for r in range(rounds):
        entries: List[Tuple[Event, int]] = []
        while made < n and len(entries) < BALL_SIZE:
            src = rng.randrange(SOURCES)
            seq = seqs[src]
            seqs[src] += 1
            if rng.random() < 0.02:
                # Stale timestamp: by the time this arrives the order
                # mark has advanced past it (late-discard path).
                ts = max(0, 2 * (r - TTL - 5))
            else:
                ts = 2 * r + rng.randrange(3)
            event = Event(id=(src, seq), ts=ts, source_id=src, payload=None)
            entries.append((event, rng.randrange(3)))
            recent.append(event)
            made += 1
        # Relayed copies of recent events, aged further elsewhere; a ball
        # names an id once, so a copy of an event already in this
        # round's ball is skipped (its draws are still taken).
        for _ in range(2):
            if recent and rng.random() < 0.5:
                back = rng.randrange(1, min(len(recent), 5 * BALL_SIZE) + 1)
                dup = recent[-back]
                ttl = rng.randrange(TTL // 2)
                if all(event.id != dup.id for event, _ in entries):
                    entries.append((dup, ttl))
        schedule.append(Ball.of(entries))
    return schedule


def new_ordering() -> Tuple[OrderingComponent, List[Event]]:
    """A fresh live ordering component plus its delivery sink."""
    delivered: List[Event] = []
    oracle = GlobalClockOracle(ttl=TTL, time_source=lambda: 0)
    component = OrderingComponent(oracle, delivered.append)
    return component, delivered


def run_round_loop(component, schedule: List[Ball]) -> None:
    """Drive *component* through *schedule*, then drain to empty.

    The drain phase feeds empty balls — the quiet-round case the lazy
    structures optimize — until everything pending has been delivered
    (bounded by :data:`DRAIN_CAP` as a safety net).
    """
    order_events = component.order_events
    for ball in schedule:
        order_events(ball)
    empty = Ball({}, {})
    for _ in range(DRAIN_CAP):
        if not component.received_count:
            break
        order_events(empty)


def ordering_metrics(component, delivered: List[Event]) -> dict:
    """Deterministic counters describing one round-loop run."""
    stats = component.stats
    return {
        "delivered": len(delivered),
        "discarded_duplicates": stats.discarded_duplicates,
        "discarded_late": stats.discarded_late,
        "rounds": stats.rounds,
    }


def build_codec_ball(entries: int, seed: int) -> Ball:
    """A ball of *entries* events with small JSON payloads."""
    rng = random.Random(f"perf-codec:{entries}:{seed}")
    ball = []
    for i in range(entries):
        src = rng.randrange(SOURCES)
        event = Event(
            id=(src, i),
            ts=i,
            source_id=src,
            payload={"k": i, "v": rng.randrange(1_000_000)},
        )
        ball.append((event, rng.randrange(TTL)))
    return Ball.of(ball)
