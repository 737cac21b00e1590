"""A seeded steady-state schedule through the live ordering component.

Each round a ball brings up to 16 fresh events from 32 sources, at
times a relayed copy of a recent event aged further elsewhere, and now
and then an event stamped far behind the others; then empty rounds
drain what is pending. What comes out is pinned, so a change to the
merge, the stability test or the late guard moves a count. At 256
events every stale stamp arrives before the order mark passes it.
"""

from __future__ import annotations

import random

from repro.core.clock import GlobalClockOracle
from repro.core.event import Ball, Event
from repro.core.ordering import OrderingComponent

TTL, BALL_SIZE, SOURCES = 30, 16, 32


def build_schedule(n, seed):
    """The per-round balls carrying *n* fresh events."""
    rng = random.Random(f"perf-ordering:{n}:{seed}")
    seqs = [0] * SOURCES
    recent, schedule = [], []
    for r in range(max(1, n // BALL_SIZE)):
        entries = []
        while len(recent) < n and len(entries) < BALL_SIZE:
            src = rng.randrange(SOURCES)
            seqs[src] += 1
            if rng.random() < 0.02:
                ts = max(0, 2 * (r - TTL - 5))
            else:
                ts = 2 * r + rng.randrange(3)
            event = Event(id=(src, seqs[src] - 1), ts=ts, source_id=src)
            entries.append((event, rng.randrange(3)))
            recent.append(event)
        # A ball names an id once: a copy of an event already in this
        # round's ball is skipped (its draws are still taken).
        for _ in range(2):
            if recent and rng.random() < 0.5:
                copy = recent[-rng.randrange(1, min(len(recent), 5 * BALL_SIZE) + 1)]
                ttl = rng.randrange(TTL // 2)
                if all(event.id != copy.id for event, _ in entries):
                    entries.append((copy, ttl))
        schedule.append(Ball.of(entries))
    return schedule


def test_the_seeded_schedule_is_pinned():
    delivered = []
    component = OrderingComponent(
        GlobalClockOracle(ttl=TTL, time_source=lambda: 0), delivered.append
    )
    for ball in build_schedule(256, seed=13):
        component.order_events(ball)
    for _ in range(3 * TTL + 10):
        if not component.received_count:
            break
        component.order_events(Ball({}, {}))

    stats = component.stats
    assert (
        len(delivered), stats.discarded_duplicates, stats.discarded_late, stats.rounds
    ) == (256, 0, 0, 47)
    keys = [event.order_key for event in delivered]
    assert keys == sorted(set(keys))
