"""Property-based tests for the discrete-event engine."""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
def test_execution_times_are_monotone(delays):
    """Whatever the schedule, observed time never goes backwards."""
    sim = Simulator()
    observed: List[int] = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now()))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.booleans()),
        max_size=30,
    )
)
def test_cancelled_never_run_others_always_run(schedule: List[Tuple[int, bool]]):
    sim = Simulator()
    ran: List[int] = []
    handles = []
    for idx, (delay, cancel) in enumerate(schedule):
        handles.append((sim.schedule(delay, lambda idx=idx: ran.append(idx)), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    # Time order, ties by insertion order: a stable sort on the delay.
    expected = [
        idx
        for idx, (_, cancel) in sorted(enumerate(schedule), key=lambda s: s[1][0])
        if not cancel
    ]
    assert ran == expected
    assert sim.executed == len(expected)
    assert all(handle.cancelled for handle, _ in handles)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
)
def test_runs_are_reproducible(seed, delays):
    """Identical (seed, schedule) -> identical event interleaving and RNG."""

    def run_once():
        sim = Simulator(seed=seed)
        trace: List[Tuple[int, float]] = []
        for delay in delays:
            sim.schedule(delay, lambda: trace.append((sim.now(), sim.rng.random())))
        sim.run()
        return trace

    assert run_once() == run_once()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=250),
)
def test_run_until_partitions_execution(delays, cut):
    """run(until=t) then run() executes exactly the same set as run()."""
    sim = Simulator()
    ran: List[int] = []
    for delay in delays:
        sim.schedule(delay, lambda delay=delay: ran.append(delay))
    sim.run(until=cut)
    assert all(d <= cut for d in ran)
    sim.run()
    assert sorted(ran) == sorted(delays)
