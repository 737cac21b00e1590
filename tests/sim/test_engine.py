"""Unit tests for the discrete-event engine (repro.sim.engine)."""

from __future__ import annotations

import pytest

from repro.core.errors import SimulationError
from repro.sim.engine import PeriodicTask, Simulator


class TestScheduling:
    def test_actions_run_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append("late"))
        sim.schedule(10, lambda: fired.append("early"))
        sim.schedule(20, lambda: fired.append("middle"))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in ("a", "b", "c"):
            sim.schedule(5, lambda label=label: fired.append(label))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_tie_never_compares_the_actions(self):
        # Actions due at one tick wait in that tick's bucket in the
        # order they were scheduled; they are never compared with each
        # other (most callables cannot be).
        class Uncomparable:
            def __init__(self, label):
                self.label = label

            def __call__(self):
                fired.append(self.label)

            def __lt__(self, other):  # pragma: no cover - must not run
                raise AssertionError("actions were compared")

            __gt__ = __le__ = __ge__ = __eq__ = __lt__
            __hash__ = object.__hash__

        sim = Simulator()
        fired = []
        for label in "dcba":
            sim.schedule(5, Uncomparable(label))
            sim.schedule_at(5, Uncomparable(label.upper()))
        sim.run()
        assert fired == ["d", "D", "c", "C", "b", "B", "a", "A"]

    def test_now_advances_with_execution(self):
        sim = Simulator()
        seen = []
        sim.schedule(7, lambda: seen.append(sim.now()))
        sim.schedule(11, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [7, 11]
        assert sim.now() == 11

    def test_actions_can_schedule_more_actions(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now()))
            sim.schedule(5, lambda: fired.append(("second", sim.now())))

        sim.schedule(10, first)
        sim.run()
        assert fired == [("first", 10), ("second", 15)]

    def test_an_action_for_the_running_tick_runs_after_those_queued(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0, lambda: fired.append("scheduled by first"))
            sim.schedule_at(5, lambda: fired.append("at 5 by first"))

        sim.schedule(5, first)
        sim.schedule(5, lambda: fired.append("second"))
        sim.schedule(6, lambda: fired.append("next tick"))
        sim.run()
        assert fired == [
            "first",
            "second",
            "scheduled by first",
            "at 5 by first",
            "next tick",
        ]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_zero_delay_runs_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: sim.schedule(0, lambda: fired.append(sim.now())))
        sim.run()
        assert fired == [10]


class TestCancellation:
    def test_cancelled_action_never_runs(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_handle_reports_due_time_and_execution(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert handle.time == 10 and not handle.cancelled
        sim.run()
        # "cancelled or already executed", as the property says.
        assert handle.cancelled and handle.time == 10

    def test_cancel_after_pop_is_harmless(self):
        sim = Simulator()
        fired = []
        handles = []

        def first():
            fired.append("first")
            # Its own entry has been popped and is running: cancelling
            # it now must neither raise nor disturb the entries behind.
            handles[0].cancel()

        handles.append(sim.schedule(5, first))
        handles.append(sim.schedule(5, lambda: fired.append("second")))
        sim.run()
        handles[0].cancel()
        assert fired == ["first", "second"]
        assert sim.executed == 2 and sim.pending == 0

    def test_cancel_within_the_tick_by_an_earlier_action(self):
        sim = Simulator()
        fired = []
        handles = []
        sim.schedule(5, lambda: handles[0].cancel())
        handles.append(sim.schedule(5, lambda: fired.append("cancelled")))
        sim.schedule(5, lambda: fired.append("kept"))
        sim.run()
        assert fired == ["kept"]
        assert sim.executed == 2  # a cancelled entry is not an action run


class TestRunBounds:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        assert sim.now() == 50
        sim.run()
        assert fired == [10, 100]

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run_for(25)
        assert sim.now() == 25
        sim.run_for(25)
        assert sim.now() == 50

    def test_max_events_guards_runaway_loops(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_counts_actions_run_by_this_call(self):
        sim = Simulator()
        fired = []
        for index in range(4):
            sim.schedule(index, lambda index=index: fired.append(index))
        sim.schedule(1, lambda: None).cancel()  # not an action run
        sim.run(until=1, max_events=2)
        assert fired == [0, 1]
        with pytest.raises(SimulationError):
            sim.run(max_events=1)
        assert fired == [0, 1, 2]  # the bound stops the one after it
        sim.run(max_events=1)
        assert fired == [0, 1, 2, 3] and sim.executed == 4

    def test_a_run_stopped_inside_a_tick_resumes_where_it_stopped(self):
        sim = Simulator()
        fired = []
        for index in range(4):
            sim.schedule(5, lambda index=index: fired.append(index))
        with pytest.raises(SimulationError):
            sim.run(max_events=2)
        assert fired == [0, 1] and sim.pending == 2 and sim.now() == 5
        assert sim.step() and fired == [0, 1, 2]
        sim.run()
        assert fired == [0, 1, 2, 3] and sim.pending == 0

    def test_an_action_that_raises_has_run(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(5, lambda: fired.append("before"))
        sim.schedule(5, boom)
        sim.schedule(5, lambda: fired.append("after"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["before"] and sim.pending == 1
        sim.run()
        assert fired == ["before", "after"] and sim.executed == 3

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_step_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, nested)
        sim.schedule(1, lambda: errors.append("second"))
        assert sim.step() and len(errors) == 1
        sim.run()
        assert errors[1:] == ["second"]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert not sim.step()
        sim.schedule(1, lambda: None)
        assert sim.step()
        assert not sim.step()


class TestDeterminism:
    def test_same_seed_same_randomness(self):
        a, b = Simulator(seed=9), Simulator(seed=9)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_fork_rng_is_reproducible_and_label_scoped(self):
        a, b = Simulator(seed=9), Simulator(seed=9)
        assert a.fork_rng("x").random() == b.fork_rng("x").random()
        assert a.fork_rng("x").random() != a.fork_rng("y").random()

    def test_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.executed == 5


class TestPeriodicTask:
    def test_fires_periodically(self):
        sim = Simulator()
        fired = []
        PeriodicTask(sim, lambda: fired.append(sim.now()), lambda: 10)
        sim.run(until=35)
        assert fired == [0, 10, 20, 30]

    def test_initial_delay(self):
        sim = Simulator()
        fired = []
        PeriodicTask(sim, lambda: fired.append(sim.now()), lambda: 10, initial_delay=5)
        sim.run(until=30)
        assert fired == [5, 15, 25]

    def test_stop_halts_refiring(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, lambda: fired.append(sim.now()), lambda: 10)
        sim.schedule(25, task.stop)
        sim.run(until=100)
        assert fired == [0, 10, 20]
        assert task.stopped

    def test_variable_period(self):
        sim = Simulator()
        fired = []
        periods = iter([10, 20, 40, 100])
        PeriodicTask(sim, lambda: fired.append(sim.now()), lambda: next(periods))
        sim.run(until=75)
        assert fired == [0, 10, 30, 70]

    def test_minimum_period_is_one(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, lambda: fired.append(sim.now()), lambda: 0)
        sim.run(until=3)
        task.stop()
        assert fired == [0, 1, 2, 3]
