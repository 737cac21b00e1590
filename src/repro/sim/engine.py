"""Deterministic discrete-event simulation engine (paper §6).

The paper's evaluation uses "a realistic discrete simulator [...] using
a priority queue and a monotonically increasing integer to represent
the passage of time, i.e., a tick". This module is that engine:

* time is an integer tick counter, advanced only by running the next
  scheduled action off the calendar;
* ties are broken by insertion order, so a run is a pure function of
  ``(seed, configuration)`` — no wall-clock, no hash-order dependence;
* every piece of randomness in a simulation flows through
  :attr:`Simulator.rng` (or generators forked from it via
  :meth:`Simulator.fork_rng`), keeping runs reproducible.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Callable, Dict, List

from ..core.errors import SimulationError

#: Scheduled actions take no arguments; close over what you need.
Action = Callable[[], None]


class Handle:
    """Cancellation handle returned by :meth:`Simulator.schedule`.

    It is also the calendar's entry for the action: the simulator keeps
    the handle itself in the bucket of its tick.
    """

    __slots__ = ("_action", "_time")

    def __init__(self, action: Action | None, time: int) -> None:
        #: The action, or ``None`` once it was cancelled or has run.
        self._action = action
        self._time = time

    def cancel(self) -> None:
        """Prevent the action from running (idempotent)."""
        self._action = None

    @property
    def cancelled(self) -> bool:
        """Whether the action was cancelled or already executed."""
        return self._action is None

    @property
    def time(self) -> int:
        """Tick at which the action is (was) due."""
        return self._time


class Simulator:
    """Discrete-event simulator with integer ticks.

    The queue is a calendar: ``{tick: [Handle, ...]}`` plus a min-heap
    of the ticks that hold a bucket. A bucket keeps its actions in the
    order they were scheduled, which is the ``(time, insertion order)``
    order a heap of ``(time, seq)`` entries pops them in, so one heap
    operation serves a whole tick rather than one per action.

    Args:
        seed: Seed for the simulation-wide random generator. Two
            simulators created with the same seed and fed the same
            schedule produce bit-identical runs.

    Example:
        >>> sim = Simulator(seed=42)
        >>> fired = []
        >>> _ = sim.schedule(10, lambda: fired.append(sim.now()))
        >>> sim.run()
        >>> fired
        [10]
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._seed = seed
        self._calendar: Dict[int, List[Handle]] = {}
        self._ticks: List[int] = []
        self._time = 0
        self._executed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Time and randomness
    # ------------------------------------------------------------------

    def now(self) -> int:
        """Current simulation time in ticks."""
        return self._time

    def fork_rng(self, label: str) -> random.Random:
        """Derive an independent, reproducible random stream.

        Distinct subsystems (network loss, latency sampling, workload,
        churn, per-node peer selection...) should each own a forked
        stream so that changing how one subsystem consumes randomness
        does not perturb the others across runs.
        """
        return random.Random(f"{self._seed}:{label}")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: int, action: Action) -> Handle:
        """Run *action* ``delay`` ticks from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._time + int(delay), action)

    def schedule_at(self, time: int, action: Action) -> Handle:
        """Run *action* at absolute tick *time* (``time >= now()``)."""
        if time < self._time:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._time}"
            )
        time = int(time)
        handle = Handle(action, time)
        bucket = self._calendar.get(time)
        if bucket is None:
            self._calendar[time] = [handle]
            heappush(self._ticks, time)
        else:
            bucket.append(handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) future actions."""
        return sum(map(len, self._calendar.values()))

    @property
    def executed(self) -> int:
        """Number of actions executed so far."""
        return self._executed

    def step(self) -> bool:
        """Execute the next scheduled action.

        Returns:
            ``True`` if an action ran, ``False`` if the queue is empty.
            Cancelled entries are skipped transparently.

        Like :meth:`run`, not from inside an action.
        """
        if self._running:
            raise SimulationError("step() is not reentrant")
        self._running = True
        try:
            return self._fire(None, 1) == 1
        finally:
            self._running = False

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally bounded in time or event count.

        Args:
            until: Stop once the next action is strictly after this
                tick (the clock is then advanced to ``until``).
            max_events: Safety bound on the number of actions executed
                by *this call*; exceeding it raises
                :class:`~repro.core.errors.SimulationError`, which
                usually signals a runaway self-rescheduling loop.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if self._fire(until, max_events) == max_events and self._due(until):
                raise SimulationError(
                    f"exceeded max_events={max_events} at tick {self._time}"
                )
            if until is not None and self._time < until:
                self._time = until
        finally:
            self._running = False

    def _fire(self, until: int | None, limit: int | None) -> int:
        """Pop and run due actions in calendar order: those at or
        before *until* (all when ``None``), at most *limit* of them (no
        bound when ``None``). Cancelled entries met on the way are
        dropped. Returns how many actions ran.

        The one pop-and-fire loop behind :meth:`step` and :meth:`run`.
        A bucket stays in the calendar while it runs, so an action
        scheduled at the current tick is appended to it — after the
        tick's remaining actions, where its insertion order puts it —
        and the index loop reaches it.
        """
        calendar, ticks = self._calendar, self._ticks
        fired = 0
        bucket: List[Handle] = []
        index = 0
        try:
            while ticks:
                time = ticks[0]
                if until is not None and time > until:
                    break
                bucket = calendar[time]
                index = 0
                while index < len(bucket):
                    handle = bucket[index]
                    action = handle._action
                    if action is None:
                        index += 1  # cancelled
                        continue
                    if fired == limit:
                        return fired
                    index += 1
                    self._time = time
                    handle._action = None
                    self._executed += 1
                    action()
                    fired += 1
                heappop(ticks)
                del calendar[time]
                index = 0
            return fired
        finally:
            # A tick left early (the limit, a raising action) keeps what
            # it has not reached.
            del bucket[:index]

    def _due(self, until: int | None) -> bool:
        """Whether an action that was not cancelled is due at or before
        *until* (at all when ``None``). Cancelled entries met on the way
        are dropped."""
        calendar, ticks = self._calendar, self._ticks
        while ticks:
            time = ticks[0]
            bucket = calendar[time]
            live = next(
                (i for i, handle in enumerate(bucket) if handle._action is not None),
                None,
            )
            if live is not None:
                del bucket[:live]
                return until is None or time <= until
            heappop(ticks)
            del calendar[time]
        return False

    def run_for(self, ticks: int) -> None:
        """Advance the simulation by *ticks* from the current time."""
        self.run(until=self._time + ticks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(t={self._time}, pending={self.pending}, "
            f"executed={self._executed})"
        )


class PeriodicTask:
    """Self-rescheduling periodic action with optional per-period jitter.

    Models the paper's round task: "processes execute at time
    ``now() + delta ± Delta``" where ``Delta`` is the process drift
    (§6). The next period is sampled independently each time through
    ``period_source``, so drift does not accumulate bias.

    Args:
        sim: Host simulator.
        action: Zero-argument callable to run every period.
        period_source: Callable returning the next period length in
            ticks (e.g. a :class:`repro.sim.drift.DriftModel` bound to
            a node).
        initial_delay: Ticks before the first execution.
    """

    def __init__(
        self,
        sim: Simulator,
        action: Action,
        period_source: Callable[[], int],
        initial_delay: int = 0,
    ) -> None:
        self._sim = sim
        self._action = action
        self._period_source = period_source
        self._stopped = False
        self._handle = sim.schedule(initial_delay, self)

    def __call__(self) -> None:
        """One period. The task is its own scheduled action, so a period
        allocates no bound method."""
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            period = max(1, int(self._period_source()))
            self._handle = self._sim.schedule(period, self)

    def stop(self) -> None:
        """Stop the task permanently (idempotent)."""
        self._stopped = True
        self._handle.cancel()

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was called."""
        return self._stopped
