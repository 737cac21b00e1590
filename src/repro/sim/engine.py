"""Deterministic discrete-event simulation engine (paper §6).

The paper's evaluation uses "a realistic discrete simulator [...] using
a priority queue and a monotonically increasing integer to represent
the passage of time, i.e., a tick". This module is that engine:

* time is an integer tick counter, advanced only by popping the next
  scheduled action off a heap;
* ties are broken by insertion order, so a run is a pure function of
  ``(seed, configuration)`` — no wall-clock, no hash-order dependence;
* every piece of randomness in a simulation flows through
  :attr:`Simulator.rng` (or generators forked from it via
  :meth:`Simulator.fork_rng`), keeping runs reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, List

from ..core.errors import SimulationError

#: Scheduled actions take no arguments; close over what you need.
Action = Callable[[], None]


#: Heap entry ``[time, seq, action]``, exposed only through
#: :class:`Handle`. A plain list, so ``heapq`` compares entries in C;
#: ``seq`` is unique, so a comparison never reaches the action. Slot 2
#: is ``None`` once the action was cancelled or has run.
_Entry = list


class Handle:
    """Cancellation handle returned by :meth:`Simulator.schedule`."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the action from running (idempotent)."""
        self._entry[2] = None

    @property
    def cancelled(self) -> bool:
        """Whether the action was cancelled or already executed."""
        return self._entry[2] is None

    @property
    def time(self) -> int:
        """Tick at which the action is (was) due."""
        return self._entry[0]


class Simulator:
    """Priority-queue discrete-event simulator with integer ticks.

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
        self._queue: List[_Entry] = []
        self._time = 0
        self._seq = itertools.count()
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
        entry = [int(time), next(self._seq), action]
        heapq.heappush(self._queue, entry)
        return Handle(entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) future actions."""
        return len(self._queue)

    @property
    def executed(self) -> int:
        """Number of actions executed so far."""
        return self._executed

    def step(self) -> bool:
        """Execute the next scheduled action.

        Returns:
            ``True`` if an action ran, ``False`` if the queue is empty.
            Cancelled entries are skipped transparently.
        """
        while self._queue:
            entry = heapq.heappop(self._queue)
            action = entry[2]
            if action is None:
                continue  # cancelled
            self._time = entry[0]
            entry[2] = None
            self._executed += 1
            action()
            return True
        return False

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
        executed_here = 0
        try:
            while self._queue:
                entry = self._queue[0]
                if entry[2] is None:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed_here >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at tick {self._time}"
                    )
                self.step()
                executed_here += 1
            if until is not None and self._time < until:
                self._time = until
        finally:
            self._running = False

    def run_for(self, ticks: int) -> None:
        """Advance the simulation by *ticks* from the current time."""
        self.run(until=self._time + ticks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Simulator(t={self._time}, pending={len(self._queue)}, "
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
        self._handle = sim.schedule(initial_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            period = max(1, int(self._period_source()))
            self._handle = self._sim.schedule(period, self._fire)

    def stop(self) -> None:
        """Stop the task permanently (idempotent)."""
        self._stopped = True
        self._handle.cancel()

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was called."""
        return self._stopped
