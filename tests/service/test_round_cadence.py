"""Round cadence of :class:`BroadcastService` against a fake clock.

The paper assumes rounds of equal duration. The host's round timer must
therefore keep its period whatever a tick costs and however late the
loop wakes it, must not fire the rounds a long stall swallowed, and
hosts started in one instant must not share a phase.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import EpToConfig
from repro.runtime.transport import AsyncNetwork
from repro.service import BroadcastService
from repro.service import service as service_module

DELTA = 0.1  # seconds; EpToConfig carries it in milliseconds


class _FakeTimer:
    def __init__(self, when, callback, args):
        self.when, self.callback, self.args = when, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """Stands in for ``asyncio`` inside ``repro.service.service``, and for
    the loop the host's round timer is set on: its clock only moves when
    a timer waits (to the time it was set for, plus whatever lateness
    the test queued) or a tick "costs". A timer fires on the next turn
    of the real loop."""

    def __init__(self) -> None:
        self.now = 1000.0
        self.late: list[float] = []  # oversleep of the next waits, in order

    def __getattr__(self, name):
        return getattr(asyncio, name)

    def get_running_loop(self):
        return self

    def time(self) -> float:
        return self.now

    def call_at(self, when, callback, *args):
        timer = _FakeTimer(when, callback, args)
        asyncio.get_running_loop().call_soon(self._fire, timer)
        return timer

    def call_later(self, delay, callback, *args):
        return self.call_at(self.now + delay, callback, *args)

    def _fire(self, timer):
        if timer.cancelled:
            return
        if timer.when > self.now:
            self.now = timer.when + (self.late.pop(0) if self.late else 0.0)
        timer.callback(*timer.args)


def _host(network, host_id=0, seed=5):
    config = EpToConfig.for_system_size(4, round_interval=int(DELTA * 1000))
    return BroadcastService(host_id=host_id, config=config, network=network, seed=seed)


def _record_ticks(host, clock, tick_cost=0.0):
    """Make every round of *host* note the fake-clock time it ran at
    and then "cost" *tick_cost* seconds (a number, or a function of the
    round's ordinal); returns the list the times are appended to."""
    times = []
    tick = host._tick_topics  # noqa: SLF001 - the round timer's own entry

    def timed_tick(topics):
        times.append(clock.now)
        tick(topics)
        clock.now += tick_cost(len(times)) if callable(tick_cost) else tick_cost

    host._tick_topics = timed_tick  # noqa: SLF001
    return times


async def _tick_times(host, clock, rounds, tick_cost=0.0):
    """Start *host* and return the times of its first *rounds* ticks."""
    times = _record_ticks(host, clock, tick_cost)
    host.start()
    while len(times) < rounds:
        await asyncio.sleep(0)
    host.abort()
    return times


@pytest.fixture
def clock(monkeypatch):
    fake = FakeLoop()
    monkeypatch.setattr(service_module, "asyncio", fake)
    return fake


def _periods(times):
    return [round(b - a, 9) for a, b in zip(times, times[1:])]


class TestPeriod:
    def test_a_slow_tick_does_not_stretch_the_period(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5))
            host.open_topic(1)
            return await _tick_times(host, clock, rounds=6, tick_cost=0.03)

        times = asyncio.run(scenario())
        assert _periods(times) == [DELTA] * 5

    def test_a_late_wakeup_is_not_carried_into_later_rounds(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5))
            host.open_topic(1)
            clock.late = [0.0, 0.04, 0.0, 0.02]
            return await _tick_times(host, clock, rounds=6)

        times = asyncio.run(scenario())
        # Round 2 ran 40 ms late and round 4 20 ms late; the rounds
        # after them are back on the grid, not 40 and 60 ms behind it.
        grid = [round(t - times[0], 9) for t in times]
        assert grid == [0.0, 0.14, 0.2, 0.32, 0.4, 0.5]

    def test_a_long_stall_is_not_followed_by_catch_up_rounds(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5))
            host.open_topic(1)
            clock.late = [0.0, 3.5 * DELTA]
            return await _tick_times(host, clock, rounds=5)

        times = asyncio.run(scenario())
        # One late round, then the next one the grid has: the three
        # rounds the stall swallowed are skipped, never fired in a burst.
        assert _periods(times) == [4.5 * DELTA, 0.5 * DELTA, DELTA, DELTA]

    def test_hosts_that_stall_together_keep_their_own_phases(self, clock):
        # All hosts of one process wake from one stall in the same
        # instant. Re-anchoring each at "now" would phase-lock the
        # cluster for good (every hop a full interval, TTL growing one
        # per round: 2.5x the latency and 3x the bytes on svc_topics).
        def after_stall(host_id):
            async def scenario():
                host = _host(AsyncNetwork(seed=5), host_id=host_id)
                host.open_topic(1)
                started = clock.now
                clock.late = [0.0, 0.0, 7.3 * DELTA - (clock.now % DELTA)]
                times = await _tick_times(host, clock, rounds=6)
                return [round((t - started) % DELTA, 6) for t in times]

            return asyncio.run(scenario())

        first, second = after_stall(1), after_stall(2)
        assert first[0] != second[0]
        # Rounds after the late one are back at the phase of the first.
        assert first[3:] == [first[0]] * 3
        assert second[3:] == [second[0]] * 3

    def test_a_tick_longer_than_the_interval_does_not_pile_up(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5))
            host.open_topic(1)
            cost = lambda n: 2.5 * DELTA if n == 2 else 0.0  # noqa: E731
            return await _tick_times(host, clock, rounds=6, tick_cost=cost)

        times = asyncio.run(scenario())
        assert min(_periods(times)) > 0
        assert _periods(times)[-2:] == [DELTA, DELTA]

    def test_an_overridden_topic_keeps_its_own_absolute_cadence(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5))
            fast = host.open_topic(1, round_interval=20)
            slow = host.open_topic(2)
            await _tick_times(host, clock, rounds=26, tick_cost=0.005)
            return fast.rounds_ticked, slow.rounds_ticked

        fast, slow = asyncio.run(scenario())
        # 5 ms ticks on a 20 ms cadence: a drifting loop would have run
        # the fast topic at 25 ms and counted ~4 per slow round, not 5.
        assert slow >= 4 and abs(fast - 5 * slow) <= 5


    def test_a_tick_that_aborts_its_host_is_its_last(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5))
            host.open_topic(1)
            ticks = []
            tick = host._tick_topics  # noqa: SLF001

            def aborting_tick(topics):
                ticks.append(clock.now)
                tick(topics)
                host.abort()

            host._tick_topics = aborting_tick  # noqa: SLF001
            host.start()
            for _ in range(20):
                await asyncio.sleep(0)
            return len(ticks), host.running

        assert asyncio.run(scenario()) == (1, False)


class TestStartPhase:
    def _first_tick_offset(self, clock, host_id, seed, respawn=False):
        """Fake-clock seconds from starting a host's round timer — by
        ``start()``, or by ``respawn()`` after a crash — to its first
        round."""

        async def scenario():
            host = _host(AsyncNetwork(seed=5), host_id=host_id, seed=seed)
            host.open_topic(1)
            if respawn:
                host.start()
                await asyncio.sleep(0)
                host.crash()
                await asyncio.sleep(0)
                clock.now += 12.345  # down for a while, mid-interval
            times = _record_ticks(host, clock)
            started = clock.now
            if respawn:
                await host.respawn()
            else:
                host.start()
            while not times:
                await asyncio.sleep(0)
            host.abort()
            return times[0] - started

        return asyncio.run(scenario())

    def test_hosts_started_in_one_instant_get_different_phases(self, clock):
        offsets = [self._first_tick_offset(clock, h, seed=5) for h in range(8)]
        assert all(0.0 <= offset < DELTA for offset in offsets)
        assert len({round(offset, 6) for offset in offsets}) == 8

    def test_the_phase_is_a_function_of_seed_and_host(self, clock):
        assert self._first_tick_offset(clock, 3, seed=5) == pytest.approx(
            self._first_tick_offset(clock, 3, seed=5)
        )
        assert self._first_tick_offset(clock, 3, seed=5) != pytest.approx(
            self._first_tick_offset(clock, 3, seed=6)
        )

    def test_a_respawned_host_keeps_its_phase(self, clock):
        fresh = self._first_tick_offset(clock, 2, seed=5)
        reborn = self._first_tick_offset(clock, 2, seed=5, respawn=True)
        assert reborn == pytest.approx(fresh)

    def test_default_topics_still_tick_together(self, clock):
        async def scenario():
            host = _host(AsyncNetwork(seed=5), host_id=1)
            first, second = host.open_topic(1), host.open_topic(2)
            batches = []
            tick = host._tick_topics  # noqa: SLF001
            host._tick_topics = lambda topics: (batches.append(list(topics)), tick(topics))  # noqa: SLF001
            host.start()
            while len(batches) < 4:
                await asyncio.sleep(0)
            host.abort()
            return batches, first.rounds_ticked, second.rounds_ticked

        batches, first, second = asyncio.run(scenario())
        # One due time for both: every round ticks them in one loop
        # iteration, which is what keeps their balls in one envelope.
        assert all(sorted(batch) == [1, 2] for batch in batches)
        assert first == second
