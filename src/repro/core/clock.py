"""Stability oracles: global clock (Algorithm 3) and logical clock (Algorithm 4).

The stability oracle gives the EpTO components the notion of time:

* ``ttl`` — the stability threshold: an event is deliverable once it
  has been relayed for more than ``ttl`` rounds, so that, with high
  probability, every correct process has received it (the rule itself,
  ``ttl > TTL``, is applied by :mod:`repro.core.ordering`);
* ``get_clock()`` — timestamp to stamp on a freshly broadcast event;
* ``update_clock(ts)`` — observe the timestamp of a received event
  (a no-op for the global clock, a Lamport merge for the logical one).

The paper first presents the algorithm with a *global clock* (e.g. GPS
or atomic clocks as used by Spanner) purely for didactic purposes, then
relaxes it to plain Lamport scalar clocks at the cost of doubling the
TTL (paper §5.1, Lemma 4). The ``ttl > TTL`` stability rule is the
same under both; they differ only in how timestamps are produced and
merged, and in the TTL value the deployment should configure (see
:mod:`repro.core.params`).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from .errors import ConfigurationError


@runtime_checkable
class StabilityOracle(Protocol):
    """Interface between the EpTO components and the notion of time."""

    ttl: int

    def get_clock(self) -> int:
        """Return the timestamp for a new broadcast."""
        ...

    def update_clock(self, ts: int) -> None:
        """Observe a received event's timestamp."""
        ...


def _check_ttl(ttl: int) -> int:
    if ttl < 1:
        raise ConfigurationError(f"TTL must be >= 1, got {ttl}")
    return ttl


class GlobalClockOracle:
    """Stability oracle backed by a global clock (paper Algorithm 3).

    Args:
        ttl: Number of relay rounds after which an event is considered
            stable. See :func:`repro.core.params.min_ttl`.
        time_source: Zero-argument callable returning the current global
            time (e.g. ``simulator.now`` or a wall-clock sampler).
    """

    def __init__(self, ttl: int, time_source: Callable[[], int]) -> None:
        self.ttl = _check_ttl(ttl)
        self._time_source = time_source

    def get_clock(self) -> int:
        """Read the global clock (Algorithm 3, ``getClock``)."""
        return int(self._time_source())

    def update_clock(self, ts: int) -> None:
        """Nothing to do with a global clock (Algorithm 3)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GlobalClockOracle(ttl={self.ttl})"


class LogicalClockOracle:
    """Stability oracle backed by a Lamport scalar clock (Algorithm 4).

    The local clock is incremented on every broadcast and merged
    (``max``) with the timestamp of every received event. Remember that
    deployments using logical time must double the TTL relative to the
    global-clock bound (paper Lemma 4) to absorb concurrency holes such
    as the one in paper Figure 4.

    Args:
        ttl: Stability threshold in rounds — pass the *doubled* value
            from :func:`repro.core.params.min_ttl` with
            ``clock="logical"``.
    """

    def __init__(self, ttl: int) -> None:
        self.ttl = _check_ttl(ttl)
        self._logical_clock = 0

    @property
    def logical_clock(self) -> int:
        """Current value of the Lamport clock (read-only)."""
        return self._logical_clock

    def get_clock(self) -> int:
        """Increment then return the clock (Algorithm 4, ``getClock``)."""
        self._logical_clock += 1
        return self._logical_clock

    def update_clock(self, ts: int) -> None:
        """Fast-forward the clock to *ts* if it is ahead (Algorithm 4)."""
        if ts > self._logical_clock:
            self._logical_clock = ts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogicalClockOracle(ttl={self.ttl}, clock={self._logical_clock})"
        )


def make_oracle(
    clock: str,
    ttl: int,
    time_source: Callable[[], int] | None = None,
) -> StabilityOracle:
    """Build a stability oracle by name.

    Args:
        clock: ``"global"`` (Algorithm 3) or ``"logical"`` (Algorithm 4).
        ttl: Stability threshold in rounds, already adjusted for the
            clock type (callers typically obtain it from
            :func:`repro.core.params.min_ttl`).
        time_source: Required for the global clock; ignored otherwise.

    Raises:
        ConfigurationError: On an unknown clock name or a missing
            ``time_source`` for the global clock.
    """
    if clock == "global":
        if time_source is None:
            raise ConfigurationError("global clock oracle requires a time_source")
        return GlobalClockOracle(ttl, time_source)
    if clock == "logical":
        return LogicalClockOracle(ttl)
    raise ConfigurationError(f"unknown clock type {clock!r}; use 'global' or 'logical'")
