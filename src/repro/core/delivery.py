"""Delivery-side extensions of EpTO (paper §8.2 and §8.4).

* **Tagged delivery** (§8.2) — wired in
  :class:`repro.core.ordering.OrderingComponent` via the
  ``deliver_out_of_order`` callback; this module provides
  :class:`TaggedEvent` and :class:`DeliveryLog`, small conveniences to
  consume both in-order and tagged streams.

* **Delivery tradeoffs** (§8.4) — the application may *peek* at
  received-but-undelivered events together with an estimate of their
  probability of being stable, and decide to act early on events that
  are, say, 99% likely to have reached a majority. The estimate derives
  from the balls-and-bins growth model underlying Theorem 2 (see
  :class:`StabilityEstimator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Tuple

from .errors import ConfigurationError
from .event import Event


@dataclass(frozen=True, slots=True)
class TaggedEvent:
    """An event delivered outside the total order (§8.2).

    Attributes:
        event: The late event itself.
        in_order: Always ``False`` for tagged deliveries; present so
            mixed streams can be filtered uniformly.
    """

    event: Event
    in_order: bool = False


@dataclass(frozen=True, slots=True)
class StabilityEstimate:
    """Stability information for one pending event (§8.4).

    Attributes:
        event: The pending event.
        ttl: How many rounds the event has aged locally.
        probability_stable: Estimated probability that every correct
            process has received the event by now.
        expected_coverage: Estimated fraction of processes that have
            received the event by now (useful for "a majority is
            enough" application policies).
    """

    event: Event
    ttl: int
    probability_stable: float
    expected_coverage: float


class StabilityEstimator:
    """Estimates event stability from the balls-and-bins growth model.

    The dissemination of one event is an epidemic: starting from one
    infected process, each round every infected process throws ``K``
    balls at uniformly random bins. The expected number of infected
    processes follows the standard recurrence::

        i_{t+1} = n - (n - i_t) * (1 - 1/n) ** (K * i_t)

    from which we derive, after ``t`` rounds,

    * ``expected_coverage = i_t / n``, and
    * ``probability_stable ~= (1 - 1/n) ** balls_thrown`` complemented
      and raised to the union bound over processes — the same machinery
      as paper Figure 3.

    The per-TTL curves are precomputed once per (n, K) pair, so lookups
    during a run are O(1).

    Args:
        n: System size.
        fanout: Gossip fanout ``K``.
        max_rounds: Horizon to precompute (defaults to a generous
            multiple of ``log2 n``).
    """

    def __init__(self, n: int, fanout: int, max_rounds: int | None = None) -> None:
        if n < 2:
            raise ConfigurationError(f"system size must be >= 2, got {n}")
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        self.n = n
        self.fanout = fanout
        if max_rounds is None:
            max_rounds = max(8, 6 * math.ceil(math.log2(n)) + 4)
        self.max_rounds = max_rounds
        self._coverage: List[float] = []
        self._p_stable: List[float] = []
        self._precompute()

    def _precompute(self) -> None:
        n = float(self.n)
        keep = 1.0 - 1.0 / n
        infected = 1.0
        balls = 0.0
        for _ in range(self.max_rounds + 1):
            self._coverage.append(infected / n)
            # P(fixed process missed every ball) -> union bound over
            # the n - 1 other processes.
            p_missed = keep**balls
            p_any_missed = min(1.0, (n - 1.0) * p_missed)
            self._p_stable.append(max(0.0, 1.0 - p_any_missed))
            thrown = self.fanout * infected
            balls += thrown
            infected = n - (n - infected) * keep**thrown

    def coverage_after(self, rounds: int) -> float:
        """Expected fraction of processes reached after *rounds*."""
        if rounds < 0:
            return 0.0
        idx = min(rounds, self.max_rounds)
        return self._coverage[idx]

    def probability_stable(self, rounds: int) -> float:
        """Estimated P(every process has the event) after *rounds*."""
        if rounds < 0:
            return 0.0
        idx = min(rounds, self.max_rounds)
        return self._p_stable[idx]

    def estimate(self, event: Event, ttl: int) -> StabilityEstimate:
        """Build a :class:`StabilityEstimate` for a pending *event*
        relayed for *ttl* rounds."""
        return StabilityEstimate(
            event=event,
            ttl=ttl,
            probability_stable=self.probability_stable(ttl),
            expected_coverage=self.coverage_after(ttl),
        )

    def estimate_all(
        self, pending: Iterable[Tuple[Event, int]]
    ) -> List[StabilityEstimate]:
        """Estimate every ``(event, ttl)`` pair, sorted by descending
        stability."""
        estimates = [self.estimate(event, ttl) for event, ttl in pending]
        estimates.sort(key=lambda e: (-e.probability_stable, e.event.order_key))
        return estimates


@dataclass(slots=True)
class DeliveryLog:
    """Collects a process's delivery stream for inspection.

    Handy in applications and tests: register :meth:`on_deliver` (and
    optionally :meth:`on_out_of_order`) as the process callbacks and
    read back the ordered history.
    """

    ordered: List[Event] = field(default_factory=list)
    tagged: List[TaggedEvent] = field(default_factory=list)

    def on_deliver(self, event: Event) -> None:
        """Record an in-order delivery."""
        self.ordered.append(event)

    def on_out_of_order(self, event: Event) -> None:
        """Record a tagged (out-of-order) delivery."""
        self.tagged.append(TaggedEvent(event))

    @property
    def payloads(self) -> List[Any]:
        """Payloads of the in-order stream, in delivery order."""
        return [event.payload for event in self.ordered]

    def __len__(self) -> int:
        return len(self.ordered)
