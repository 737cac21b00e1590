"""Pbcast-style stability-only ordered broadcast (paper §7, [16]).

Hayden and Birman's *Pbcast* was the first probabilistic total order
algorithm: epidemic dissemination plus a *stability delay* — an event
is delivered once it has been in the system long enough, in timestamp
order. Crucially, and unlike EpTO, it relies on a **fully synchronous
model**: delivery happens purely because the clock says the event is
old enough, with no check that earlier-ordered events might still be
in flight.

:class:`StabilityOrderedProcess` implements that delivery rule on top
of the shared dissemination component. It is *deliberately* missing
EpTO's two ordering guards (Algorithm 2):

* no ``minQueuedTs`` guard — a stable event is delivered even if a
  smaller-timestamp event is still aging;
* no last-delivered-key discard — a late event is delivered on
  stabilization regardless of what was already delivered.

Under the synchrony Pbcast assumes (bounded latency below the round
duration, no drift) this delivers in total order; under the asynchrony
EpTO targets it visibly violates order. The ordering-guard ablation
benchmark (``benchmarks/test_ablation_ordering_guard.py``) quantifies
exactly that gap, supporting the paper's §7 claim that Pbcast-style
protocols need "a static and fully synchronous network".
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

from ..core.clock import StabilityOracle, make_oracle
from ..core.config import EpToConfig
from ..core.dissemination import DisseminationComponent
from ..core.event import Ball, Event, EventId
from ..core.interfaces import PeerSampler, Transport


class StabilityOrderedProcess:
    """Deliver-on-stability broadcast without EpTO's ordering guards.

    Hosting interface matches
    :class:`~repro.core.process.EpToProcess` (``broadcast`` /
    ``on_ball`` / ``on_round``) so it plugs into
    :class:`~repro.sim.cluster.SimCluster` via ``process_factory``.

    Args mirror :class:`~repro.broadcast.balls_bins.BallsBinsProcess`.
    """

    def __init__(
        self,
        node_id: int,
        config: EpToConfig,
        peer_sampler: PeerSampler,
        transport: Transport,
        on_deliver: Callable[[Event], None],
        time_source: Callable[[], int] | None = None,
        rng: random.Random | None = None,
        oracle: StabilityOracle | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        if oracle is None:
            oracle = make_oracle(config.clock, config.ttl, time_source)
        self.oracle = oracle
        self._on_deliver = on_deliver
        # Known-but-undelivered events and the TTL of each (same keys).
        self._received: Dict[EventId, Event] = {}
        self._ttls: Dict[EventId, int] = {}
        self._delivered: set[EventId] = set()
        self.delivered_count = 0
        self.dissemination = DisseminationComponent(
            node_id=node_id,
            config=config,
            oracle=oracle,
            peer_sampler=peer_sampler,
            transport=transport,
            order_events=self._order_events,
            rng=rng,
        )

    def _order_events(self, ball: Ball) -> None:
        """Stability-only delivery: age, merge, deliver all stable.

        This is EpTO's Algorithm 2 with lines 9 (late discard) and
        15-26 (deliverable/queued split) removed — the rule Pbcast's
        synchronous model permits.
        """
        ttls = {event_id: ttl + 1 for event_id, ttl in self._ttls.items()}
        self._ttls = ttls
        for event_id, ttl in ball.ttls.items():
            if event_id in self._delivered:
                continue
            known = ttls.get(event_id)
            if known is None:
                self._received[event_id] = ball.events[event_id]
                ttls[event_id] = ttl
            elif ttl > known:
                ttls[event_id] = ttl

        bound = self.oracle.ttl
        stable: List[Event] = [
            self._received[event_id]
            for event_id, ttl in ttls.items()
            if ttl > bound
        ]
        stable.sort(key=lambda event: event.order_key)
        for event in stable:
            del self._received[event.id], ttls[event.id]
            self._delivered.add(event.id)
            self.delivered_count += 1
            self._on_deliver(event)

    def broadcast(self, payload: Any = None) -> Event:
        """Broadcast *payload* (delivered after the stability delay)."""
        return self.dissemination.broadcast(payload)

    def on_ball(self, ball: Ball) -> None:
        """Network entry point."""
        self.dissemination.receive_ball(ball)

    def on_round(self) -> None:
        """Timer entry point."""
        self.dissemination.round_tick()

    @property
    def pending_count(self) -> int:
        """Known-but-undelivered events."""
        return len(self._received)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StabilityOrderedProcess(id={self.node_id}, "
            f"delivered={self.delivered_count}, pending={self.pending_count})"
        )
