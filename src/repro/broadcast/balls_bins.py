"""Unordered balls-and-bins epidemic broadcast (Koldehofe [19]).

The paper's Figure 6 baseline: "a pure balls-and-bins dissemination
(i.e., Algorithm 1) without order guarantees, essentially showing the
time required for an event to infect all processes". This is exactly
EpTO's dissemination component with the ordering component replaced by
immediate first-sight delivery.

It reuses :class:`repro.core.dissemination.DisseminationComponent`
verbatim, so the baseline and EpTO share identical relaying behaviour
— the measured gap in Figure 6 is purely the cost of ordering.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..core.clock import StabilityOracle, make_oracle
from ..core.config import EpToConfig
from ..core.dissemination import DisseminationComponent
from ..core.event import Ball, Event, EventId
from ..core.interfaces import PeerSampler, Transport


class BallsBinsProcess:
    """Reliable-broadcast process: delivers events on first sight.

    Exposes the same hosting interface as
    :class:`~repro.core.process.EpToProcess` (``broadcast`` /
    ``on_ball`` / ``on_round``) so a
    :class:`~repro.sim.cluster.SimCluster` can host either via its
    ``process_factory`` hook.

    Args:
        node_id: Unique process identifier.
        config: Reuses :class:`~repro.core.config.EpToConfig` for the
            shared knobs (fanout, TTL, round interval, clock type).
        peer_sampler: PSS view.
        transport: Outgoing channel.
        on_deliver: Called once per distinct event, at first sight —
            *not* in total order.
        time_source: Needed for ``config.clock == "global"``.
        rng: Randomness for peer selection.
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
        self._seen: set[EventId] = set()
        self.delivered_count = 0
        self.dissemination = DisseminationComponent(
            node_id=node_id,
            config=config,
            oracle=oracle,
            peer_sampler=peer_sampler,
            transport=transport,
            order_events=self._deliver_new,
            rng=rng,
        )

    def _deliver_new(self, ball: Ball) -> None:
        """Deliver each never-seen event immediately (no ordering)."""
        for event in ball.events.values():
            if event.id not in self._seen:
                self._seen.add(event.id)
                self.delivered_count += 1
                self._on_deliver(event)

    def broadcast(self, payload: Any = None) -> Event:
        """Broadcast *payload*; the local copy delivers next round."""
        return self.dissemination.broadcast(payload)

    def on_ball(self, ball: Ball) -> None:
        """Network entry point.

        Unlike EpTO, the baseline delivers straight from the incoming
        ball as well (first sight), not only at round boundaries — an
        event expiring its TTL on arrival would otherwise never be
        delivered here, whereas EpTO's ordering component intentionally
        ignores such stragglers.
        """
        self._deliver_new(ball)
        self.dissemination.receive_ball(ball)

    def on_round(self) -> None:
        """Timer entry point: relay the accumulated ball."""
        self.dissemination.round_tick()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BallsBinsProcess(id={self.node_id}, "
            f"delivered={self.delivered_count})"
        )
