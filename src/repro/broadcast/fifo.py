"""FIFO-order epidemic broadcast baseline.

A middle point between the unordered balls-and-bins baseline and full
EpTO total order, in the spirit of the Bimodal Multicast follow-up the
paper's related work discusses ("messages are delivered in FIFO
order", §7 on [2]): events from the *same* source are delivered in
their broadcast (sequence) order, but events from different sources are
delivered at first availability with no cross-source guarantees.

Useful as an ablation: it quantifies how much of EpTO's delivery delay
buys *total* order rather than mere per-source ordering.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict

from ..core.clock import StabilityOracle, make_oracle
from ..core.config import EpToConfig
from ..core.dissemination import DisseminationComponent
from ..core.event import Ball, Event, EventId
from ..core.interfaces import PeerSampler, Transport


class FifoProcess:
    """Per-source FIFO delivery over the shared dissemination component.

    Events are buffered per source and released in contiguous sequence
    order; a missing sequence number blocks later events from that
    source only (unordered across sources).

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
        self._seen: set[EventId] = set()
        # Per-source reassembly: next expected seq and buffered events.
        self._next_seq: Dict[int, int] = {}
        self._buffers: Dict[int, Dict[int, Event]] = {}
        self.delivered_count = 0
        self.blocked_count = 0
        self.dissemination = DisseminationComponent(
            node_id=node_id,
            config=config,
            oracle=oracle,
            peer_sampler=peer_sampler,
            transport=transport,
            order_events=self._ingest,
            rng=rng,
        )

    def _ingest(self, ball: Ball) -> None:
        for event in ball.events.values():
            if event.id in self._seen:
                continue
            self._seen.add(event.id)
            source = event.source_id
            buffer = self._buffers.setdefault(source, {})
            buffer[event.seq] = event
            self._drain(source)

    def _drain(self, source: int) -> None:
        """Deliver contiguous buffered events from *source*."""
        buffer = self._buffers[source]
        next_seq = self._next_seq.get(source, 0)
        while next_seq in buffer:
            event = buffer.pop(next_seq)
            self.delivered_count += 1
            self._on_deliver(event)
            next_seq += 1
        self._next_seq[source] = next_seq
        self.blocked_count = sum(len(b) for b in self._buffers.values())

    def broadcast(self, payload: Any = None) -> Event:
        """Broadcast *payload* (delivered locally in FIFO position)."""
        return self.dissemination.broadcast(payload)

    def on_ball(self, ball: Ball) -> None:
        """Network entry point (delivers eagerly, like the baseline)."""
        self._ingest(ball)
        self.dissemination.receive_ball(ball)

    def on_round(self) -> None:
        """Timer entry point: relay the accumulated ball."""
        self.dissemination.round_tick()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FifoProcess(id={self.node_id}, delivered={self.delivered_count}, "
            f"blocked={self.blocked_count})"
        )
