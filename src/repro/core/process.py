"""A complete EpTO process: both components wired together (paper Fig. 2).

:class:`EpToProcess` glues the dissemination component (Algorithm 1),
the ordering component (Algorithm 2) and a stability oracle
(Algorithm 3 or 4) behind the two primitives of the Total Order
specification: ``EpTO-broadcast`` (:meth:`EpToProcess.broadcast`) and
``EpTO-deliver`` (the ``on_deliver`` callback).

The process is runtime-agnostic. Whatever hosts it — the discrete-event
simulator or the asyncio runtime — must:

* call :meth:`EpToProcess.on_ball` when a ball arrives from the
  network, and
* call :meth:`EpToProcess.on_round` every ``config.round_interval``
  time units.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List

from .clock import StabilityOracle, make_oracle
from .config import EpToConfig
from .delivery import StabilityEstimate, StabilityEstimator
from .dissemination import DisseminationComponent
from .errors import ConfigurationError
from .event import Ball, Event
from .interfaces import PeerSampler, Transport
from .ordering import OrderingComponent


class EpToProcess:
    """One EpTO participant (paper Figure 2 architecture).

    Args:
        node_id: Unique identifier of this process.
        config: Deployment configuration (fanout, TTL, clock, ...).
        peer_sampler: Peer sampling service view.
        transport: Outgoing message channel.
        on_deliver: ``EpTO-deliver`` callback — receives every event in
            total order.
        on_out_of_order: Optional §8.2 tagged-delivery callback (only
            honoured when ``config.tagged_delivery`` is set).
        time_source: Current-time callable; required when
            ``config.clock == "global"``.
        rng: Randomness for peer selection; pass a seeded generator for
            reproducible simulations.
        oracle: Pre-built stability oracle; overrides ``config.clock``
            and ``time_source`` when supplied (used by tests to control
            the clock).
        system_size_hint: Expected system size ``n``; only needed when
            ``config.expose_stability`` is set, to parameterize the
            §8.4 stability estimator.
    """

    def __init__(
        self,
        node_id: int,
        config: EpToConfig,
        peer_sampler: PeerSampler,
        transport: Transport,
        on_deliver: Callable[[Event], None],
        on_out_of_order: Callable[[Event], None] | None = None,
        time_source: Callable[[], int] | None = None,
        rng: random.Random | None = None,
        oracle: StabilityOracle | None = None,
        system_size_hint: int | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        if oracle is None:
            oracle = make_oracle(config.clock, config.ttl, time_source)
        self.oracle = oracle

        if config.tagged_delivery and on_out_of_order is None:
            raise ConfigurationError(
                "tagged_delivery is enabled but no on_out_of_order callback given"
            )
        tagged_callback = on_out_of_order if config.tagged_delivery else None

        self.ordering = OrderingComponent(
            oracle=self.oracle,
            deliver=on_deliver,
            deliver_out_of_order=tagged_callback,
        )
        self.dissemination = DisseminationComponent(
            node_id=node_id,
            config=config,
            oracle=self.oracle,
            peer_sampler=peer_sampler,
            transport=transport,
            order_events=self.ordering.order_events,
            rng=rng,
        )

        self._estimator: StabilityEstimator | None = None
        if config.expose_stability:
            if system_size_hint is None:
                raise ConfigurationError(
                    "expose_stability requires system_size_hint to size the "
                    "balls-and-bins estimator"
                )
            self._estimator = StabilityEstimator(system_size_hint, config.fanout)

    # ------------------------------------------------------------------
    # Total order primitives
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any = None) -> Event:
        """EpTO-broadcast *payload*; returns the wrapping event."""
        return self.dissemination.broadcast(payload)

    def on_ball(self, ball: Ball) -> None:
        """Network entry point: a ball arrived for this process."""
        self.dissemination.receive_ball(ball)

    def on_round(self) -> None:
        """Timer entry point: one round (``delta`` time units) elapsed."""
        self.dissemination.round_tick()

    def resume_sequence(self, next_seq: int) -> None:
        """Fast-forward the broadcast sequence counter (crash recovery).

        A process restarted under the same identity must never reissue
        a ``(source, seq)`` event id its previous incarnation already
        used; the hosting runtime calls this with the predecessor's
        issued count before the replacement broadcasts anything.
        """
        self.dissemination.resume_sequence(next_seq)

    # ------------------------------------------------------------------
    # Introspection and §8.4 extension
    # ------------------------------------------------------------------

    def peek(self) -> List[StabilityEstimate]:
        """Expose pending events with stability estimates (§8.4).

        Returns known-but-undelivered events annotated with the
        estimated probability that they are stable and the expected
        fraction of processes that already received them, most-stable
        first. Requires ``config.expose_stability``.

        Raises:
            ConfigurationError: If the extension is disabled.
        """
        if self._estimator is None:
            raise ConfigurationError(
                "peek() requires EpToConfig.expose_stability=True"
            )
        return self._estimator.estimate_all(self.ordering.pending())

    @property
    def pending_count(self) -> int:
        """Number of received-but-undelivered events."""
        return self.ordering.received_count

    @property
    def delivered_count(self) -> int:
        """Number of events delivered in total order so far."""
        return self.ordering.stats.delivered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EpToProcess(id={self.node_id}, clock={self.config.clock}, "
            f"pending={self.pending_count}, delivered={self.delivered_count})"
        )
