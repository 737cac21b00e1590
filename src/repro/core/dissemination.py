"""EpTO dissemination component (paper Algorithm 1).

Relays events epidemically using the balls-and-bins scheme of
Koldehofe [19]: every round, the set of events heard during the round
(``nextBall``) is shipped to ``K`` uniformly random peers, and incoming
events keep being relayed until their TTL reaches the configured bound.

The component is driven by three entry points, mirroring the paper's
three atomic procedures:

* :meth:`DisseminationComponent.broadcast` — ``EpTO-broadcast(event)``,
* :meth:`DisseminationComponent.receive_ball` — ``upon receive BALL``,
* :meth:`DisseminationComponent.round_tick` — the periodic task
  executed every ``delta`` time units.

One deliberate refinement relative to the pseudocode: Algorithm 1
guards the *whole* round body — including the ``orderEvents`` call —
behind ``nextBall != empty``. Read literally, a process that stops
hearing traffic would never age its received events and would never
deliver them, violating validity in an otherwise quiet network. Known
EpTO implementations invoke the ordering component every round; we do
the same and only guard the *network send* on a non-empty ball (the
aging in Algorithm 2 lines 6–7 must tick every round). See DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from .clock import StabilityOracle
from .config import EpToConfig
from .event import Ball, Event, EventId, EventIdGenerator
from .interfaces import PeerSampler, Transport


@dataclass(slots=True)
class DisseminationStats:
    """Counters exposed for instrumentation and experiments.

    They count balls and entries, per receiver where a ball fans out;
    bytes are counted only where a wire carries them, by the UDP fabric
    (:class:`repro.runtime.udp.UdpStats`) and the lazy pull
    (:class:`repro.lazy.LazyStats`).
    """

    events_broadcast: int = 0
    balls_sent: int = 0
    balls_received: int = 0
    entries_received: int = 0
    entries_relayed: int = 0
    entries_expired: int = 0
    rounds: int = 0


class DisseminationComponent:
    """Per-process dissemination state machine (Algorithm 1).

    Args:
        node_id: Identifier of the owning process.
        config: Shared deployment configuration (fanout, TTL, ...).
        oracle: Stability oracle supplying ``get_clock`` /
            ``update_clock`` (Algorithm 3 or 4).
        peer_sampler: Source of uniformly random peer ids (the PSS).
        transport: Outgoing message channel.
        order_events: Callback into the ordering component, invoked
            once per round with the round's ball
            (:meth:`repro.core.ordering.OrderingComponent.order_events`).
        rng: Randomness source for peer selection; defaults to a fresh
            unseeded generator (simulations pass a seeded one).
    """

    def __init__(
        self,
        node_id: int,
        config: EpToConfig,
        oracle: StabilityOracle,
        peer_sampler: PeerSampler,
        transport: Transport,
        order_events: Callable[[Ball], None],
        rng: random.Random | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.oracle = oracle
        self.peer_sampler = peer_sampler
        self.transport = transport
        self.order_events = order_events
        self.rng = rng if rng is not None else random.Random()
        self.stats = DisseminationStats()
        self._id_generator = EventIdGenerator(node_id)
        # nextBall: events to relay next round and the TTL of each, two
        # dicts with the same keys in the same insertion order. The TTLs
        # are a plain ``{event id: ttl}`` so that a received ball's TTL
        # map can be tested against them in C.
        self._next_events: dict[EventId, Event] = {}
        self._next_ttls: dict[EventId, int] = {}
        # Only logical clocks react to update_clock; skip the per-entry
        # call entirely for global clocks (hot path at scale).
        self._clock_needs_updates = config.clock == "logical"
        # Fan-out path: transports offering send_many ship one ball to
        # all K peers in a single call (encode-once on wire fabrics);
        # plain transports get K individual send calls.
        self._send_many = getattr(transport, "send_many", None)

    @property
    def next_ball_size(self) -> int:
        """Number of events queued for relay next round."""
        return len(self._next_ttls)

    def broadcast(self, payload: Any = None) -> Event:
        """EpTO-broadcast a new event (Algorithm 1 lines 6–10).

        Stamps the event with the local clock, gives it TTL 0 and
        queues it in ``nextBall`` for relay at the next round tick.

        Returns:
            The freshly created :class:`~repro.core.event.Event`, so
            callers can track its id / order key.
        """
        event = Event(
            id=self._id_generator.next_id(),
            ts=self.oracle.get_clock(),
            source_id=self.node_id,
            payload=payload,
        )
        self._next_events[event.id] = event
        self._next_ttls[event.id] = 0
        self.stats.events_broadcast += 1
        return event

    def receive_ball(self, ball: Ball) -> None:
        """Handle an incoming ball (Algorithm 1 lines 11–19).

        Events still within their TTL are merged into ``nextBall`` for
        further relaying, keeping the largest TTL when the event is
        already queued (avoiding excessive retransmission). Events at
        or past the TTL are *not* relayed — by then they have been in
        the system long enough to have reached everyone w.h.p.

        Note the expired events are dropped entirely: they do not reach
        the ordering component either, exactly as in the pseudocode
        where ``orderEvents`` only ever sees ``nextBall``.

        A push epidemic hands a node each event about ``K * TTL``
        times, so most balls teach their receiver little or nothing. A
        ball is merged by its ``{event id: Event}`` and ``{event id:
        ttl}`` maps, never entry by entry, with one clock update with
        its largest timestamp (Algorithm 4 is a max-merge, so that
        leaves what one update per entry does). How depends on how many
        nodes receive the ball object:

        * A round's ball handed to several receivers (the simulator, the
          in-memory asyncio network) is split by this node's TTL bound
          once per bound for all of them; then — unless every live entry
          is already pending here *at that very TTL*, which one C-level
          dict-view subset test says — its live map is max-merged in
          ball order.
        * A ball with one receiver (a wire ball, decoded) is max-merged
          in one pass that drops the entries at or past the bound as it
          goes: a split of its own would cost what the merge does.
        """
        stats = self.stats
        stats.balls_received += 1
        ttls = ball.ttls
        stats.entries_received += len(ttls)
        bound = self.config.ttl
        splits = ball._splits
        if splits is None:
            self._merge(ttls, ball.events, bound)
        else:
            live, expired = splits.get(bound) or ball.split(bound)
            stats.entries_expired += expired
            next_ttls = self._next_ttls
            if live.items() <= next_ttls.items():
                pass  # teaches nothing
            elif next_ttls or expired:
                self._merge(live, ball.events, bound)
            else:
                # Nothing pending and nothing dropped: the maps are the
                # merge, in C.
                next_ttls.update(live)
                self._next_events.update(ball.events)
        if self._clock_needs_updates and ttls:
            self.oracle.update_clock(ball.max_ts)

    def _merge(self, ttls: dict, events: dict, bound: int) -> None:
        """Max-merge *ttls* (``{event id: ttl}``, in ball order; the
        events in *events*) into nextBall, dropping and counting the
        entries at or past *bound* (Algorithm 1 lines 12–18)."""
        next_ttls = self._next_ttls
        next_events = self._next_events
        expired = 0
        for event_id, ttl in ttls.items():
            if ttl >= bound:
                expired += 1
                continue
            known = next_ttls.get(event_id)
            if known is None:
                next_events[event_id] = events[event_id]
                next_ttls[event_id] = ttl
            elif ttl > known:
                next_ttls[event_id] = ttl
        self.stats.entries_expired += expired

    def round_tick(self) -> None:
        """Execute one relay round (Algorithm 1 lines 20–28).

        Hands ``nextBall`` over and starts an empty one *first*, so an
        event broadcast while the round runs — from a delivery callback
        inside ``order_events`` — is queued for the next round instead
        of being cleared with this one. Then ages every handed-over
        event, ships the resulting ball to ``K`` random peers and feeds
        it to the ordering component. The ball is never mutated, so a
        single instance — its events map being the pending one handed
        over — is shared among all ``K`` receivers.
        """
        self.stats.rounds += 1
        events, next_ttls = self._next_events, self._next_ttls
        self._next_events, self._next_ttls = {}, {}
        if next_ttls:
            # Age + snapshot fused: nextBall lives exactly one round, so
            # ``ttl + 1`` lands directly in the shipped map.
            ttls = {event_id: ttl + 1 for event_id, ttl in next_ttls.items()}
            ball = Ball(events, ttls, shared=True)
            peers = self.peer_sampler.sample(self.config.fanout)
            if self._send_many is not None:
                self._send_many(self.node_id, peers, ball)
            else:
                for peer in peers:
                    self.transport.send(self.node_id, peer, ball)
            fan = len(peers)
            self.stats.balls_sent += fan
            self.stats.entries_relayed += len(ball) * fan
        else:
            ball = Ball(events, next_ttls)  # both empty
        # Refinement: order/age every round, not only on non-empty
        # balls (see module docstring).
        self.order_events(ball)

    def resume_sequence(self, next_seq: int) -> None:
        """Fast-forward the event-id sequence (same-identity restart)."""
        self._id_generator.resume(next_seq)

    @property
    def issued_sequence(self) -> int:
        """Event ids issued so far (restart handover point)."""
        return self._id_generator.issued

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DisseminationComponent(node={self.node_id}, "
            f"queued={len(self._next_ttls)}, rounds={self.stats.rounds})"
        )
