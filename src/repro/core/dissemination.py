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

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .clock import StabilityOracle
from .config import EpToConfig
from .event import (
    Ball,
    BallEntry,
    Event,
    EventId,
    EventIdGenerator,
    SharedBall,
)
from .interfaces import PeerSampler, Transport


#: Estimated wire bytes of one ball entry's metadata — the codec's
#: fixed per-entry layout (ts i64 + source i64 + seq i64 + ttl i32 +
#: payload_len u32; :data:`repro.runtime.codec._BALL_ENTRY`, pinned by
#: tests/runtime/test_wire_sizes.py). The simulator has no real wire,
#: so byte accounting uses the codec's sizes: what the UDP fabric
#: *would* have shipped.
ENTRY_METADATA_BYTES = 32


def payload_nbytes(payload: Any) -> int:
    """Estimated wire bytes of one event payload (JSON, as the codec
    ships it); non-JSON payloads fall back to their ``repr`` length so
    simulation-only object payloads still account as *something*."""
    try:
        return len(json.dumps(payload).encode())
    except (TypeError, ValueError):
        return len(repr(payload).encode())


def event_payload_nbytes(event: Event) -> int:
    """:func:`payload_nbytes` of *event*'s payload, measured once per
    :class:`~repro.core.event.Event` object and kept on it: an event is
    relayed by every node for TTL rounds, its payload never changes."""
    size = event._payload_nbytes
    if size < 0:
        size = payload_nbytes(event.payload)
        object.__setattr__(event, "_payload_nbytes", size)
    return size


@dataclass(slots=True)
class DisseminationStats:
    """Counters exposed for instrumentation and experiments.

    ``metadata_bytes`` / ``payload_bytes`` split the estimated
    bytes-on-wire of every ball this component shipped into the fixed
    per-entry metadata layout and the serialized payloads — the split
    the eager-vs-lazy ablation (``epto-experiment lazy-bench``)
    compares across modes. In lazy mode the component ships metadata
    balls, so its own payload estimate stays near zero and the pull
    traffic is accounted by :class:`repro.lazy.LazyStats` instead.
    """

    events_broadcast: int = 0
    balls_sent: int = 0
    balls_received: int = 0
    entries_received: int = 0
    entries_relayed: int = 0
    entries_expired: int = 0
    rounds: int = 0
    #: Estimated fixed-layout bytes shipped (per entry, per receiver).
    metadata_bytes: int = 0
    #: Estimated serialized-payload bytes shipped (per entry, per receiver).
    payload_bytes: int = 0


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
        # are a plain ``{event id: ttl}`` so that a received
        # :class:`SharedBall` can be tested against them in C.
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
        times, so most balls teach their receiver nothing. A
        :class:`~repro.core.event.SharedBall` carries the ``{event id:
        ttl}`` map its sender built; when every live entry of it is
        already pending here *at that very TTL* the max-merge below
        would change nothing, and one C-level dict-view subset test
        says so. The test reads the state the merge would have written,
        so nothing is memoised per receiver and nothing needs
        invalidating. Any other ball — one that adds or raises
        something, or a plain tuple off the wire — is merged entry by
        entry.
        """
        stats = self.stats
        stats.balls_received += 1
        stats.entries_received += len(ball)
        ttl_bound = self.config.ttl
        next_ttls = self._next_ttls
        if isinstance(ball, SharedBall):
            live, expired = ball.split(ttl_bound)
            if live.items() <= next_ttls.items():
                stats.entries_expired += expired
                if self._clock_needs_updates and ball:
                    # Algorithm 4 is a max-merge: one update with the
                    # largest timestamp leaves what one per entry does.
                    self.oracle.update_clock(ball.max_ts)
                return
        next_events = self._next_events
        update_clock = self.oracle.update_clock if self._clock_needs_updates else None
        for entry in ball:
            event = entry.event
            ttl = entry.ttl
            if ttl >= ttl_bound:
                stats.entries_expired += 1
            else:
                event_id = event.id
                known = next_ttls.get(event_id)
                if known is None:
                    next_events[event_id] = event
                    next_ttls[event_id] = ttl
                elif ttl > known:
                    next_ttls[event_id] = ttl
            if update_clock is not None:
                update_clock(event.ts)

    def round_tick(self) -> None:
        """Execute one relay round (Algorithm 1 lines 20–28).

        Ages every queued event, ships the resulting ball to ``K``
        random peers, feeds it to the ordering component, and resets
        ``nextBall``. The ball object is immutable, so a single
        instance — entries and ``{event id: ttl}`` map, each built once
        — is shared among all ``K`` receivers.
        """
        self.stats.rounds += 1
        next_ttls = self._next_ttls
        if next_ttls:
            # Age + snapshot fused: nextBall lives exactly one round, so
            # ``ttl + 1`` lands directly in the shipped map and entries
            # instead of mutating state that is discarded below.
            events = self._next_events.values()
            ttls = {event_id: ttl + 1 for event_id, ttl in next_ttls.items()}
            ball = SharedBall(map(BallEntry, events, ttls.values()), ttls)
            peers = self.peer_sampler.sample(self.config.fanout)
            if self._send_many is not None:
                self._send_many(self.node_id, peers, ball)
            else:
                for peer in peers:
                    self.transport.send(self.node_id, peer, ball)
            self.stats.balls_sent += len(peers)
            self.stats.entries_relayed += len(ball) * len(peers)
            fan = len(peers)
            self.stats.metadata_bytes += ENTRY_METADATA_BYTES * len(ball) * fan
            self.stats.payload_bytes += fan * sum(map(event_payload_nbytes, events))
        else:
            ball = ()
        # Refinement: order/age every round, not only on non-empty
        # balls (see module docstring).
        self.order_events(ball)
        self._next_events = {}
        self._next_ttls = {}

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
