"""A lazy-push EpTO process: unchanged core, metadata on the wire.

:class:`LazyEpToProcess` hosts the *unmodified* dissemination and
ordering components (via an inner :class:`~repro.core.process.EpToProcess`)
and changes only what crosses the network:

* outgoing balls are stripped to :class:`~repro.lazy.protocol.IdBall`
  metadata by a transport adapter — the dissemination component never
  notices;
* an incoming id-ball's ball of payload-less events is fed to the
  ordinary ``on_ball`` path, so the ordering component orders metadata
  exactly as it would order full events (the order key is
  ``(ts, source_id, seq)``; payloads never influence it);
* payloads travel exactly once per node through the
  :class:`~repro.lazy.pull.PullManager` /
  :class:`~repro.lazy.store.PayloadStore` pair;
* a FIFO delivery gate holds the ordering component's deliveries until
  the payload has arrived, then releases them *in order* — total order
  is preserved event-for-event against eager mode, only the delivery
  instant may lag by the pull round-trip.

The class satisfies the hosting runtimes' ``GossipProcess`` surface
(``broadcast`` / ``on_ball`` / ``on_round`` / ``resume_sequence``) plus
one extra entry point, :meth:`on_lazy_message`, which the runtimes call
for the three lazy wire kinds (they carry the sender, which ``on_ball``
does not).
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from typing import Any, Callable, Deque, List

from ..core.clock import StabilityOracle
from ..core.config import EpToConfig
from ..core.event import Ball, Event
from ..core.interfaces import PeerSampler, Transport
from ..core.process import EpToProcess
from ..core.record import (
    framed_record_nbytes,
    header_nbytes,
    pair_nbytes,
    uvarint_nbytes,
    wire_sizes,
)
from .protocol import IdBall, PayloadRequest, PayloadResponse
from .pull import PullManager
from .store import PayloadStore

#: Payload retention, in rounds: ``RETENTION_TTL_FACTOR * ttl +
#: RETENTION_SLACK_ROUNDS``. The ordering window is ~2*TTL
#: (dissemination plus stabilization); twice that again absorbs pull
#: retries under loss and the latency tail.
RETENTION_TTL_FACTOR = 4
RETENTION_SLACK_ROUNDS = 16

#: Rounds before an unanswered pull request is retried at the next
#: advertiser.
PULL_TIMEOUT_ROUNDS = 2


@dataclass(slots=True)
class LazyStats:
    """Counters specific to the lazy-push leg of one process.

    The pull life-cycle counters (issued/retried/served/failed) live on
    :attr:`LazyEpToProcess.pull` (:class:`~repro.lazy.pull.PullStats`)
    and the retention counters on :attr:`LazyEpToProcess.store`;
    :meth:`LazyEpToProcess.stats_snapshot` merges all three.
    """

    id_balls_sent: int = 0
    id_balls_received: int = 0
    requests_received: int = 0
    responses_sent: int = 0
    payloads_served: int = 0
    payloads_missing: int = 0
    #: deliveries that had to wait in the gate for their payload.
    deliveries_held: int = 0
    #: estimated wire bytes of metadata shipped (id-balls, request and
    #: response framing) — the codec's layouts.
    metadata_bytes: int = 0
    #: estimated wire bytes of serialized payloads shipped (responses).
    payload_bytes: int = 0


# The wire sizes of kinds 9–11, estimated with the size functions of
# repro.core.record (the codec imports this package's protocol module,
# so importing the codec from here would be circular;
# tests/runtime/test_wire_sizes.py pins each to what the codec emits).


def _id_entry_nbytes(event: Event, ttl: int) -> int:
    """The bytes of *event*'s id-ball entry at *ttl*: ``uvarint ttl |
    uvarint head_len | head``. A head is three varints of at most ten
    bytes, so its length takes one byte."""
    return uvarint_nbytes(ttl) + 1 + wire_sizes(event)[2]


def _request_nbytes(sender: int, request: PayloadRequest) -> int:
    """The bytes of *request* from *sender*: the header, ``req_id
    uvarint`` and one pair per id."""
    return (
        header_nbytes(sender, len(request.ids))
        + uvarint_nbytes(request.req_id)
        + sum(map(pair_nbytes, request.ids))
    )


def _response_nbytes(sender: int, response: PayloadResponse) -> int:
    """The bytes of *response* from *sender*: the header, ``req_id
    uvarint | missing uvarint``, one framed record per event and one
    pair per missing id."""
    return (
        header_nbytes(sender, len(response.events))
        + uvarint_nbytes(response.req_id)
        + uvarint_nbytes(len(response.missing))
        + sum(map(framed_record_nbytes, response.events))
        + sum(map(pair_nbytes, response.missing))
    )


class _MetadataTransport:
    """Transport adapter: outgoing balls leave as id-balls."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "LazyEpToProcess") -> None:
        self._owner = owner

    def send(self, src: int, dst: int, ball: Ball) -> None:
        self.send_many(src, (dst,), ball)

    def send_many(self, src: int, dsts, ball: Ball) -> None:
        owner = self._owner
        # An event this node relays from an id-ball has no payload
        # already, and keeps the head it arrived with, which the codec
        # ships verbatim; only its own broadcasts (and events of a full
        # ball) are stripped. The TTL map is the round's own: nothing
        # mutates a ball.
        events = {
            event_id: event
            if event.payload is None
            else Event(id=event_id, ts=event.ts, source_id=event.source_id)
            for event_id, event in ball.events.items()
        }
        id_ball = IdBall(Ball(events, ball.ttls, shared=ball.shared))
        owner._transport.send_many(src, dsts, id_ball)
        # Measured after the send: a wire fabric encoded the ball, and
        # the heads it built are what the estimate reads.
        fan = len(dsts)
        owner.lazy_stats.id_balls_sent += fan
        owner.lazy_stats.metadata_bytes += fan * (
            header_nbytes(src, len(events))
            + sum(map(_id_entry_nbytes, events.values(), ball.ttls.values()))
        )


class LazyEpToProcess:
    """One lazy-mode EpTO participant.

    Accepts the same keyword surface as
    :class:`~repro.core.process.EpToProcess`, so the hosting runtimes
    can build either from one call site. Payloads are retained for
    ``RETENTION_TTL_FACTOR * ttl + RETENTION_SLACK_ROUNDS`` rounds, and
    a pull unanswered for :data:`PULL_TIMEOUT_ROUNDS` rounds is retried.
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
        self._transport = transport
        self._user_deliver = on_deliver
        self.store = PayloadStore(
            RETENTION_TTL_FACTOR * config.ttl + RETENTION_SLACK_ROUNDS
        )
        self.pull = PullManager(node_id, timeout_rounds=PULL_TIMEOUT_ROUNDS, rng=rng)
        self.lazy_stats = LazyStats()
        self._held: Deque[Event] = collections.deque()
        self._round_no = 0
        self.process = EpToProcess(
            node_id=node_id,
            config=config,
            peer_sampler=peer_sampler,
            transport=_MetadataTransport(self),
            on_deliver=self._gate_deliver,
            on_out_of_order=on_out_of_order,
            time_source=time_source,
            rng=rng,
            oracle=oracle,
            system_size_hint=system_size_hint,
        )

    # ------------------------------------------------------------------
    # GossipProcess surface
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any = None) -> Event:
        """EpTO-broadcast *payload*; the full event enters the store so
        this node can serve pulls (and deliver its own event ungated)."""
        event = self.process.broadcast(payload)
        self.store.put(event, self._round_no)
        return event

    def on_ball(self, ball: Ball) -> None:
        """Full eager ball (mixed-mode peer or external repair): the
        payloads are right there, so store them and proceed eagerly."""
        for event in ball.events.values():
            self.store.put(event, self._round_no)
        self.process.on_ball(ball)
        self._release()

    def on_round(self) -> None:
        """One round: dissemination/ordering tick (ships the id-ball),
        store GC, then the pull schedule."""
        self._round_no += 1
        self.process.on_round()
        self.store.gc(self._round_no)
        for dst, request in self.pull.collect(self._round_no):
            self.lazy_stats.metadata_bytes += _request_nbytes(self.node_id, request)
            self._transport.send(self.node_id, dst, request)

    def resume_sequence(self, next_seq: int) -> None:
        """Fast-forward the event-id sequence (same-identity restart)."""
        self.process.resume_sequence(next_seq)

    # ------------------------------------------------------------------
    # Lazy wire entry points
    # ------------------------------------------------------------------

    def on_lazy_message(self, src: int, message: Any) -> None:
        """Dispatch one of the three lazy wire kinds from *src*."""
        if isinstance(message, IdBall):
            self.on_id_ball(src, message)
        elif isinstance(message, PayloadRequest):
            self.on_payload_request(src, message)
        elif isinstance(message, PayloadResponse):
            self.on_payload_response(src, message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a lazy wire message: {type(message).__name__}")

    def on_id_ball(self, src: int, id_ball: IdBall) -> None:
        """Metadata ball from *src*: register wants, order metadata."""
        self.lazy_stats.id_balls_received += 1
        ball = id_ball.ball
        ttl_bound = self.config.ttl
        store = self.store
        for event_id, ttl in ball.ttls.items():
            if ttl >= ttl_bound:
                # The dissemination component drops expired entries
                # entirely (they never reach ordering), so pulling
                # their payloads would be wasted traffic.
                continue
            if event_id not in store:
                # The relayer advertises first; the source is the
                # fallback of last resort (it always held the payload).
                self.pull.want(event_id, advertisers=(src, event_id[0]))
        self.process.on_ball(ball)

    def on_payload_request(self, src: int, request: PayloadRequest) -> None:
        """Serve a pull: full events for held ids, ``missing`` for the
        rest (the requester retries elsewhere immediately)."""
        self.lazy_stats.requests_received += 1
        events: List[Event] = []
        missing: List = []
        for event_id in request.ids:
            event = self.store.serve(event_id)
            if event is None:
                missing.append(event_id)
            else:
                events.append(event)
        self.lazy_stats.payloads_served += len(events)
        self.lazy_stats.payloads_missing += len(missing)
        self.lazy_stats.responses_sent += 1
        response = PayloadResponse(
            req_id=request.req_id, events=tuple(events), missing=tuple(missing)
        )
        payload = sum(wire_sizes(event)[1] for event in events)
        self.lazy_stats.payload_bytes += payload
        self.lazy_stats.metadata_bytes += (
            _response_nbytes(self.node_id, response) - payload
        )
        self._transport.send(self.node_id, src, response)

    def on_payload_response(self, src: int, response: PayloadResponse) -> None:
        """A pull answered: store the payloads, release the gate."""
        for event in response.events:
            self.pull.satisfy(event.id)
            self.store.put(event, self._round_no)
        for event_id in response.missing:
            self.pull.reject(event_id, src)
        self.pull.acknowledge(response.req_id)
        self._release()

    # ------------------------------------------------------------------
    # Delivery gate
    # ------------------------------------------------------------------

    def _gate_deliver(self, meta_event: Event) -> None:
        """Ordering component delivery callback: release when the
        payload is here, hold (in order) when it is not."""
        if not self._held:
            full = self.store.get(meta_event.id)
            if full is not None:
                self._user_deliver(full)
                return
        self.lazy_stats.deliveries_held += 1
        self._held.append(meta_event)
        # Normally registered at metadata arrival; this covers events
        # reaching ordering through paths that bypassed on_id_ball.
        self.pull.want(meta_event.id, advertisers=(meta_event.source_id,))

    def _release(self) -> None:
        held = self._held
        while held:
            full = self.store.get(held[0].id)
            if full is None:
                return
            held.popleft()
            self._user_deliver(full)

    # ------------------------------------------------------------------
    # Introspection (cluster/runtime compatibility surface)
    # ------------------------------------------------------------------

    @property
    def dissemination(self):
        """The inner dissemination component (crash/respawn hooks)."""
        return self.process.dissemination

    @property
    def pending_count(self) -> int:
        """Received-but-undelivered events (including gate-held ones)."""
        return self.process.pending_count + len(self._held)

    @property
    def held_count(self) -> int:
        """Deliveries currently blocked on payload arrival."""
        return len(self._held)

    @property
    def delivered_count(self) -> int:
        """Events released to the application in total order."""
        return self.process.delivered_count - len(self._held)

    def peek(self):
        """§8.4 stability estimates (delegates to the inner process)."""
        return self.process.peek()

    def stats_snapshot(self) -> dict:
        """All lazy counters in one flat dict (benchmarks, drills)."""
        snapshot = {
            "id_balls_sent": self.lazy_stats.id_balls_sent,
            "id_balls_received": self.lazy_stats.id_balls_received,
            "requests_received": self.lazy_stats.requests_received,
            "responses_sent": self.lazy_stats.responses_sent,
            "payloads_served": self.lazy_stats.payloads_served,
            "payloads_missing": self.lazy_stats.payloads_missing,
            "deliveries_held": self.lazy_stats.deliveries_held,
            "metadata_bytes": self.lazy_stats.metadata_bytes,
            "payload_bytes": self.lazy_stats.payload_bytes,
            "pulls_issued": self.pull.stats.pulls_issued,
            "pulls_retried": self.pull.stats.pulls_retried,
            "pulls_served": self.pull.stats.pulls_served,
            "pulls_failed": self.pull.stats.pulls_failed,
            "requests_sent": self.pull.stats.requests_sent,
            "store_stored": self.store.stats.stored,
            "store_served": self.store.stats.served,
            "store_evicted": self.store.stats.evicted,
            "store_misses": self.store.stats.misses,
        }
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyEpToProcess(id={self.node_id}, held={len(self._held)}, "
            f"pending_pulls={self.pull.pending_count})"
        )
