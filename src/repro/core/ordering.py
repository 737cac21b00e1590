"""EpTO ordering component (paper Algorithm 2).

Moves events from the ``received`` map to the ``delivered`` set while
preserving total order. An event may be delivered once:

1. it is stable: it has been relayed for more than TTL rounds
   (``ttl > TTL``, the oracle's ``ttl``), so w.h.p. every correct
   process knows it — the paper's ``isDeliverable``, the same under
   both oracles; and
2. no *non-deliverable* event in ``received`` precedes it in the total
   order — otherwise delivering it now could forever block that earlier
   event (a total-order violation).

Refinements relative to the pseudocode (argued in DESIGN.md):

* **Tie-safe discards.** Algorithm 2 line 9 discards events with
  ``ts < lastDeliveredTs`` and the final sort breaks ties by source id.
  Comparing timestamps alone can admit an event that ties on ``ts`` but
  precedes the last delivered event on the tie-breaker. We track the
  full order key ``(ts, source_id, seq)`` of the last delivered event
  and compare lexicographically, which strictly strengthens safety.
* **Bounded memory.** The paper's ``delivered`` set grows forever. A
  copy of an event can only keep arriving while the event is still
  being relayed somewhere, i.e. for O(TTL) rounds after delivery, so
  ids older than a generous ``2*TTL + 2``-round window are forgotten.
  Late copies beyond the window are still rejected by the order-key
  test; the window additionally guarantees the §8.2 tagged channel
  never re-surfaces an event that was already delivered in order.
* **Every-round invocation.** ``order_events`` is called each round
  even with an empty ball so received events keep aging (see
  :mod:`repro.core.dissemination`).

Hot-path structure (see docs/PERFORMANCE.md)
--------------------------------------------

The seed implementation (now retired; see git history and
docs/PERFORMANCE.md) did O(|received|) Python-level work on *every*
round: re-age every pending record, rescan the whole map for
deliverable records, rescan again for the minimum queued order key.
This version does amortized work proportional to what *changes* per
round instead:

* **Lazy aging** — a pending event is its birth round,
  ``received_round - ttl``: its TTL at round ``r`` is ``r - born``, so
  nothing is touched on quiet rounds.
* **Deliverability frontier** — an event's deliverability round is
  known the moment it is received (``born + TTL + 1``), so events are
  bucketed by that round and promoted O(1) when it arrives. A later
  copy can only move the birth round earlier, which reschedules the
  event earlier, so at its bucket's round an event is always stable.
  (The schedule assumes ``oracle.ttl`` is fixed for the life of the
  component — true of both oracles; dynamic reconfiguration happens
  via process restart.)
* **Lazy-deletion min-heap of queued keys** — the "earliest
  non-deliverable order key" guard is answered by a heap whose stale
  heads (promoted or delivered ids) are popped amortized O(1), not by
  a full scan.
* **Ready heap** — deliverable-but-blocked events wait in a second
  heap; each round pops only what actually gets delivered.

A round with an empty ball and nothing newly stable is O(1); a round
that delivers d events from a ball of b entries is
O((b + d) log n) rather than O(|received|). The Table 1 ordering
invariants (strictly increasing order keys, exactly-once delivery,
schedule-independent agreement) are enforced under adversarial
schedules by the Hypothesis suite in
``tests/core/test_ordering_properties.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from .clock import StabilityOracle
from .errors import OrderingInvariantError
from .event import Ball, Event, EventId, OrderKey

#: Signature of the application delivery callback.
DeliverCallback = Callable[[Event], None]

#: Order key strictly below every real key (real timestamps are >= 0).
_MINUS_INFINITY_KEY: OrderKey = (-1, -1, -1)


@dataclass(slots=True)
class OrderingStats:
    """Counters exposed for instrumentation and experiments."""

    delivered: int = 0
    discarded_duplicates: int = 0
    discarded_late: int = 0
    tagged_out_of_order: int = 0
    rounds: int = 0


class OrderingComponent:
    """Per-process ordering state machine (Algorithm 2).

    Args:
        oracle: Stability oracle; its ``ttl`` is the stability
            threshold (an event is deliverable once ``ttl > TTL``).
        deliver: Callback receiving each event, in total order.
        deliver_out_of_order: Optional callback for the paper §8.2
            *tagged delivery* extension — events whose in-order
            delivery is no longer possible are handed over tagged as
            out-of-order instead of being silently dropped. ``None``
            disables the extension (the paper's base behaviour).
    """

    def __init__(
        self,
        oracle: StabilityOracle,
        deliver: DeliverCallback,
        deliver_out_of_order: DeliverCallback | None = None,
    ) -> None:
        self.oracle = oracle
        self.deliver = deliver
        self.deliver_out_of_order = deliver_out_of_order
        self.stats = OrderingStats()
        # received: known but not yet delivered events, and each one's
        # birth round ``received_round - ttl`` (same keys): its TTL at
        # round r is ``r - born`` (see :meth:`_merge_ball`).
        self._received: dict[EventId, Event] = {}
        self._births: dict[EventId, int] = {}
        # Frontier: round -> ids predicted to become deliverable then.
        self._frontier: dict[int, List[EventId]] = {}
        # Min-heap of (order_key, id) over events not yet deliverable.
        # Lazy deletion: entries whose id was promoted or delivered are
        # skipped when the heap head is inspected.
        self._queued_heap: List[Tuple[OrderKey, EventId]] = []
        # Deliverable-but-blocked events, in order-key order.
        self._ready_heap: List[Tuple[OrderKey, EventId]] = []
        self._ready_ids: set[EventId] = set()
        # Recently delivered ids; entries expire once no further copy
        # of the event can arrive (see module docstring).
        self._delivered_ids: set[EventId] = set()
        self._delivered_expiry: Deque[tuple[int, EventId]] = deque()
        self._last_delivered_key: OrderKey = _MINUS_INFINITY_KEY
        # Whether the order mark may have passed a pending event, so
        # copies of pending events must go through the delivered and
        # late guards (see :meth:`_merge_ball`): after an external
        # delivery, until discard_obsolete_pending.
        self._mark_passed_pending = False
        # Tagged-delivery dedup (§8.2): remember recently tagged ids so
        # further copies of the same late event are not re-tagged. A
        # copy can only keep arriving while the event is still being
        # relayed, i.e. for O(TTL) more rounds, so entries expire after
        # a generous multiple of the oracle's TTL.
        self._tagged_ids: set[EventId] = set()
        self._tagged_expiry: Deque[tuple[int, EventId]] = deque()

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests, metrics and the §8.4
    # stability-exposure extension).
    # ------------------------------------------------------------------

    @property
    def received_count(self) -> int:
        """Number of known-but-undelivered events."""
        return len(self._received)

    @property
    def last_delivered_key(self) -> OrderKey:
        """Order key of the most recently delivered event."""
        return self._last_delivered_key

    def pending(self) -> List[Tuple[Event, int]]:
        """The received-but-undelivered events, each with its TTL at the
        current round (``now - born``: what the paper's eager aging
        would show)."""
        now = self.stats.rounds
        births = self._births
        return [
            (event, now - births[event_id])
            for event_id, event in self._received.items()
        ]

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------

    def order_events(self, ball: Ball) -> None:
        """Run one ordering round over *ball* (Algorithm 2).

        Called once per round by the dissemination component with the
        ball relayed this round (possibly empty).
        """
        self.stats.rounds += 1
        now = self.stats.rounds
        if self._tagged_expiry:
            self._expire_tagged()
        self._prune_delivered()

        # Lines 6-7 (lazy form): previously received events age by
        # derivation — no per-event sweep happens here.

        # Lines 8-14: merge the ball into `received`.
        if ball.ttls:
            self._merge_ball(ball, now)

        # Promote events whose deliverability round arrived.
        bucket = self._frontier.pop(now, None)
        if bucket:
            self._promote(bucket)

        # Lines 15-30 (heap form): deliver every ready event ordered
        # before the earliest still-queued key, in total order.
        if self._ready_heap:
            self._deliver_ready()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _merge_ball(self, ball: Ball, now: int) -> None:
        """Merge one round's ball into ``received`` (lines 8-14).

        The merge runs over the birth rounds: a pending event's TTL at
        *now* is ``now - born``, so a copy raises it (the max-merge of
        lines 10-12) exactly when it was born later, ``now - ttl <
        born``. Only then does the birth round change, and the due
        round ``now + TTL - ttl + 1`` move earlier; any other copy of a
        pending event costs one lookup. Nothing here delivers, so the
        order mark is read once.

        A pending event is neither delivered nor at or below the order
        mark: :meth:`_deliver_ready` delivers in key order below every
        queued key, and a copy at or below the mark is never admitted.
        So a copy of a pending event skips both guards, except after
        :meth:`deliver_external` advanced the mark past pending events,
        until :meth:`discard_obsolete_pending` drops them.
        """
        received = self._received
        births = self._births
        delivered_ids = self._delivered_ids
        ready_ids = self._ready_ids
        frontier = self._frontier
        events = ball.events
        ttl_bound = self.oracle.ttl
        last_key = self._last_delivered_key
        guarded = self._mark_passed_pending
        for event_id, ttl in ball.ttls.items():
            born = births.get(event_id)
            if born is None or guarded:
                event = events[event_id]
                if event_id in delivered_ids:
                    self.stats.discarded_duplicates += 1
                    continue
                key = (event.ts, event.source_id, event_id[1])
                if key <= last_key:
                    # Delivering now would violate total order (line 9).
                    self._handle_late_event(event)
                    continue
            if born is None:
                received[event_id] = event
                births[event_id] = now - ttl
                due = now + ttl_bound - ttl + 1
                if due <= now:
                    # Stable on arrival (relayed past the TTL already).
                    self._promote((event_id,))
                else:
                    frontier.setdefault(due, []).append(event_id)
                    heapq.heappush(self._queued_heap, (key, event_id))
            elif now - ttl < born:
                # The copy aged further elsewhere: the event becomes
                # deliverable earlier than first scheduled. The old
                # bucket entry goes stale and is skipped. (A ready
                # event is deliverable already; a larger TTL changes
                # nothing.)
                births[event_id] = now - ttl
                if event_id not in ready_ids:
                    due = now + ttl_bound - ttl + 1
                    frontier.setdefault(max(due, now), []).append(event_id)

    def _promote(self, bucket: Sequence[EventId]) -> None:
        """Move the due ids of *bucket* from queued to ready.

        An event is due at ``born + TTL + 1`` or later, and its birth
        round only moves earlier, so at its due round its TTL is past
        the bound (``ttl > TTL``): nothing is refused.
        """
        received = self._received
        ready_ids = self._ready_ids
        for event_id in bucket:
            event = received.get(event_id)
            if event is None or event_id in ready_ids:
                continue  # delivered meanwhile, or rescheduled earlier
            ready_ids.add(event_id)
            heapq.heappush(self._ready_heap, (event.order_key, event_id))

    def _min_queued_key(self) -> Optional[OrderKey]:
        """Smallest order key among non-deliverable events (lazy heap).

        Heads whose id was promoted or delivered are discarded as they
        surface — each entry is popped at most once over its lifetime,
        so the scan is amortized O(1) per event.
        """
        heap = self._queued_heap
        received = self._received
        ready_ids = self._ready_ids
        while heap:
            key, event_id = heap[0]
            if event_id in received and event_id not in ready_ids:
                return key
            heapq.heappop(heap)
        return None

    def _deliver_ready(self) -> None:
        """Deliver ready events ordered before every queued key."""
        ready_heap = self._ready_heap
        received = self._received
        min_queued_key = self._min_queued_key()
        while ready_heap:
            key, event_id = ready_heap[0]
            if event_id not in received:
                # Stale head: the event was removed between rounds by
                # an external (anti-entropy) delivery.
                heapq.heappop(ready_heap)
                continue
            if min_queued_key is not None and key >= min_queued_key:
                # Lines 22-26: delivering past a still-queued event
                # could violate total order once it stabilizes.
                break
            heapq.heappop(ready_heap)
            event = received.pop(event_id)
            self._births.pop(event_id, None)
            self._ready_ids.discard(event_id)
            if key <= self._last_delivered_key:
                # An external delivery advanced the order mark past this
                # event while it sat ready; in-order delivery is no
                # longer possible, so it takes the late-event path.
                self._handle_late_event(event)
                continue
            self._mark_delivered(event)
            self.deliver(event)
            self.stats.delivered += 1

    # ------------------------------------------------------------------
    # External (anti-entropy) delivery path — repro.sync
    # ------------------------------------------------------------------

    def deliver_external(self, event: Event) -> bool:
        """Deliver *event* outside the epidemic path (anti-entropy).

        Used by :mod:`repro.sync` to apply events fetched from a peer's
        delivery log. The event was already delivered — hence stable —
        on the serving peer, so the stability rule is bypassed; the
        only checks are the duplicate and total-order guards that every
        delivery goes through. The caller is responsible for presenting
        events in ``(ts, srcId, seq)`` order (the order the serving log
        yields them in).

        Returns ``True`` when the event was delivered, ``False`` when it
        was discarded as a duplicate or as late (order mark already
        past it).
        """
        event_id = event.id
        if event_id in self._delivered_ids:
            self.stats.discarded_duplicates += 1
            return False
        if event.order_key <= self._last_delivered_key:
            self._handle_late_event(event)
            return False
        # Drop any pending epidemic copy so the normal path cannot
        # deliver it a second time; its queued/ready heap entries go
        # stale and are skipped by the lazy-deletion scans.
        if self._received.pop(event_id, None) is not None:
            self._births.pop(event_id, None)
            self._ready_ids.discard(event_id)
        self._mark_delivered(event)
        if self._received:
            self._mark_passed_pending = True
        self.deliver(event)
        self.stats.delivered += 1
        return True

    def discard_obsolete_pending(self) -> int:
        """Drop pending events the order mark has moved past.

        After a batch of external deliveries, epidemic copies still
        sitting in ``received`` with keys at or below the new mark can
        never be delivered in order; they would each surface later as a
        late event anyway. Clearing them eagerly keeps the queued-key
        guard from blocking ready events behind events that are
        already history. Returns the number of events discarded (each
        is routed through the late-event path, so §8.2 tagging still
        applies).
        """
        mark = self._last_delivered_key
        stale = [
            event_id
            for event_id, event in self._received.items()
            if event.order_key <= mark
        ]
        for event_id in stale:
            event = self._received.pop(event_id)
            self._births.pop(event_id, None)
            self._ready_ids.discard(event_id)
            self._handle_late_event(event)
        self._mark_passed_pending = False
        return len(stale)

    def _handle_late_event(self, event: Event) -> None:
        """Deal with an event whose in-order delivery window has passed.

        Base EpTO silently drops it; with the §8.2 extension enabled the
        event is delivered tagged as out-of-order so perturbed processes
        still observe the payload. Tagged deliveries are deduplicated:
        each late event is handed over at most once.
        """
        self.stats.discarded_late += 1
        if self.deliver_out_of_order is not None and event.id not in self._tagged_ids:
            self._tagged_ids.add(event.id)
            self._tagged_expiry.append((self.stats.rounds, event.id))
            self.stats.tagged_out_of_order += 1
            self.deliver_out_of_order(event)

    def _expire_tagged(self) -> None:
        """Forget tagged ids old enough that no further copy can arrive."""
        horizon = self.stats.rounds - (2 * self.oracle.ttl + 2)
        expiry = self._tagged_expiry
        while expiry and expiry[0][0] < horizon:
            _, event_id = expiry.popleft()
            self._tagged_ids.discard(event_id)

    def _mark_delivered(self, event: Event) -> None:
        """Record a delivery, enforcing and advancing the order mark."""
        key = event.order_key
        if key <= self._last_delivered_key:
            raise OrderingInvariantError(
                f"delivery of {event!r} (key {key}) would not advance the "
                f"last delivered key {self._last_delivered_key}"
            )
        self._last_delivered_key = key
        self._delivered_ids.add(event.id)
        self._delivered_expiry.append((self.stats.rounds, event.id))

    def _prune_delivered(self) -> None:
        """Forget delivered ids once no further copy can arrive.

        An event stops circulating at most TTL relay rounds after its
        creation; a ``2*TTL + 2``-round retention window (matching the
        tagged-dedup window and covering cross-process round skew)
        therefore keeps every id that could still be duplicated while
        bounding memory by the recent delivery rate.
        """
        horizon = self.stats.rounds - (2 * self.oracle.ttl + 2)
        expiry = self._delivered_expiry
        while expiry and expiry[0][0] < horizon:
            _, event_id = expiry.popleft()
            self._delivered_ids.discard(event_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OrderingComponent(received={len(self._received)}, "
            f"delivered={self.stats.delivered}, "
            f"last_key={self._last_delivered_key})"
        )
