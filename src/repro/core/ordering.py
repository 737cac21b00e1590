"""EpTO ordering component (paper Algorithm 2).

Moves events from the ``received`` map to the ``delivered`` set while
preserving total order. An event may be delivered once:

1. the stability oracle deems it deliverable (it has been relayed for
   more than TTL rounds, so w.h.p. every correct process knows it), and
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

* **Lazy aging** — records store the round they were (re)based at and
  derive their TTL on demand (:meth:`EventRecord.ttl_at`); nothing is
  touched on quiet rounds.
* **Deliverability frontier** — with the shipped oracles an event's
  deliverability round is known the moment it is received
  (``received_round + TTL - ttl + 1``), so records are bucketed by
  that round and promoted O(1) when it arrives. Promotion re-checks
  ``oracle.is_deliverable`` and reschedules one round ahead if a
  custom oracle disagrees, so correctness never depends on the
  prediction. (The schedule does assume ``oracle.ttl`` is fixed for
  the life of the component — true of both shipped oracles; dynamic
  reconfiguration happens via process restart.)
* **Lazy-deletion min-heap of queued keys** — the "earliest
  non-deliverable order key" guard is answered by a heap whose stale
  heads (promoted or delivered ids) are popped amortized O(1), not by
  a full scan.
* **Ready heap** — deliverable-but-blocked records wait in a second
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
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from .clock import StabilityOracle
from .errors import OrderingInvariantError
from .event import Ball, Event, EventId, EventRecord, OrderKey

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
        oracle: Stability oracle (``isDeliverable``).
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
        # received: known but not yet delivered events (lazy TTLs).
        self._received: dict[EventId, EventRecord] = {}
        # Frontier: round -> ids predicted to become deliverable then.
        self._frontier: dict[int, List[EventId]] = {}
        # Min-heap of (order_key, id) over records not yet deliverable.
        # Lazy deletion: entries whose id was promoted or delivered are
        # skipped when the heap head is inspected.
        self._queued_heap: List[Tuple[OrderKey, EventId]] = []
        # Deliverable-but-blocked records, in order-key order.
        self._ready_heap: List[Tuple[OrderKey, EventId]] = []
        self._ready_ids: set[EventId] = set()
        # Recently delivered ids; entries expire once no further copy
        # of the event can arrive (see module docstring).
        self._delivered_ids: set[EventId] = set()
        self._delivered_expiry: Deque[tuple[int, EventId]] = deque()
        self._last_delivered_key: OrderKey = _MINUS_INFINITY_KEY
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

    def pending_records(self) -> Iterable[EventRecord]:
        """Snapshot of the received-but-undelivered records.

        Lazy TTLs are materialized to the current round first, so
        ``record.ttl`` reads as if the paper's eager aging had run.
        """
        now = self.stats.rounds
        records = list(self._received.values())
        for record in records:
            record.rebase(now)
        return records

    def is_delivered(self, event_id: EventId) -> bool:
        """Whether *event_id* was delivered within the retention window.

        Ids older than the ``2*TTL + 2``-round window are forgotten
        (their copies can no longer arrive); such ids report ``False``
        here but are still rejected by the order-key test.
        """
        return event_id in self._delivered_ids

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
        self._expire_tagged()
        self._prune_delivered()

        # Lines 6-7 (lazy form): previously received events age by
        # derivation — no per-record sweep happens here.

        # Lines 8-14: merge the ball into `received`.
        if ball:
            self._merge_ball(ball, now)

        # Promote records whose deliverability round arrived.
        bucket = self._frontier.pop(now, None)
        if bucket:
            self._promote(bucket, now)

        # Lines 15-30 (heap form): deliver every ready record ordered
        # before the earliest still-queued key, in total order.
        if self._ready_heap:
            self._deliver_ready()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _merge_ball(self, ball: Ball, now: int) -> None:
        """Merge one round's ball into ``received`` (lines 8-14).

        The record arithmetic of :class:`EventRecord` is spelled out
        inline: a known record is rebased to *now* (``ttl_at``) and
        max-merged with the copy's TTL. Its due round ``now + TTL - ttl
        + 1`` moves earlier exactly when the merged TTL exceeds the aged
        one. Nothing here delivers, so the order mark is read once.
        """
        received = self._received
        delivered_ids = self._delivered_ids
        ready_ids = self._ready_ids
        frontier = self._frontier
        ttl_bound = self.oracle.ttl
        last_key = self._last_delivered_key
        for event, ttl in zip(ball.events.values(), ball.ttls.values()):
            event_id = event.id
            if event_id in delivered_ids:
                self.stats.discarded_duplicates += 1
                continue
            key = (event.ts, event.source_id, event_id[1])
            if key <= last_key:
                # Delivering now would violate total order (line 9).
                self._handle_late_event(event)
                continue
            record = received.get(event_id)
            if record is not None:
                aged = record.ttl + now - record.received_round
                record.received_round = now
                if ttl > aged:
                    record.ttl = ttl
                    if event_id not in ready_ids:
                        # The merged copy aged further elsewhere: the
                        # record becomes deliverable earlier than first
                        # scheduled. The old bucket entry goes stale and
                        # is skipped. (A ready record is deliverable
                        # already; a larger TTL changes nothing.)
                        due = now + ttl_bound - ttl + 1
                        frontier.setdefault(max(due, now), []).append(event_id)
                else:
                    record.ttl = aged
            else:
                received[event_id] = EventRecord(event, ttl, now)
                due = now + ttl_bound - ttl + 1
                if due <= now:
                    # Stable on arrival (relayed past the TTL already).
                    self._promote([event_id], now)
                else:
                    frontier.setdefault(due, []).append(event_id)
                    heapq.heappush(self._queued_heap, (key, event_id))

    def _promote(self, bucket: List[EventId], now: int) -> None:
        """Move newly deliverable ids from queued to ready."""
        received = self._received
        ready_ids = self._ready_ids
        is_deliverable = self.oracle.is_deliverable
        for event_id in bucket:
            record = received.get(event_id)
            if record is None or event_id in ready_ids:
                continue  # delivered meanwhile, or rescheduled twice
            record.rebase(now)
            if is_deliverable(record):
                ready_ids.add(event_id)
                heapq.heappush(
                    self._ready_heap, (record.event.order_key, event_id)
                )
            else:
                # A custom oracle departing from the ttl > TTL rule:
                # keep the record queued and ask again next round.
                self._frontier.setdefault(now + 1, []).append(event_id)

    def _min_queued_key(self) -> Optional[OrderKey]:
        """Smallest order key among non-deliverable records (lazy heap).

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
        """Deliver ready records ordered before every queued key."""
        ready_heap = self._ready_heap
        received = self._received
        min_queued_key = self._min_queued_key()
        while ready_heap:
            key, event_id = ready_heap[0]
            if event_id not in received:
                # Stale head: the record was removed between rounds by
                # an external (anti-entropy) delivery.
                heapq.heappop(ready_heap)
                continue
            if min_queued_key is not None and key >= min_queued_key:
                # Lines 22-26: delivering past a still-queued event
                # could violate total order once it stabilizes.
                break
            heapq.heappop(ready_heap)
            record = received.pop(event_id)
            self._ready_ids.discard(event_id)
            event = record.event
            if event.order_key <= self._last_delivered_key:
                # An external delivery advanced the order mark past this
                # record while it sat ready; in-order delivery is no
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
        on the serving peer, so the TTL oracle is bypassed entirely; the
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
            self._ready_ids.discard(event_id)
        self._mark_delivered(event)
        self.deliver(event)
        self.stats.delivered += 1
        return True

    def discard_obsolete_pending(self) -> int:
        """Drop pending records the order mark has moved past.

        After a batch of external deliveries, epidemic copies still
        sitting in ``received`` with keys at or below the new mark can
        never be delivered in order; they would each surface later as a
        late event anyway. Clearing them eagerly keeps the queued-key
        guard from blocking ready events behind records that are
        already history. Returns the number of records discarded (each
        is routed through the late-event path, so §8.2 tagging still
        applies).
        """
        mark = self._last_delivered_key
        stale = [
            event_id
            for event_id, record in self._received.items()
            if record.event.order_key <= mark
        ]
        for event_id in stale:
            record = self._received.pop(event_id)
            self._ready_ids.discard(event_id)
            self._handle_late_event(record.event)
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
