"""Event model for EpTO (paper §3).

An *event* is the unit of information broadcast through the system. The
paper's pseudocode attaches three pieces of metadata to each event: a
unique identifier, a timestamp ``ts`` assigned by the broadcaster's
clock, and the broadcaster identifier ``sourceId`` used to break
timestamp ties. The pseudocode also mutates a ``ttl`` field in place;
we instead keep :class:`Event` immutable and carry the TTL alongside it
(in a :class:`Ball`'s TTL map on the wire and in per-process records
locally), which matches message-passing semantics — every process owns
its own ageing counters and a relayed ball cannot alias another
process's state.

Ordering
--------

Events are totally ordered by :attr:`Event.order_key`, the tuple
``(ts, source_id, seq)``. The paper orders by ``(ts, srcId)`` only;
we append the per-source sequence number so that two events broadcast
by the same process within the same clock tick (possible with the
global clock, impossible with the logical clock which increments on
every broadcast) still have distinct, deterministically comparable
keys. The extra component is generated by the source, so every process
computes the same order. See DESIGN.md, *Faithfulness notes*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

if TYPE_CHECKING:  # the record module builds on this one
    from .record import WireRecord

#: Globally unique event identifier: ``(source_id, per-source sequence)``.
EventId = tuple[int, int]

#: Total-order sort key: ``(timestamp, source_id, per-source sequence)``.
OrderKey = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class Event:
    """An immutable application event flowing through EpTO.

    Attributes:
        id: Unique identifier, ``(source_id, seq)`` where ``seq`` is a
            per-source monotonically increasing counter.
        ts: Timestamp assigned by the broadcaster's clock when the
            event was EpTO-broadcast (global time or Lamport scalar).
        source_id: Identifier of the broadcasting process. Used to
            break timestamp ties deterministically.
        payload: Opaque application data carried by the event.
    """

    id: EventId
    ts: int
    source_id: int
    payload: Any = None
    #: Cache slot of :func:`repro.core.record.wire_record` and
    #: :func:`~repro.core.record.wire_sizes` (``None``: not measured
    #: yet). Not part of the event's value.
    _wire: Optional[WireRecord] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.id[0] != self.source_id:
            raise ValueError(
                f"event id {self.id!r} does not match source_id {self.source_id!r}"
            )

    @property
    def seq(self) -> int:
        """Per-source sequence number (second component of :attr:`id`)."""
        return self.id[1]

    @property
    def order_key(self) -> OrderKey:
        """Deterministic total-order key: ``(ts, source_id, seq)``."""
        return (self.ts, self.source_id, self.id[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(id={self.id}, ts={self.ts}, src={self.source_id}, "
            f"payload={self.payload!r})"
        )


_TS = attrgetter("ts")


class Ball:
    """A ball: the events a process relays in one round, each with its
    relay TTL (paper §4.2, Algorithm 1's ``nextBall``).

    ``events`` is ``{event id: Event}`` and ``ttls`` ``{event id:
    ttl}``, with the same keys in the same order — the entry order, in
    which a ball is encoded and merged. The TTL counts how many rounds
    the event has been relayed so far; a receiver copies it into its own
    records. Being a map, a ball names an id at most once: the codec
    refuses a wire ball that names one twice.

    This is the one shape of a ball on every fabric and every wire kind:
    what :meth:`DisseminationComponent.round_tick
    <repro.core.dissemination.DisseminationComponent.round_tick>`
    ships, what a plain wire ball decodes into, and what a signed ball
    (:class:`~repro.auth.authenticator.SignedBall`) and a lazy id-ball
    (:class:`~repro.lazy.protocol.IdBall`) wrap. Neither map is ever
    mutated once the ball is built: all receivers of a round's ball, and
    any duplicate still in flight, share the one object.

    Args:
        events: ``{event id: Event}``.
        ttls: ``{event id: ttl}`` for exactly those ids, in their order.
        shared: Whether the ball is handed to several receivers (a
            round's ball on an in-process fabric): it then keeps the
            split of its TTL map under each receiver bound for the next
            receiver with that bound (:meth:`split`).
    """

    __slots__ = ("events", "ttls", "_max_ts", "_max_ttl", "_splits")

    def __init__(
        self,
        events: Dict[EventId, Event],
        ttls: Dict[EventId, int],
        shared: bool = False,
    ) -> None:
        self.events = events
        self.ttls = ttls
        self._max_ts: Optional[int] = None
        self._max_ttl: Optional[int] = None
        self._splits: Optional[Dict[int, Tuple[Dict[EventId, int], int]]] = (
            {} if shared else None
        )

    @classmethod
    def of(cls, pairs: Iterable[Tuple[Event, int]]) -> "Ball":
        """The ball of ``(event, ttl)`` *pairs*, in their order.

        Raises:
            ValueError: On a negative TTL, or an event id named twice.
        """
        events: Dict[EventId, Event] = {}
        ttls: Dict[EventId, int] = {}
        for event, ttl in pairs:
            if ttl < 0:
                raise ValueError(f"negative ttl {ttl} for event {event.id}")
            if event.id in ttls:
                raise ValueError(f"event {event.id} is named twice in one ball")
            events[event.id] = event
            ttls[event.id] = ttl
        return cls(events, ttls)

    @property
    def shared(self) -> bool:
        """Whether the ball keeps its splits for several receivers."""
        return self._splits is not None

    @property
    def max_ts(self) -> int:
        """Largest timestamp over *all* entries, expired ones included:
        what Algorithm 4's per-entry max-merge leaves in the clock (0
        for an empty ball). Taken on first use, like :attr:`max_ttl`:
        only a logical clock reads it."""
        if self._max_ts is None:
            self._max_ts = max(map(_TS, self.events.values()), default=0)
        return self._max_ts

    @property
    def max_ttl(self) -> int:
        """Largest TTL over all entries (0 for an empty ball): a ball
        whose entries are all below a receiver's bound has nothing to
        drop there."""
        if self._max_ttl is None:
            self._max_ttl = max(self.ttls.values(), default=0)
        return self._max_ttl

    def split(self, ttl_bound: int) -> Tuple[Dict[EventId, int], int]:
        """``(live, expired)`` of the TTL map under a receiver's
        *ttl_bound*: *live* is the map without the entries at ``ttl >=
        ttl_bound`` (the map itself when there are none, which
        :attr:`max_ttl` tells without a pass), and *expired* counts
        those. The bound is the receiver's to supply because two nodes
        need not agree on it; a shared ball takes each split once."""
        splits = self._splits
        split = None if splits is None else splits.get(ttl_bound)
        if split is None:
            ttls = self.ttls
            if self.max_ttl < ttl_bound:
                split = ttls, 0
            else:
                live = {eid: ttl for eid, ttl in ttls.items() if ttl < ttl_bound}
                split = live, len(ttls) - len(live)
            if splits is not None:
                splits[ttl_bound] = split
        return split

    @property
    def entries(self) -> "Ball":
        """The ball itself, like ``SignedBall.entries`` and
        ``IdBall.entries``: sized by its entries."""
        return self

    def __len__(self) -> int:
        return len(self.ttls)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ball):
            return NotImplemented
        return list(self.ttls.items()) == list(other.ttls.items()) and list(
            self.events.values()
        ) == list(other.events.values())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ball({list(self.ttls.items())!r})"


@dataclass(slots=True)
class EventRecord:
    """Mutable per-process bookkeeping for a known event.

    Used by the ordering component (``received``) and the pbcast
    baseline; the dissemination component keeps ``nextBall`` as a plain
    ``{event id: ttl}`` instead, so that a received :class:`Ball` can be
    tested against it in C. The paper mutates ``event.ttl`` directly; we
    keep the event immutable and age this record instead.

    Aging comes in two flavours:

    * **Eager** (:meth:`age`): ``ttl += 1`` per round, exactly the
      paper's pseudocode. Fine for records that live a single round.
    * **Lazy**: the record remembers the round at which ``ttl`` was
      last materialized (:attr:`received_round`) and derives the
      current value as ``ttl + (current_round - received_round)``
      (:meth:`ttl_at`). The ordering component holds records for many
      rounds; deriving the TTL on demand turns the per-round
      "age everything" sweep into O(1) bookkeeping — the hot-path
      optimisation described in docs/PERFORMANCE.md.
    """

    event: Event
    ttl: int
    received_round: int = 0

    def age(self) -> None:
        """Advance the record by one round (paper: ``ttl += 1``)."""
        self.ttl += 1

    def ttl_at(self, current_round: int) -> int:
        """TTL the paper's eager aging would show at *current_round*.

        The record ages by one per round since ``received_round``, so
        the value is derived instead of stored — no per-round sweep.
        """
        return self.ttl + (current_round - self.received_round)

    def rebase(self, current_round: int) -> None:
        """Materialize the lazily derived TTL as of *current_round*."""
        self.ttl = self.ttl_at(current_round)
        self.received_round = current_round

    def merge_ttl(self, other_ttl: int) -> None:
        """Keep the largest TTL of two sightings of the same event.

        Paper Algorithm 1 lines 14–16 and Algorithm 2 lines 10–12:
        when an event is seen twice, the occurrence that has been
        relayed the longest wins, avoiding both excessive
        retransmission and understating stability.
        """
        if other_ttl > self.ttl:
            self.ttl = other_ttl


@dataclass(slots=True)
class EventIdGenerator:
    """Produces per-source sequential event ids.

    Each EpTO process owns one generator; ids are ``(source_id, seq)``
    with ``seq`` starting at 0 and incrementing on every broadcast.
    """

    source_id: int
    _next_seq: int = field(default=0)

    def next_id(self) -> EventId:
        """Return a fresh id and advance the sequence counter."""
        event_id = (self.source_id, self._next_seq)
        self._next_seq += 1
        return event_id

    def resume(self, next_seq: int) -> None:
        """Fast-forward the counter to at least *next_seq*.

        Used when a process restarts under the same identity after a
        crash: reissuing an already-used ``(source, seq)`` pair would
        violate event-id uniqueness (and thus integrity), so the
        replacement process resumes the sequence where its predecessor
        stopped. Never rewinds.
        """
        self._next_seq = max(self._next_seq, int(next_seq))

    @property
    def issued(self) -> int:
        """Number of ids issued so far."""
        return self._next_seq
