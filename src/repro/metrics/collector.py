"""Delivery instrumentation for experiments (paper §6).

The paper's evaluation focuses on the *delivery delay* — "the time
elapsed between an event creation and its reception" — together with
the absence of holes and order violations. :class:`DeliveryCollector`
records every broadcast and delivery in a run and derives:

* the delay samples that back all the CDF figures (6, 7a, 7b, 8, 9, 10);
* per-process delivery sequences for the Table 1 checker
  (:mod:`repro.metrics.checker`, which also counts holes);
* the processes "that remained in the system long enough" (paper §6,
  churn experiments), whose holes the churn figures report.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..core.event import Event, EventId, OrderKey
from ..sync.protocol import canonical_event_bytes


def event_fingerprint(event: Event) -> int:
    """CRC32 of the event's canonical bytes.

    Two sightings of the same ``(source, seq)`` id with different
    fingerprints mean different *content* travelled under one identity
    — the observable of forgery and equivocation
    (:func:`repro.metrics.checker.check_authenticity`).
    """
    return zlib.crc32(canonical_event_bytes(event))


@dataclass(slots=True)
class BroadcastRecord:
    """One broadcast: who sent what, when."""

    event: Event
    time: int


@dataclass(slots=True)
class DeliveryRecord:
    """One delivery: which process delivered which event, when.

    ``fingerprint`` is only populated by fingerprinting collectors
    (``DeliveryCollector(fingerprints=True)``); ``None`` otherwise.
    """

    node_id: int
    event_id: EventId
    time: int
    fingerprint: Optional[int] = None


@dataclass(slots=True)
class NodeLifetime:
    """Join/leave interval of one process (end ``None`` = still alive)."""

    joined: int
    left: Optional[int] = None


class DeliveryCollector:
    """Accumulates broadcast/delivery records for one simulation run.

    Args:
        fingerprints: When ``True``, every broadcast and delivery also
            records :func:`event_fingerprint` of the event's canonical
            bytes, enabling forgery/equivocation detection
            (:func:`repro.metrics.checker.check_authenticity`). Off by
            default — fingerprinting serializes every payload on the
            delivery hot path, which would tax benchmark timings.
    """

    def __init__(self, fingerprints: bool = False) -> None:
        self.fingerprints = bool(fingerprints)
        self._broadcasts: Dict[EventId, BroadcastRecord] = {}
        self._deliveries: List[DeliveryRecord] = []
        # Per-node delivery sequence as order keys, in delivery order.
        self._sequences: Dict[int, List[OrderKey]] = {}
        self._delivered_sets: Dict[int, Set[EventId]] = {}
        self._lifetimes: Dict[int, NodeLifetime] = {}
        self._order_keys: Dict[EventId, OrderKey] = {}
        # Genuine fingerprint per broadcast id (fingerprints=True only).
        self._genuine: Dict[EventId, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_node_added(self, node_id: int, time: int) -> None:
        """A process joined the system at *time*."""
        self._lifetimes[node_id] = NodeLifetime(joined=time)

    def record_node_removed(self, node_id: int, time: int) -> None:
        """A process left (or was churned out) at *time*."""
        lifetime = self._lifetimes.get(node_id)
        if lifetime is not None:
            lifetime.left = time

    def record_broadcast(self, event: Event, time: int) -> None:
        """An event was EpTO-broadcast at *time*."""
        self._broadcasts[event.id] = BroadcastRecord(event=event, time=time)
        self._order_keys[event.id] = event.order_key
        if self.fingerprints:
            self._genuine[event.id] = event_fingerprint(event)

    def record_delivery(self, node_id: int, event: Event, time: int) -> None:
        """*node_id* EpTO-delivered *event* at *time*."""
        fingerprint = event_fingerprint(event) if self.fingerprints else None
        self._deliveries.append(
            DeliveryRecord(
                node_id=node_id,
                event_id=event.id,
                time=time,
                fingerprint=fingerprint,
            )
        )
        self._sequences.setdefault(node_id, []).append(event.order_key)
        self._delivered_sets.setdefault(node_id, set()).add(event.id)
        self._order_keys.setdefault(event.id, event.order_key)

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------

    @property
    def broadcast_count(self) -> int:
        """Number of events broadcast during the run."""
        return len(self._broadcasts)

    @property
    def delivery_count(self) -> int:
        """Total (event, process) delivery pairs recorded."""
        return len(self._deliveries)

    def broadcasts(self) -> Sequence[BroadcastRecord]:
        """All broadcast records."""
        return list(self._broadcasts.values())

    def deliveries(self) -> Sequence[DeliveryRecord]:
        """All delivery records, in recording order."""
        return list(self._deliveries)

    def sequence_of(self, node_id: int) -> Sequence[OrderKey]:
        """Order keys delivered by *node_id*, in delivery order."""
        return tuple(self._sequences.get(node_id, ()))

    def delivered_ids_of(self, node_id: int) -> Set[EventId]:
        """Event ids delivered by *node_id*."""
        return set(self._delivered_sets.get(node_id, set()))

    def sequences(self) -> Dict[int, Sequence[OrderKey]]:
        """All per-node delivery sequences."""
        return {nid: tuple(seq) for nid, seq in self._sequences.items()}

    def known_broadcast_ids(self) -> Set[EventId]:
        """Ids of every event broadcast during the run."""
        return set(self._broadcasts)

    def lifetime_of(self, node_id: int) -> Optional[NodeLifetime]:
        """Join/leave interval of *node_id*, if tracked."""
        return self._lifetimes.get(node_id)

    def genuine_fingerprint(self, event_id: EventId) -> Optional[int]:
        """Fingerprint recorded at broadcast time for *event_id*
        (``None`` when unknown or fingerprinting is off)."""
        return self._genuine.get(event_id)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    def delivery_delays(self) -> List[int]:
        """Delay samples: delivery time minus broadcast time, per pair.

        Deliveries of events whose broadcast was not recorded (none in a
        correctly wired run) are skipped.
        """
        delays: List[int] = []
        broadcasts = self._broadcasts
        for record in self._deliveries:
            origin = broadcasts.get(record.event_id)
            if origin is not None:
                delays.append(record.time - origin.time)
        return delays

    def stable_nodes(self, since: int, until: int) -> Set[int]:
        """Processes alive for the whole ``[since, until]`` window.

        The churn experiments evaluate "processes that remained in the
        system long enough" (paper §6); this selects exactly those.
        """
        stable: Set[int] = set()
        for node_id, lifetime in self._lifetimes.items():
            if lifetime.joined <= since and (
                lifetime.left is None or lifetime.left >= until
            ):
                stable.add(node_id)
        return stable
