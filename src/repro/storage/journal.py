"""Per-node delivery journal: the live side of durable recovery.

A :class:`DeliveryJournal` is what a running node holds: it owns the
node's :class:`~repro.storage.log.DeliveryLog` and
:class:`~repro.storage.snapshot.SnapshotStore` under one directory,
appends a record per EpTO delivery and a sequence marker per local
broadcast, and — after a restart — filters re-delivered events out of
the application stream using the recovered order-key watermark.

The watermark dedupe is what turns at-least-once epidemic re-delivery
into exactly-once application: a replacement process has no ordering
memory, so events still circulating within their TTL get delivered to
it again; :meth:`record_delivery` returns ``False`` for any event at
or below the watermark and the hosting node drops it before the
application callback. EpTO's total order makes the single watermark
sufficient — deliveries are strictly increasing in ``(ts, srcId, seq)``,
so "already recovered" is exactly "key <= watermark".

Journaling is strictly opt-in and free when absent: nodes constructed
with ``journal=None`` run the identical delivery path with zero extra
work (the acceptance bar: bit-identical benchmark metrics).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..core.event import Event, OrderKey
from .log import DeliveryLog
from .records import BroadcastMarker, DeliveryRecord
from .recovery import LOG_SUBDIR, RecoveredState
from .snapshot import Snapshot, SnapshotStore


#: Snapshots a journal's store keeps.
SNAPSHOT_RETAIN = 2


@dataclass(slots=True)
class JournalStats:
    """Counters of one journal incarnation."""

    recorded: int = 0
    deduplicated: int = 0
    markers: int = 0
    snapshots: int = 0
    segments_pruned: int = 0


class DeliveryJournal:
    """Durable delivery log + snapshots for one node identity.

    Args:
        directory: This node's storage directory (snapshots at the top
            level, log segments under ``log/``).
        fsync: Log durability policy
            (:data:`repro.storage.log.FSYNC_POLICIES`).
        segment_max_bytes: Log segment rotation threshold.
        resume: Recovery outcome to continue from
            (:func:`repro.storage.recovery.recover`); seeds the dedupe
            watermark, sequence counter and applied count. ``None``
            starts a fresh history. The caller must run recovery
            *before* constructing the journal — construction opens the
            log for append (repairing any torn tail in the process).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "rotate",
        segment_max_bytes: int = 1 << 20,
        resume: Optional[RecoveredState] = None,
    ) -> None:
        self.directory = Path(directory)
        self.stats = JournalStats()
        self.snapshots = SnapshotStore(self.directory, retain=SNAPSHOT_RETAIN)
        self.log = DeliveryLog(
            self.directory / LOG_SUBDIR,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
        )
        self._watermark: Optional[OrderKey] = None
        self._last_key: Optional[OrderKey] = None
        self._next_seq = 0
        self._applied_total = 0
        self._source_watermarks: Dict[int, int] = {}
        if resume is not None:
            self._watermark = resume.last_delivered_key
            self._last_key = resume.last_delivered_key
            self._next_seq = resume.next_seq
            self._applied_total = resume.applied_count
            self._source_watermarks.update(resume.source_watermarks)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_delivery(self, event: Event) -> bool:
        """Journal one EpTO delivery; returns whether to apply it.

        ``False`` means the event is a post-restart re-delivery already
        covered by the recovered history: it is neither logged nor — by
        contract with the hosting node — handed to the application.
        """
        key = event.order_key
        if self._watermark is not None and key <= self._watermark:
            self.stats.deduplicated += 1
            return False
        self.log.append(DeliveryRecord(event))
        self._last_key = key
        self._applied_total += 1
        self.stats.recorded += 1
        source = event.source_id
        if event.seq > self._source_watermarks.get(source, -1):
            self._source_watermarks[source] = event.seq
        return True

    def record_broadcast(self, event: Event) -> None:
        """Journal the sequence number of a local broadcast."""
        self.log.append(BroadcastMarker(event.seq))
        self._next_seq = max(self._next_seq, event.seq + 1)
        self.stats.markers += 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def save_snapshot(self, state: Any, prune_log: bool = True) -> Snapshot:
        """Checkpoint *state* (covering every delivery journaled so
        far) and, by default, prune log segments the snapshot covers.

        *state* must be the machine state with exactly the journaled
        deliveries applied — the caller snapshots the same machine the
        delivery stream feeds.
        """
        snapshot = self.snapshots.save(
            state,
            last_delivered_key=self._last_key,
            next_seq=self._next_seq,
            applied_count=self._applied_total,
            source_watermarks=self._source_watermarks,
        )
        self.stats.snapshots += 1
        if prune_log and self._last_key is not None:
            self.stats.segments_pruned += self.log.truncate_upto(self._last_key)
        return snapshot

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def last_delivered_key(self) -> Optional[OrderKey]:
        """Order key of the newest journaled delivery (this history)."""
        return self._last_key

    @property
    def next_seq(self) -> int:
        """Broadcast sequence a successor must resume from."""
        return self._next_seq

    @property
    def applied_count(self) -> int:
        """Deliveries journaled across all recovered incarnations."""
        return self._applied_total

    @property
    def source_watermarks(self) -> Dict[int, int]:
        """Per-source high watermarks: for every source id, the highest
        sequence number this history has delivered from it (across all
        recovered incarnations). The digest half of the anti-entropy
        exchange (:mod:`repro.sync`)."""
        return dict(self._source_watermarks)

    def delivered_after(self, order_key: Optional[OrderKey]) -> Iterator[Event]:
        """Serve the delivery-log suffix strictly above *order_key*.

        The range read behind ``SYNC_REQUEST``: events come back in
        ``(ts, srcId, seq)`` order straight from the retained log
        segments. History already compacted into a snapshot (pruned
        segments) is not servable — peers that far behind catch up from
        a node with a longer retained log.
        """
        return self.log.delivered_after(order_key)

    def sync(self) -> None:
        """Force the log to disk now (overrides the fsync policy)."""
        self.log.sync()

    def close(self) -> None:
        """Close the log; the journal must not be written afterwards."""
        self.log.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran."""
        return self.log.closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeliveryJournal(dir={str(self.directory)!r}, "
            f"recorded={self.stats.recorded}, deduped={self.stats.deduplicated})"
        )
