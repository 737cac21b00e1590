"""Durable delivery log + snapshot/recovery subsystem.

EpTO's safety is deterministic but, without this package, dies with
the process: a respawned node resumes its broadcast sequence in-memory
and forgets every delivered event and all replicated state. The
storage subsystem makes node state outlive the process — the
crash-recovery analogue of checkpoint/resume in a training stack, and
the behaviour that motivates self-stabilizing total-order broadcast
(Lundström, Raynal & Schiller 2022):

* :class:`~repro.storage.log.DeliveryLog` — segmented, CRC-checksummed
  append-only log of deliveries (+ broadcast sequence markers), with
  segment rotation, torn-tail repair on open, a reader that stops at
  the last valid record instead of crashing or skipping, and a
  tunable fsync policy;
* :class:`~repro.storage.snapshot.SnapshotStore` — atomic
  (write-temp, fsync, rename) retained checkpoints of
  :class:`~repro.smr.machine.StateMachine` state;
* :func:`~repro.storage.recovery.recover` — restores a replica from
  latest-snapshot + log-suffix replay, deduplicating re-delivered
  events by their ``(ts, srcId)`` order key;
* :class:`~repro.storage.journal.DeliveryJournal` — the live per-node
  object the runtimes wire in via their ``journal=`` /
  ``storage_dir=`` hooks.

See docs/STORAGE.md for the on-disk format and recovery protocol.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".journal": ("DeliveryJournal", "JournalStats"),
        ".log": ("FSYNC_POLICIES", "DeliveryLog", "LogReadReport", "LogStats"),
        ".records": ("BroadcastMarker", "DeliveryRecord", "LogRecord"),
        ".recovery": ("LOG_SUBDIR", "RecoveredState", "recover"),
        ".snapshot": ("Snapshot", "SnapshotStore"),
    },
)
