"""Exactly-once across sync + crash/recovery (satellite of docs/SYNC.md).

Events repaired through anti-entropy are journaled like any epidemic
delivery, so after a *subsequent* crash and recovery they must not be
re-applied — neither by a late epidemic copy nor by another sync pass.
"""

from __future__ import annotations

from repro.core.event import Event
from repro.storage.journal import DeliveryJournal
from repro.storage.recovery import recover
from repro.sync.config import CHUNK_MAX_EVENTS, SyncConfig
from repro.sync.manager import SyncManager


def event(ts: int, src: int, seq: int, payload=None) -> Event:
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


EVENTS = tuple(event(ts, 2, ts, {"n": ts}) for ts in range(6))

FAST = SyncConfig(interval_rounds=1.0)


class Sampler:
    def __init__(self, peers):
        self.peers = list(peers)

    def sample(self, k):
        return self.peers[:k]


def wire(node_id, journal, peers, registry):
    def send(dst, message):
        target = registry.get(dst)
        if target is not None:
            target.on_message(node_id, message)

    def apply(fetched):
        applied = 0
        for item in fetched:
            if journal.record_delivery(item):
                applied += 1
        return applied

    manager = SyncManager(node_id, journal, send, Sampler(peers), apply, FAST)
    registry[node_id] = manager
    return manager


class TestSyncThenRestart:
    def test_synced_events_are_not_reapplied_after_recovery(self, tmp_path):
        registry = {}
        journal_b = DeliveryJournal(tmp_path / "b", fsync="never")
        for item in EVENTS:
            journal_b.record_delivery(item)
        wire(1, journal_b, [0], registry)

        # First life of node 0: repair everything from B, then "crash"
        # without a snapshot (close flushes the log; recovery replays it).
        journal_a = DeliveryJournal(tmp_path / "a", fsync="never")
        manager_a = wire(0, journal_a, [1], registry)
        manager_a.kick()
        manager_a.on_round()
        assert manager_a.caught_up
        assert manager_a.stats.events_repaired == len(EVENTS)
        journal_a.close()

        # Second life: recover from the log, resume the journal.
        recovered = recover(0, tmp_path / "a")
        assert recovered.last_delivered_key == EVENTS[-1].order_key
        assert recovered.source_watermarks == {2: len(EVENTS) - 1}
        journal_a2 = DeliveryJournal(
            tmp_path / "a", resume=recovered, fsync="never"
        )

        # A late epidemic copy of a synced event is a duplicate.
        assert journal_a2.record_delivery(EVENTS[0]) is False
        assert journal_a2.stats.deduplicated >= 1

        # A second sync pass finds nothing to repair.
        manager_a2 = wire(0, journal_a2, [1], registry)
        manager_a2.kick()
        manager_a2.on_round()
        assert manager_a2.caught_up
        assert manager_a2.stats.events_repaired == 0
        assert manager_a2.stats.sessions_started == 0

        journal_a2.close()
        journal_b.close()

    def test_snapshot_then_sync_then_recovery_keeps_watermarks(self, tmp_path):
        registry = {}
        journal_b = DeliveryJournal(tmp_path / "b", fsync="never")
        for item in EVENTS:
            journal_b.record_delivery(item)
        wire(1, journal_b, [0], registry)

        journal_a = DeliveryJournal(tmp_path / "a", fsync="never")
        journal_a.record_delivery(event(0, 2, 0))  # partial overlap
        manager_a = wire(0, journal_a, [1], registry)
        manager_a.kick()
        manager_a.on_round()
        assert manager_a.stats.events_repaired == len(EVENTS) - 1

        # Snapshot (pruning the log), crash, recover from the snapshot.
        journal_a.save_snapshot({"app": "state"})
        journal_a.close()
        recovered = recover(0, tmp_path / "a")
        assert recovered.source_watermarks == {2: len(EVENTS) - 1}
        journal_a2 = DeliveryJournal(
            tmp_path / "a", resume=recovered, fsync="never"
        )

        # Duplicates of synced events still bounce after snapshot recovery.
        for item in EVENTS:
            assert journal_a2.record_delivery(item) is False

        manager_a2 = wire(0, journal_a2, [1], registry)
        manager_a2.kick()
        manager_a2.on_round()
        assert manager_a2.caught_up
        assert manager_a2.stats.events_repaired == 0

        journal_a2.close()
        journal_b.close()

    def test_interrupted_pull_resumes_idempotently_after_restart(self, tmp_path):
        """Crash mid-session: the partial repairs are durable and the
        next life's pull fetches only the remaining suffix."""
        registry = {}
        # More than one chunk's worth, so the pull takes two requests.
        events = tuple(
            event(ts, 2, ts, {"n": ts}) for ts in range(CHUNK_MAX_EVENTS + 4)
        )
        journal_b = DeliveryJournal(tmp_path / "b", fsync="never")
        for item in events:
            journal_b.record_delivery(item)
        wire(1, journal_b, [0], registry)

        # Apply only the first chunk by dropping the follow-up request
        # (simulates crashing mid-pull).
        journal_a = DeliveryJournal(tmp_path / "a", fsync="never")
        sent = {"requests": 0}

        def send(dst, message):
            from repro.sync.protocol import SyncRequest

            if isinstance(message, SyncRequest):
                sent["requests"] += 1
                if sent["requests"] > 1:
                    return  # crash before the second request leaves
            target = registry.get(dst)
            if target is not None:
                target.on_message(0, message)

        def apply(fetched):
            return sum(1 for item in fetched if journal_a.record_delivery(item))

        manager_a = SyncManager(0, journal_a, send, Sampler([1]), apply, FAST)
        registry[0] = manager_a
        manager_a.kick()
        manager_a.on_round()
        assert manager_a.stats.events_repaired == CHUNK_MAX_EVENTS
        journal_a.close()

        recovered = recover(0, tmp_path / "a")
        assert recovered.last_delivered_key == events[CHUNK_MAX_EVENTS - 1].order_key
        journal_a2 = DeliveryJournal(
            tmp_path / "a", resume=recovered, fsync="never"
        )
        manager_a2 = wire(0, journal_a2, [1], registry)
        manager_a2.kick()
        manager_a2.on_round()

        assert manager_a2.caught_up
        # Only the remaining four events cross the wire the second time.
        assert manager_a2.stats.events_repaired == 4
        assert journal_a2.last_delivered_key == events[-1].order_key
        journal_a2.close()
        journal_b.close()
