"""Tests for the live per-node journal (repro.storage.journal)."""

from __future__ import annotations

import pytest

from repro.core.event import Event
from repro.smr.machine import KeyValueStore
from repro.storage.journal import DeliveryJournal
from repro.storage.log import FSYNC_POLICIES
from repro.storage.recovery import recover


def event(ts: int, src: int, seq: int, payload=None) -> Event:
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


class TestRecording:
    def test_fresh_journal_applies_everything(self, tmp_path):
        journal = DeliveryJournal(tmp_path, fsync="never")
        assert journal.record_delivery(event(1, 0, 0, "a"))
        assert journal.record_delivery(event(2, 1, 0, "b"))
        assert journal.stats.recorded == 2
        assert journal.stats.deduplicated == 0
        assert journal.last_delivered_key == (2, 1, 0)
        journal.close()

    def test_record_broadcast_advances_next_seq(self, tmp_path):
        journal = DeliveryJournal(tmp_path, fsync="never")
        assert journal.next_seq == 0
        journal.record_broadcast(event(5, 3, 7))
        assert journal.next_seq == 8
        assert journal.stats.markers == 1
        journal.close()

    def test_resume_watermark_filters_redeliveries(self, tmp_path):
        first = DeliveryJournal(tmp_path, fsync="never")
        for ts in range(4):
            first.record_delivery(event(ts, 0, ts, ts))
        first.close()

        recovered = recover(0, tmp_path)
        second = DeliveryJournal(tmp_path, resume=recovered, fsync="never")
        # The epidemic re-delivers pre-crash events to the blank process.
        assert not second.record_delivery(event(2, 0, 2, 2))
        assert not second.record_delivery(event(3, 0, 3, 3))
        # Genuinely new events pass.
        assert second.record_delivery(event(9, 1, 0, "new"))
        assert second.stats.deduplicated == 2
        assert second.stats.recorded == 1
        assert second.applied_count == recovered.applied_count + 1
        second.close()


class TestCheckpointing:
    def test_save_snapshot_prunes_covered_segments(self, tmp_path):
        journal = DeliveryJournal(
            tmp_path, fsync="never", segment_max_bytes=64
        )
        machine = KeyValueStore()
        for ts in range(12):
            ev = event(ts, 0, ts, ["put", str(ts), ts])
            journal.record_delivery(ev)
            machine.apply(ev.payload)
        sealed_before = len(journal.log.segments())
        assert sealed_before > 1
        snapshot = journal.save_snapshot(machine.snapshot())
        assert snapshot.applied_count == 12
        assert journal.stats.segments_pruned > 0
        assert len(journal.log.segments()) < sealed_before

        # Snapshot + remaining log still recovers the full state.
        journal.close()
        recovered = recover(0, tmp_path, machine=KeyValueStore())
        assert recovered.machine_state == machine.snapshot()
        assert recovered.applied_count == 12

    def test_two_incarnations_accumulate_exactly_once(self, tmp_path):
        machine = KeyValueStore()
        first = DeliveryJournal(tmp_path, fsync="never")
        for ts in range(3):
            ev = event(ts, 0, ts, ["put", "k", ts])
            first.record_delivery(ev)
            machine.apply(ev.payload)
        first.save_snapshot(machine.snapshot())
        first.record_delivery(event(3, 1, 0, ["put", "k2", 1]))
        first.close()  # crash point: snapshot + one-record suffix

        replacement = KeyValueStore()
        recovered = recover(0, tmp_path, machine=replacement)
        assert recovered.applied_count == 4
        assert {k: v for k, v, _ in replacement.snapshot()} == {"k": 2, "k2": 1}

        second = DeliveryJournal(tmp_path, resume=recovered, fsync="never")
        assert not second.record_delivery(event(3, 1, 0, ["put", "k2", 1]))
        assert second.record_delivery(event(4, 1, 1, ["put", "k3", 2]))
        assert second.applied_count == 5
        second.close()


@pytest.mark.parametrize("policy", [p for p in FSYNC_POLICIES if p != "never"])
def test_fsync_policy_changes_nothing_the_journal_holds(tmp_path, policy):
    """A policy decides when bytes reach the disk, never which: the same
    400 deliveries, rotating every 2 kB, leave the same counters and the
    same segment files under every policy."""

    def contents(fsync):
        journal = DeliveryJournal(tmp_path / fsync, fsync=fsync, segment_max_bytes=2048)
        for i in range(400):
            journal.record_delivery(event(i, i % 8, i // 8, {"n": i}))
        journal.close()
        log = journal.log
        stats = (journal.stats.recorded, log.stats.appended, log.stats.segments_created)
        files = [(path.name, path.read_bytes()) for path in log.segments()]
        return stats, files

    (recorded, appended, segments), files = contents(policy)
    assert ((recorded, appended, segments), files) == contents("never")
    assert recorded == appended == 400 and segments > 1
