"""Tests for the per-source FIFO epidemic baseline (repro.broadcast.fifo)."""

from __future__ import annotations

from repro.broadcast.fifo import FifoProcess
from repro.core import EpToConfig
from repro.core.event import Ball

from ..conftest import RecordingTransport, StaticPeerSampler, make_event


def build_process(ttl=3, fanout=2):
    config = EpToConfig(fanout=fanout, ttl=ttl, clock="logical")
    delivered: list = []
    process = FifoProcess(
        node_id=0,
        config=config,
        peer_sampler=StaticPeerSampler([1, 2]),
        transport=RecordingTransport(),
        on_deliver=delivered.append,
    )
    return process, delivered


class TestPerSourceFifo:
    def test_in_order_arrival_delivers_immediately(self):
        process, delivered = build_process()
        process.on_ball(Ball.of([(make_event(src=1, seq=0), 0)]))
        process.on_ball(Ball.of([(make_event(src=1, seq=1), 0)]))
        assert [e.seq for e in delivered] == [0, 1]

    def test_gap_blocks_later_events_from_same_source(self):
        process, delivered = build_process()
        process.on_ball(Ball.of([(make_event(src=1, seq=1), 0)]))
        assert delivered == []  # seq 0 missing
        assert process.blocked_count == 1
        process.on_ball(Ball.of([(make_event(src=1, seq=0), 0)]))
        assert [e.seq for e in delivered] == [0, 1]
        assert process.blocked_count == 0

    def test_gap_does_not_block_other_sources(self):
        process, delivered = build_process()
        process.on_ball(Ball.of([(make_event(src=1, seq=1), 0)]))
        process.on_ball(Ball.of([(make_event(src=2, seq=0), 0)]))
        assert [(e.source_id, e.seq) for e in delivered] == [(2, 0)]

    def test_duplicates_ignored(self):
        process, delivered = build_process()
        entry = (make_event(src=1, seq=0), 0)
        process.on_ball(Ball.of([entry]))
        process.on_ball(Ball.of([entry]))
        assert len(delivered) == 1

    def test_own_broadcasts_fifo(self):
        process, delivered = build_process()
        process.broadcast("a")
        process.broadcast("b")
        process.on_round()
        assert [e.payload for e in delivered] == ["a", "b"]

    def test_out_of_order_batch_reassembled(self):
        process, delivered = build_process()
        entries = [
            (make_event(src=3, seq=2), 0),
            (make_event(src=3, seq=0), 0),
            (make_event(src=3, seq=1), 0),
        ]
        process.on_ball(Ball.of(entries))
        assert [e.seq for e in delivered] == [0, 1, 2]

    def test_no_total_order_across_sources(self):
        # FIFO is strictly weaker than EpTO: cross-source order follows
        # arrival, not timestamps.
        process, delivered = build_process()
        process.on_ball(Ball.of([(make_event(src=2, seq=0, ts=50), 0)]))
        process.on_ball(Ball.of([(make_event(src=1, seq=0, ts=1), 0)]))
        assert [e.source_id for e in delivered] == [2, 1]
