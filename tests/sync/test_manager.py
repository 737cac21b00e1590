"""SyncManager state machine: probes, pull sessions, loss, corruption.

These tests wire two (or more) real managers over a synchronous in-test
router: ``send`` delivers straight into the peer's ``on_message``, so a
single ``on_round`` call runs an entire digest/pull/confirm exchange
re-entrantly and deterministically. Loss and corruption are injected by
the router's drop/transform hooks.
"""

from __future__ import annotations

import dataclasses

from repro.core.event import Event
from repro.runtime import codec
from repro.storage.journal import DeliveryJournal
from repro.sync.config import (
    BACKOFF_FACTOR,
    CHUNK_MAX_EVENTS,
    MAX_RETRIES,
    REQUEST_TIMEOUT_ROUNDS,
    SyncConfig,
)
from repro.sync.manager import SyncManager
from repro.sync.protocol import SyncChunk, SyncRequest, events_checksum


def event(ts: int, src: int, seq: int, payload=None) -> Event:
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


EVENTS = tuple(event(ts, 0, ts, {"n": ts}) for ts in range(5))

#: Two full chunks and one event over: a pull of these takes three
#: request/chunk pairs.
MANY = tuple(event(ts, 0, ts, {"n": ts}) for ts in range(2 * CHUNK_MAX_EVENTS + 1))

#: The request timeout, in whole rounds, before any backoff.
TIMEOUT = int(REQUEST_TIMEOUT_ROUNDS)

FAST = SyncConfig(interval_rounds=1.0)


class Sampler:
    """Peer-sampling stub: returns canned views, in order if several."""

    def __init__(self, *views):
        self.views = list(views)

    def sample(self, k):
        view = self.views.pop(0) if len(self.views) > 1 else self.views[0]
        return list(view)[:k]


class Router:
    """Synchronous message fabric with drop/transform fault hooks."""

    def __init__(self):
        self.managers = {}
        self.drop = lambda src, dst, message: False
        self.transform = lambda src, dst, message: message

    def sender(self, src):
        def send(dst, message):
            message = self.transform(src, dst, message)
            if message is None or self.drop(src, dst, message):
                return
            target = self.managers.get(dst)
            if target is not None:
                target.on_message(src, message)

        return send

    def node(self, tmp_path, node_id, peers, events=()):
        journal = DeliveryJournal(tmp_path / f"n{node_id}", fsync="never")
        for item in events:
            journal.record_delivery(item)

        def apply(fetched):
            applied = 0
            for item in fetched:
                if journal.record_delivery(item):
                    applied += 1
            return applied

        manager = SyncManager(
            node_id,
            journal,
            self.sender(node_id),
            Sampler(peers) if not isinstance(peers, Sampler) else peers,
            apply,
            FAST,
        )
        self.managers[node_id] = manager
        return manager


def drop_chunks_to(router, dst, count):
    """Drop the first ``count`` SYNC_CHUNKs addressed to ``dst``."""
    remaining = {"n": count}

    def drop(src, to, message):
        if to == dst and isinstance(message, SyncChunk) and remaining["n"] != 0:
            remaining["n"] -= 1
            return True
        return False

    router.drop = drop


class TestPullSession:
    def test_full_pull_converges_in_one_round(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        b = router.node(tmp_path, 1, [0], events=EVENTS)

        a.kick()
        a.on_round()

        assert a.caught_up
        assert a.journal.last_delivered_key == b.journal.last_delivered_key
        assert a.stats.sessions_started == a.stats.sessions_completed == 1
        assert a.stats.events_repaired == len(EVENTS)
        assert a.stats.bytes_fetched > 0
        # Initial probe plus the post-session confirmation probe.
        assert a.stats.probes_sent == 2
        assert b.stats.requests_served == 1
        assert b.stats.events_served == len(EVENTS)

    def test_pagination_walks_the_suffix_in_chunks(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        b = router.node(tmp_path, 1, [0], events=MANY)

        a.kick()
        a.on_round()

        assert a.caught_up
        assert a.stats.events_repaired == len(MANY)
        # 2 * CHUNK_MAX_EVENTS + 1 events → three request/chunk pairs.
        assert a.stats.requests_sent == 3
        assert a.stats.chunks_received == 3
        assert b.stats.chunks_sent == 3

    def test_push_pull_repairs_the_probed_peers_gap(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1], events=EVENTS)
        b = router.node(tmp_path, 1, [0])

        # A (ahead) probes B (behind): B must answer *and* pull from A.
        a.kick()
        a.on_round()

        assert b.caught_up
        assert b.journal.last_delivered_key == a.journal.last_delivered_key
        assert b.stats.sessions_completed == 1
        assert b.stats.events_repaired == len(EVENTS)
        assert a.stats.requests_served == 1
        assert a.stats.sessions_started == 0

    def test_already_converged_exchange_just_marks_caught_up(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1], events=EVENTS)
        router.node(tmp_path, 1, [0], events=EVENTS)

        a.kick()
        a.on_round()

        assert a.caught_up
        assert a.stats.sessions_started == 0
        assert a.stats.events_repaired == 0


class TestLossAndRetry:
    def test_lost_chunk_times_out_and_retries(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        b = router.node(tmp_path, 1, [0], events=EVENTS)
        drop_chunks_to(router, 0, 1)

        a.kick()
        a.on_round()  # probe, session start, first chunk lost
        for _ in range(TIMEOUT - 1):
            a.on_round()
        assert a.session_active
        assert a.stats.timeouts == 0  # the timeout has not run out yet
        a.on_round()  # timeout → retry → chunk delivered → confirm

        assert a.caught_up
        assert a.stats.timeouts == 1
        assert a.stats.retries == 1
        assert a.stats.sessions_completed == 1
        assert a.stats.events_repaired == len(EVENTS)
        assert b.stats.requests_served == 2

    def test_backoff_stretches_the_retry_timeout(self, tmp_path):
        assert BACKOFF_FACTOR > 1.0
        stretched = int(REQUEST_TIMEOUT_ROUNDS * BACKOFF_FACTOR)
        router = Router()
        a = router.node(tmp_path, 0, [1])
        router.node(tmp_path, 1, [0], events=EVENTS)
        drop_chunks_to(router, 0, 2)

        a.kick()
        a.on_round()  # chunk 1 lost
        for _ in range(TIMEOUT):
            a.on_round()  # ... timeout 1, retry 1 (chunk 2 lost)
        assert a.stats.timeouts == 1
        for _ in range(stretched - 1):
            a.on_round()  # backoff stretched the window: not yet a timeout
        assert a.stats.timeouts == 1
        assert a.stats.retries == 1
        a.on_round()  # stretched window waited → timeout 2, retry 2 → success

        assert a.caught_up
        assert a.stats.timeouts == 2
        assert a.stats.retries == 2
        assert a.stats.events_repaired == len(EVENTS)

    def test_session_aborts_after_max_retries(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        router.node(tmp_path, 1, [0], events=EVENTS)
        drop_chunks_to(router, 0, -1)  # drop every chunk

        a.kick()
        a.on_round()  # chunk lost
        for _ in range(1000):  # timeouts and retries, each lost again
            if not a.session_active:
                break
            a.on_round()

        assert not a.session_active
        assert not a.caught_up
        assert a.stats.sessions_aborted == 1
        assert a.stats.retries == MAX_RETRIES
        assert a.stats.timeouts == MAX_RETRIES + 1
        assert a.stats.events_repaired == 0

        # The next round starts over with a fresh probe and converges.
        router.drop = lambda src, dst, message: False
        a.on_round()
        assert a.caught_up
        assert a.stats.events_repaired == len(EVENTS)

    def test_probe_timeout_reprobes_a_fresh_peer(self, tmp_path):
        router = Router()
        sampler = Sampler([9], [1])  # first sample: a dead peer
        a = router.node(tmp_path, 0, sampler)
        router.node(tmp_path, 1, [0], events=EVENTS)

        a.kick()
        a.on_round()  # probe node 9 → silence
        for _ in range(TIMEOUT - 1):
            a.on_round()
        assert a.stats.probe_timeouts == 0
        a.on_round()  # timeout → re-probe node 1 → converge

        assert a.caught_up
        assert a.stats.probe_timeouts == 1
        assert a.stats.events_repaired == len(EVENTS)

    def test_empty_peer_view_stays_idle(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [])
        a.kick()
        for _ in range(3):
            a.on_round()
        assert a.stats.probes_sent == 0
        assert not a.session_active


class TestCorruptionAndStaleness:
    def test_checksum_failure_re_requests_the_cursor(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        router.node(tmp_path, 1, [0], events=EVENTS)
        tampered = {"n": 0}

        def transform(src, dst, message):
            if dst == 0 and isinstance(message, SyncChunk) and tampered["n"] == 0:
                tampered["n"] += 1
                return dataclasses.replace(message, checksum=message.checksum ^ 0xFF)
            return message

        router.transform = transform

        a.kick()
        a.on_round()  # corrupt chunk → immediate re-request → clean chunk

        assert a.caught_up
        assert a.stats.checksum_failures == 1
        assert a.stats.retries == 1
        assert a.stats.events_repaired == len(EVENTS)
        assert a.journal.last_delivered_key == EVENTS[-1].order_key

    def test_unsolicited_chunk_is_stale(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        bogus = SyncChunk(
            req_id=99, events=EVENTS, checksum=events_checksum(EVENTS)
        )
        assert a.on_message(1, bogus) is True
        assert a.stats.stale_chunks == 1
        assert a.journal.last_delivered_key is None

    def test_request_ids_wrap_with_the_wire_field(self, tmp_path):
        """The codec carries a request id as a u32, so the requester's
        counter wraps with it: past ``0xFFFFFFFF`` an unbounded counter
        would read every echoed chunk as stale and never catch up."""
        router = Router()
        router.transform = lambda src, dst, message: codec.decode(
            codec.encode(src, message)
        )[1]
        a = router.node(tmp_path, 0, [1])
        router.node(tmp_path, 1, [0], events=MANY)
        a._next_req_id = 0xFFFFFFFF

        a.kick()
        a.on_round()

        assert a.caught_up
        assert a.stats.requests_sent == 3  # ids 0xFFFFFFFF, 0, 1
        assert a.stats.stale_chunks == 0
        assert a.stats.events_repaired == len(MANY)

    def test_non_sync_message_falls_through(self, tmp_path):
        router = Router()
        a = router.node(tmp_path, 0, [1])
        assert a.on_message(1, object()) is False


class TestResponder:
    def test_request_watermarks_filter_served_events(self, tmp_path):
        router = Router()
        served = []
        b = router.node(
            tmp_path,
            1,
            [0],
            events=(event(0, 0, 0), event(1, 0, 1), event(2, 1, 0)),
        )
        router.managers[0] = type(
            "Sink", (), {"on_message": lambda self, src, msg: served.append(msg)}
        )()

        b.on_message(0, SyncRequest(req_id=5, after=None, watermarks=((0, 1),)))

        assert len(served) == 1
        chunk = served[0]
        assert [e.order_key for e in chunk.events] == [(2, 1, 0)]
        assert chunk.more is False
        assert chunk.peer_last == (2, 1, 0)
        assert b.stats.events_served == 1
