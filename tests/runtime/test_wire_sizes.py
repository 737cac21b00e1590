"""Layout numbers written outside the codec, tied to what it emits.

``lazy/process.py`` estimates the wire sizes of the lazy kinds and
cannot import the codec (an import cycle); ``core/record.py`` sizes a
record it has not built; ``sync/protocol.py`` caps a chunk by the bytes
its events will take. Each of those numbers is measured here against
real datagrams — one more entry, one more id, one more event, an empty
message, small and wide varints — so a layout change that forgets one
of them fails instead of skewing a benchmark.
"""

from __future__ import annotations

import random

from repro.core import EpToConfig
from repro.core.event import Ball, Event
from repro.core.record import wire_sizes
from repro.lazy import process as lazy
from repro.lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from repro.runtime import codec
from repro.service import demux
from repro.sync import protocol as sync
from repro.sync.protocol import SyncChunk

from ..conftest import RecordingTransport, StaticPeerSampler, id_ball


def _size(message) -> int:
    return len(codec.encode(1, message))


def _events(count):
    return tuple(
        Event(id=(2, seq), ts=5, source_id=2, payload=None) for seq in range(count)
    )


#: ``json.dumps(None)``: what each event above adds beside its record.
_NULL = len(b"null")


def test_an_empty_message_is_the_header():
    assert _size(Ball.of([])) == _size(IdBall(Ball({}, {}))) == lazy.HEADER_BYTES
    assert lazy.HEADER_BYTES == codec.HEADER_SIZE == demux._ENVELOPE_OVERHEAD


def test_one_more_ball_entry():
    def ball(count):
        return Ball.of([(event, 1) for event in _events(count)])

    # The TTL, then length, ts 5, source 2, seq 2: a byte each, then
    # "null" — measured without building the record.
    record, payload, head = wire_sizes(_events(3)[2])
    assert (record, payload, head) == (None, _NULL, 3)
    assert _size(ball(3)) - _size(ball(2)) == 1 + 1 + head + payload


#: ``(ts, source, first seq, ttl)``: one-byte varints everywhere; then
#: two-byte TTLs either side of 128 with a negative timestamp; then wide
#: fields, up to the i64 and i32 ends.
_ID_ENTRIES = [
    (5, 2, 0, 1),
    (-3, 2, 7, 127),
    (-3, 2, 7, 128),
    (1 << 40, 300, 1 << 20, 1000),
    (-(1 << 63), (1 << 63) - 1, (1 << 63) - 3, (1 << 31) - 1),
]


def test_one_more_id_ball_entry():
    for ts, source, seq, ttl in _ID_ENTRIES:
        entries = [(ts, source, seq + k, ttl) for k in range(3)]
        one_more = _size(id_ball(*entries)) - _size(id_ball(*entries[:2]))
        [event] = id_ball(entries[2]).ball.events.values()
        assert one_more == lazy._id_entry_nbytes(event, ttl), entries[2]
    # The smallest entry: a byte each for the TTL, the head length and
    # the three varints (28 bytes in the fixed-width layout).
    [small] = id_ball((5, 2, 0, 1)).ball.events.values()
    assert lazy._id_entry_nbytes(small, 1) == 5


def test_a_lazy_round_accounts_the_id_ball_it_ships():
    shipped = []

    class Fabric(RecordingTransport):
        def send_many(self, src, dsts, message):
            shipped.append((len(dsts), message))

    process = lazy.LazyEpToProcess(
        node_id=2,
        config=EpToConfig(fanout=3, ttl=4, mode="lazy"),
        peer_sampler=StaticPeerSampler([5, 6, 7]),
        transport=Fabric(),
        on_deliver=lambda event: None,
        time_source=lambda: 5,
        rng=random.Random(0),
    )
    process.broadcast({"a payload": "that never ships"})
    process.on_ball(Ball.of([(Event(id=(3, 0), ts=4, source_id=3, payload="x"), 1)]))
    # A relayed id: its event keeps the head it arrived with.
    _, relayed = codec.decode(codec.encode(9, id_ball((1 << 40, 300, 1 << 20, 2))))
    process.on_lazy_message(9, relayed)
    process.on_round()
    [(fan, message)] = shipped
    assert isinstance(message, IdBall) and len(message.entries) == 3
    assert all(event.payload is None for event in message.ball.events.values())
    # ... and the pull of the relayed id's payload, sent the same round.
    pull = PayloadRequest(req_id=0, ids=((300, 1 << 20),))
    assert process.lazy_stats.metadata_bytes == fan * _size(message) + _size(pull)


def test_the_pull_request_head_and_one_more_id():
    def request(count):
        return PayloadRequest(req_id=9, ids=tuple((2, seq) for seq in range(count)))

    assert _size(request(0)) == lazy.HEADER_BYTES + lazy.REQUEST_HEAD_BYTES
    assert _size(request(3)) - _size(request(2)) == lazy.EVENT_ID_BYTES


def test_the_pull_response_head_one_more_event_and_one_more_missing_id():
    def response(events, missing):
        return PayloadResponse(
            req_id=9,
            events=_events(events),
            missing=tuple((3, seq) for seq in range(missing)),
        )

    assert _size(response(0, 0)) == lazy.HEADER_BYTES + lazy.RESPONSE_HEAD_BYTES
    one_event = _size(response(3, 1)) - _size(response(2, 1))
    assert one_event == lazy.RESPONSE_EVENT_BYTES + _NULL
    assert _size(response(1, 3)) - _size(response(1, 2)) == lazy.EVENT_ID_BYTES


def test_one_more_sync_chunk_event():
    def chunk(count):
        return SyncChunk(req_id=9, events=_events(count), checksum=0)

    one_event = _size(chunk(3)) - _size(chunk(2))
    assert one_event == sync.EVENT_WIRE_OVERHEAD + _NULL
    # What the responder sizes a chunk with.
    assert one_event == sync.event_wire_cost(_events(1)[0])


def test_one_more_envelope_frame_and_where_the_count_sits():
    inner = codec.encode(2, IdBall(Ball({}, {})))

    def envelope(count):
        return codec.assemble_envelope(1, [(topic, inner) for topic in range(count)])

    assert len(envelope(0)) == codec.HEADER_SIZE
    one_frame = len(envelope(3)) - len(envelope(2))
    assert one_frame == demux._FRAME_OVERHEAD + len(inner)
    assert demux._FRAME_OVERHEAD == codec.FRAME_HEAD_SIZE
    # What udp._corrupt flips: the most significant byte of the count.
    at = codec.COUNT_OFFSET
    assert int.from_bytes(envelope(3)[at : at + 4], "big") == 3
