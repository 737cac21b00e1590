"""Size functions written outside the encoder, tied to what it emits.

``lazy/process.py`` estimates the wire sizes of the lazy kinds and
cannot import the codec (an import cycle); ``core/record.py`` sizes a
record it has not built, and the header, ids and framed records around
it; ``sync/protocol.py`` caps a chunk by the bytes its events will
take; ``service/demux.py`` packs envelopes by the header's bound and
each frame's size. Each of those functions is measured here against
real datagrams — one more entry, one more id, one more event, an empty
message, small and wide varints — so a layout change that forgets one
of them fails instead of skewing a benchmark.
"""

from __future__ import annotations

import random

from repro.core import EpToConfig
from repro.core.event import Ball, Event
from repro.core.record import header_nbytes, wire_sizes
from repro.lazy import process as lazy
from repro.lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from repro.runtime import codec
from repro.service import demux
from repro.sync import protocol as sync
from repro.sync.protocol import SyncChunk

from ..conftest import RecordingTransport, StaticPeerSampler, id_ball
from .header import count_span, pack_header


def _size(message, sender: int = 1) -> int:
    return len(codec.encode(sender, message))


def _events(count):
    return tuple(
        Event(id=(2, seq), ts=5, source_id=2, payload=None) for seq in range(count)
    )


#: ``json.dumps(None)``: what each event above adds beside its record.
_NULL = len(b"null")


#: Senders either side of each zigzag varint width, to the i64 ends.
_SENDERS = [0, 63, -64, 64, -65, 1 << 20, -(1 << 63), (1 << 63) - 1]

_I64_MIN = -(1 << 63)


def test_an_empty_message_is_the_header():
    for sender in _SENDERS:
        assert (
            _size(Ball.of([]), sender)
            == _size(IdBall(Ball({}, {})), sender)
            == header_nbytes(sender, 0)
        )
    assert header_nbytes(1, 0) == 6  # 16 in the fixed-width layout
    # One more entry past 127 widens the count by a byte.
    ball = Ball.of([(event, 1) for event in _events(128)])
    assert header_nbytes(1, 128) - header_nbytes(1, 127) == 1
    assert _size(ball) == header_nbytes(1, 128) + sum(
        1 + 1 + wire_sizes(event)[2] + _NULL for event in ball.events.values()
    )
    # The bound the demux reserves for an envelope's header: the widest.
    widest = pack_header(8, _I64_MIN, 0xFFFFFFFF)
    assert len(widest) == header_nbytes(_I64_MIN, 0xFFFFFFFF) == codec.HEADER_SIZE
    assert codec.HEADER_SIZE == demux._ENVELOPE_OVERHEAD == 19


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


#: ``req_id`` values either side of each uvarint width, to the u32 end.
_REQ_IDS = [0, 127, 128, 0xCAFE, 0xFFFFFFFF]

#: Ids: small, either side of a width, at the i64 ends.
_IDS = [(2, 0), (2, 63), (-65, 64), (300, 1 << 40), (_I64_MIN, (1 << 63) - 1)]


def test_the_pull_request_head_and_one_more_id():
    for sender in (1, 64, _I64_MIN):
        for req_id in _REQ_IDS:
            for count in (0, 1, 3, 5, 130):
                ids = tuple(_IDS[k % len(_IDS)][:1] + (k,) for k in range(count))
                request = PayloadRequest(req_id=req_id, ids=ids)
                assert _size(request, sender) == lazy._request_nbytes(sender, request)
    # The smallest: a 6-byte header, a one-byte req_id, two bytes an id
    # (4 + 16 a request in the fixed-width layout).
    request = PayloadRequest(req_id=9, ids=tuple((2, seq) for seq in range(3)))
    assert lazy._request_nbytes(1, request) == 6 + 1 + 3 * 2
    wide = PayloadRequest(req_id=9, ids=tuple(_IDS))
    assert _size(wide) == lazy._request_nbytes(1, wide)


def _wide_events():
    """Events whose records take every width of varint and length."""
    return (
        Event(id=(2, 0), ts=5, source_id=2, payload=None),
        Event(id=(-65, 64), ts=-3, source_id=-65, payload="x" * 200),
        Event(id=(300, 1 << 40), ts=1 << 62, source_id=300, payload={"v": [1, 2]}),
        Event(id=(_I64_MIN, 7), ts=_I64_MIN, source_id=_I64_MIN, payload="y" * 20_000),
    )


def test_the_pull_response_head_one_more_event_and_one_more_missing_id():
    for req_id in _REQ_IDS:
        for events in (0, 1, 3):
            for missing in (0, 1, 130):
                response = PayloadResponse(
                    req_id=req_id,
                    events=_events(events),
                    missing=tuple(_IDS[k % len(_IDS)] for k in range(missing)),
                )
                assert _size(response) == lazy._response_nbytes(1, response)
    wide = PayloadResponse(req_id=9, events=_wide_events(), missing=tuple(_IDS))
    assert _size(wide, 64) == lazy._response_nbytes(64, wide)
    # An event is its record and the record's length: 1 + 3 + 4 bytes
    # for a small null one (28 + 4 in the fixed-width layout).
    def response(events):
        return PayloadResponse(req_id=9, events=_events(events), missing=())

    assert _size(response(3)) - _size(response(2)) == 1 + 3 + _NULL


def test_one_more_sync_chunk_event():
    # What the responder sizes a chunk with, for small and wide events.
    for event in (*_events(1), *_wide_events()):
        one = SyncChunk(req_id=9, events=(event,), checksum=0)
        empty = SyncChunk(req_id=9, events=(), checksum=0)
        assert _size(one) - _size(empty) == sync.event_wire_cost(event)
    one_event = sync.event_wire_cost(_events(1)[0])
    assert one_event == 1 + 3 + _NULL  # 28 + 4 in the fixed-width layout


def test_one_more_envelope_frame_and_where_the_count_sits():
    small = codec.encode(2, IdBall(Ball({}, {})))
    large = codec.encode(2, Ball.of([(_wide_events()[3], 1)]))
    for inner in (small, large):
        for topic in (0, 127, 128, codec.MAX_TOPIC_ID):

            def envelope(count):
                return codec.assemble_envelope(1, [(topic, inner)] * count)

            assert len(envelope(0)) == header_nbytes(1, 0) <= codec.HEADER_SIZE
            one_frame = len(envelope(2)) - len(envelope(1))
            assert one_frame == codec.frame_nbytes(topic, len(inner))
    # What udp's corruption rewrites: the count, found past the sender.
    wide = codec.assemble_envelope(_I64_MIN, [(0, small)] * 130)
    for wire in (codec.encode(1, IdBall(Ball({}, {}))), wide):
        assert codec.count_span(wire) == count_span(wire)
