"""Unit tests for the topic demux layer (routing, batching, faults)."""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.auth import EventSignature, SignedBall
from repro.core.errors import MembershipError
from repro.core.event import Ball, Event
from repro.lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from repro.runtime import codec
from repro.runtime.codec import MAX_DATAGRAM, TopicEnvelope
from repro.runtime.transport import AsyncNetwork
from repro.service.demux import TopicDemux

from ..runtime.header import pack_frame, pack_header


def _ball(src=1, seq=0, payload=None):
    event = Event(id=(src, seq), ts=10 + seq, source_id=src, payload=payload)
    return Ball.of([(event, 3)])


def _run(coro):
    return asyncio.run(coro)


class _Sink:
    """Handler recording (src, message) pairs."""

    def __init__(self):
        self.received = []

    def __call__(self, src, message):
        self.received.append((src, message))


class TestRouting:
    def test_frames_route_to_their_topic_only(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink_a, sink_b = _Sink(), _Sink()
            right.channel(10).register(1, sink_a)
            right.channel(20).register(1, sink_b)
            ball_a, ball_b = _ball(seq=1), _ball(seq=2)
            left.channel(10).send(0, 1, ball_a)
            left.channel(20).send(0, 1, ball_b)
            await asyncio.sleep(0.05)
            assert sink_a.received == [(0, ball_a)]
            assert sink_b.received == [(0, ball_b)]

        _run(scenario())

    def test_same_tick_frames_share_one_envelope(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink = _Sink()
            right.channel(10).register(1, sink)
            right.channel(20).register(1, sink)
            for topic in (10, 20):
                left.channel(topic).send(0, 1, _ball(seq=topic))
            await asyncio.sleep(0.05)
            assert left.stats.frames_sent == 2
            assert left.stats.envelopes_sent == 1
            assert right.stats.envelopes_received == 1
            assert right.stats.frames_delivered == 2

        _run(scenario())

    def test_unknown_topic_counted_not_raised(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink = _Sink()
            right.channel(10).register(1, sink)
            left.channel(99).send(0, 1, _ball())
            await asyncio.sleep(0.05)
            assert sink.received == []
            assert right.stats.dropped_unknown_topic == 1

        _run(scenario())

    def test_closed_topic_becomes_unknown(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            right.channel(10).register(1, _Sink())
            right.close_topic(10)
            left.channel(10).send(0, 1, _ball())
            await asyncio.sleep(0.05)
            assert right.stats.dropped_unknown_topic == 1

        _run(scenario())

    def test_non_envelope_traffic_counted(self):
        async def scenario():
            network = AsyncNetwork()
            demux = TopicDemux(network, host_id=1)
            demux.channel(10).register(1, _Sink())
            network.register(0, lambda src, message: None)
            network.send(0, 1, _ball())
            await asyncio.sleep(0.05)
            assert demux.stats.non_envelope_received == 1
            assert demux.stats.frames_delivered == 0

        _run(scenario())

    def test_send_many_fans_one_message_object(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            sinks = {}
            for host in (1, 2, 3):
                peer = TopicDemux(network, host_id=host)
                sinks[host] = _Sink()
                peer.channel(10).register(host, sinks[host])
            ball = _ball()
            left.channel(10).send_many(0, [1, 2, 3], ball)
            await asyncio.sleep(0.05)
            for host in (1, 2, 3):
                assert sinks[host].received == [(0, ball)]
            assert left.stats.envelopes_sent == 3  # one per destination

        _run(scenario())


class TestChannelGuards:
    def test_register_wrong_id_rejected(self):
        async def scenario():
            demux = TopicDemux(AsyncNetwork(), host_id=5)
            with pytest.raises(MembershipError):
                demux.channel(1).register(6, _Sink())

        _run(scenario())

    def test_double_register_rejected(self):
        async def scenario():
            demux = TopicDemux(AsyncNetwork(), host_id=5)
            channel = demux.channel(1)
            channel.register(5, _Sink())
            with pytest.raises(MembershipError):
                channel.register(5, _Sink())
            channel.unregister(5)
            channel.register(5, _Sink())  # re-register after unregister

        _run(scenario())

    def test_out_of_range_topic_rejected(self):
        async def scenario():
            demux = TopicDemux(AsyncNetwork(), host_id=0)
            for topic in (-1, 2**32):
                with pytest.raises(MembershipError):
                    demux.channel(topic)

        _run(scenario())


class TestPacking:
    def test_oversized_tick_splits_into_multiple_envelopes(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink = _Sink()
            right.channel(10).register(1, sink)
            # Each ball ~20 KB: three cannot share one datagram.
            balls = [_ball(seq=i, payload="x" * 20_000) for i in range(3)]
            for ball in balls:
                left.channel(10).send(0, 1, ball)
            await asyncio.sleep(0.05)
            assert left.stats.envelopes_sent >= 2
            assert [message for _, message in sink.received] == balls

        _run(scenario())

    def test_unencodable_frame_dropped_others_survive(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink = _Sink()
            right.channel(10).register(1, sink)
            good = _ball()
            too_big = _ball(payload="x" * (MAX_DATAGRAM + 1))
            left.channel(10).send(0, 1, too_big)
            left.channel(10).send(0, 1, good)
            await asyncio.sleep(0.05)
            assert left.stats.dropped_unencodable == 1
            assert sink.received == [(0, good)]

        _run(scenario())


class TestTopicFaults:
    def test_partition_isolates_one_topic(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink_a, sink_b = _Sink(), _Sink()
            right.channel(10).register(1, sink_a)
            right.channel(20).register(1, sink_b)
            left.channel(10).set_partition({0: "west", 1: "east"})
            left.channel(10).send(0, 1, _ball(seq=1))
            left.channel(20).send(0, 1, _ball(seq=2))
            await asyncio.sleep(0.05)
            assert sink_a.received == []  # topic 10 partitioned
            assert len(sink_b.received) == 1  # topic 20 clean
            assert left.stats.dropped_partition == 1
            left.channel(10).heal_partition()
            left.channel(10).send(0, 1, _ball(seq=3))
            await asyncio.sleep(0.05)
            assert len(sink_a.received) == 1

        _run(scenario())

    def test_loss_burst_scoped_to_topic(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink_a, sink_b = _Sink(), _Sink()
            right.channel(10).register(1, sink_a)
            right.channel(20).register(1, sink_b)
            left.channel(10).set_loss_burst(1.0, duration=60.0)
            for i in range(10):
                left.channel(10).send(0, 1, _ball(seq=i))
                left.channel(20).send(0, 1, _ball(seq=100 + i))
            await asyncio.sleep(0.05)
            assert sink_a.received == []
            assert len(sink_b.received) == 10
            assert left.stats.dropped_burst == 10

        _run(scenario())


class TestLifecycle:
    def test_detach_drops_pending_and_later_sends(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            right = TopicDemux(network, host_id=1)
            sink = _Sink()
            right.channel(10).register(1, sink)
            left.channel(10).send(0, 1, _ball(seq=1))
            left.detach()  # before the scheduled flush ran
            await asyncio.sleep(0.05)
            assert sink.received == []
            left.channel(10).send(0, 1, _ball(seq=2))
            assert left.stats.dropped_closed == 1
            left.attach()
            left.channel(10).send(0, 1, _ball(seq=3))
            await asyncio.sleep(0.05)
            assert len(sink.received) == 1

        _run(scenario())

    def test_envelope_equality_reaches_wire_shape(self):
        async def scenario():
            network = AsyncNetwork()
            left = TopicDemux(network, host_id=0)
            captured = []
            network.register(1, lambda src, message: captured.append(message))
            ball = _ball()
            left.channel(7).send(0, 1, ball)
            await asyncio.sleep(0.05)
            assert captured == [TopicEnvelope(frames=((7, 0, ball),))]

        _run(scenario())


class _WireFabric:
    """A fabric that puts bytes on a wire, as seen by one demux: it has
    ``send_bundle`` and records what it is handed."""

    def __init__(self):
        self.bundles = []

    def register(self, node_id, handler):
        pass

    def unregister(self, node_id):
        pass

    def send_bundle(self, src, items):
        self.bundles.append(list(items))


def _flush_counting_encodes(demux):
    """Run the pending flush; returns the messages ``codec.encode`` saw."""
    seen = []
    real = codec.encode

    def counting(sender, message):
        seen.append(message)
        return real(sender, message)

    codec.encode = counting
    try:
        demux.flush()
    finally:
        codec.encode = real
    return seen


def _packed_by_hand(host, frames):
    """*host*'s envelope of ``(topic, sender, message)`` *frames*, laid
    out by hand (``tests/runtime/header.py``): the header, then ``topic
    uvarint | inner_len uvarint | inner`` per frame. The object encoder
    goes through the assembler the demux uses, so only this catches a
    layout slip in it."""
    wire = pack_header(8, host, len(frames))
    for topic, sender, message in frames:
        wire += pack_frame(topic, codec.encode(sender, message))
    return wire


def _decoded(items):
    """``{dst: [frames of each envelope]}`` of one bundle, by decoding."""
    out = {}
    for dsts, datagram, _ in items:
        host, envelope = codec.decode(datagram)
        for dst in dsts:
            out.setdefault(dst, []).append(envelope.frames)
    return out


class TestEncodeOncePerFlush:
    def test_a_ball_fanned_out_to_fifteen_hosts_is_encoded_once(self):
        async def scenario():
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=0)
            ball = _ball(payload="fan-out")
            peers = list(range(1, 16))
            demux.channel(10).send_many(0, peers, ball)
            seen = _flush_counting_encodes(demux)
            assert seen == [ball]
            (items,) = fabric.bundles
            # Fifteen destinations with the same frames: one envelope.
            assert [dsts for dsts, _, _ in items] == [peers]
            (_, datagram, payload_bytes) = items[0]
            envelope = TopicEnvelope(frames=((10, 0, ball),))
            assert datagram == _packed_by_hand(0, envelope.frames)
            assert datagram == codec.encode(0, envelope)
            assert payload_bytes == codec.last_encode_payload_bytes()
            assert demux.stats.envelopes_sent == 15
            assert demux.stats.frames_sent == 15

        _run(scenario())

    def test_two_topics_sharing_a_destination(self):
        async def scenario():
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=0)
            ball_a, ball_b = _ball(seq=1), _ball(seq=2)
            demux.channel(10).send_many(0, [1, 2, 3], ball_a)
            demux.channel(20).send_many(0, [2, 3, 4], ball_b)
            seen = _flush_counting_encodes(demux)
            assert sorted(seen, key=id) == sorted([ball_a, ball_b], key=id)
            (items,) = fabric.bundles
            assert [dsts for dsts, _, _ in items] == [[1], [2, 3], [4]]
            assert _decoded(items) == {
                1: [((10, 0, ball_a),)],
                2: [((10, 0, ball_a), (20, 0, ball_b))],
                3: [((10, 0, ball_a), (20, 0, ball_b))],
                4: [((20, 0, ball_b),)],
            }

        _run(scenario())

    def test_the_same_message_sent_one_by_one_is_still_encoded_once(self):
        async def scenario():
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=0)
            ball = _ball()
            for dst in (1, 2, 3):
                demux.channel(10).send(0, dst, ball)
            assert _flush_counting_encodes(demux) == [ball]
            (items,) = fabric.bundles
            # Frames of their own: every destination is a group of one.
            assert [dsts for dsts, _, _ in items] == [[1], [2], [3]]
            assert len({datagram for _, datagram, _ in items}) == 1

        _run(scenario())

    def test_partial_fanout_groups_by_frame_list(self):
        """n=8, K=3, four topics: destinations drawn by different
        topics hold different frames, so they get different envelopes —
        and every ball is still encoded once."""

        async def scenario():
            rng = random.Random(8)
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=0)
            balls = {topic: _ball(seq=topic) for topic in range(4)}
            expected = {}
            for topic, ball in balls.items():
                dsts = rng.sample(range(1, 8), 3)
                demux.channel(topic).send_many(0, dsts, ball)
                for dst in dsts:
                    expected.setdefault(dst, []).append((topic, 0, ball))
            seen = _flush_counting_encodes(demux)
            assert sorted(map(id, seen)) == sorted(map(id, balls.values()))
            (items,) = fabric.bundles
            assert _decoded(items) == {
                dst: [tuple(frames)] for dst, frames in expected.items()
            }
            groups = len(items)
            destinations = sum(len(dsts) for dsts, _, _ in items)
            assert destinations == len(expected)
            assert 1 < groups <= destinations
            # Destinations share an envelope exactly when their frame
            # lists are the same.
            by_frames = {}
            for dst, frames in expected.items():
                topics = tuple(topic for topic, _, _ in frames)
                by_frames.setdefault(topics, []).append(dst)
            assert sorted(dsts for dsts, _, _ in items) == sorted(by_frames.values())

        _run(scenario())

    def test_unencodable_and_nested_frames_are_counted_per_destination(self):
        async def scenario():
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=0)
            good = _ball()
            nested = TopicEnvelope(frames=((1, 0, _ball()),))
            # Encodes on its own, but not beside the envelope header's
            # bound and a frame head for any topic.
            brim = _ball(payload="x" * (MAX_DATAGRAM - 20))
            size = len(codec.encode(0, brim))
            frame_head = codec.frame_nbytes(codec.MAX_TOPIC_ID, size) - size
            assert MAX_DATAGRAM - codec.HEADER_SIZE - frame_head < size <= MAX_DATAGRAM
            for message in (nested, brim, {1, 2}, good):
                demux.channel(10).send_many(0, [1, 2], message)
            demux.flush()
            assert demux.stats.dropped_unencodable == 6
            (items,) = fabric.bundles
            assert _decoded(items) == {
                1: [((10, 0, good),)],
                2: [((10, 0, good),)],
            }

        _run(scenario())


_payloads = st.one_of(
    st.integers(-5, 5),
    st.text(max_size=12),
    # Big enough that a handful of frames cannot share one datagram.
    st.integers(9_000, 24_000).map(lambda size: "x" * size),
)
_events = st.builds(
    lambda source, seq, ts, payload: Event(
        id=(source, seq), ts=ts, source_id=source, payload=payload
    ),
    st.integers(0, 9),
    st.integers(0, 99),
    st.integers(0, 1_000),
    _payloads,
)
_entries = st.tuples(_events, st.integers(0, 30))


def _big_event(seq):
    return Event(id=(0, seq), ts=0, source_id=0, payload="x" * 20_000)


_balls = st.lists(
    _entries, max_size=3, unique_by=lambda entry: entry[0].id  # each id once
).map(Ball.of)
_event_ids = st.tuples(st.integers(0, 9), st.integers(0, 99))
_signatures = st.one_of(
    st.none(),
    st.builds(EventSignature, st.integers(0, 9), st.binary(min_size=1, max_size=32)),
)
_signed_balls = _balls.flatmap(
    lambda ball: st.lists(
        _signatures, min_size=len(ball), max_size=len(ball)
    ).map(lambda signatures: SignedBall(ball, tuple(signatures)))
)
_id_balls = st.lists(
    st.tuples(st.integers(0, 1_000), _event_ids, st.integers(0, 30)),
    max_size=4,
    unique_by=lambda entry: entry[1],
).map(
    lambda entries: IdBall(
        Ball.of(
            (Event(id=event_id, ts=ts, source_id=event_id[0]), ttl)
            for ts, event_id, ttl in entries
        )
    )
)
_pull_requests = st.builds(
    PayloadRequest, st.integers(0, 2**32 - 1), st.lists(_event_ids, max_size=4).map(tuple)
)
_pull_responses = st.builds(
    PayloadResponse,
    st.integers(0, 2**32 - 1),
    st.lists(_events, max_size=2).map(tuple),
    st.lists(_event_ids, max_size=2).map(tuple),
)
#: Kinds 1, 7 and 9-11: what a topic's engine sends in either mode.
_messages = st.one_of(_balls, _signed_balls, _id_balls, _pull_requests, _pull_responses)
_sends = st.lists(
    st.tuples(
        st.integers(0, 3),  # topic
        _messages,
        st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True),
    ),
    min_size=1,
    max_size=8,
)


class TestAssembledEnvelopes:
    @settings(max_examples=60, deadline=None)
    @given(_sends)
    # Three entries of 20 000 characters: a ball no envelope can carry.
    @example(
        [
            (0, Ball.of([]), [1]),
            (0, Ball.of((_big_event(seq), 0) for seq in range(3)), [1]),
        ]
    )
    def test_equal_the_object_encoder_byte_for_byte(self, sends):
        """Whatever a tick sends, each envelope on the wire is
        ``codec.encode(host, TopicEnvelope(its frames))`` — and the
        layout written out by hand — every frame
        reaches its destination in order, packing is greedy and a
        message is encoded once. A message no envelope can carry
        reaches no destination and is counted in
        ``dropped_unencodable`` once per destination."""

        async def scenario():
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=7)
            expected = {}
            unencodable = 0
            for topic, message, dsts in sends:
                demux.channel(topic).send_many(7, dsts, message)
                if TopicDemux._encode_frame(7, message) is None:  # noqa: SLF001
                    unencodable += len(dsts)
                    continue
                for dst in dsts:
                    expected.setdefault(dst, []).append((topic, 7, message))
            real = codec.encode
            seen = _flush_counting_encodes(demux)
            assert sorted(map(id, seen)) == sorted({id(m) for _, m, _ in sends})
            assert demux.stats.dropped_unencodable == unencodable
            if not expected:
                assert fabric.bundles == []
                return
            (items,) = fabric.bundles
            arrived = {}
            for dsts, datagram, payload_bytes in items:
                host, envelope = codec.decode(datagram)
                assert host == 7
                assert datagram == _packed_by_hand(7, envelope.frames)
                assert datagram == real(7, envelope)
                assert payload_bytes == codec.last_encode_payload_bytes()
                assert len(datagram) <= MAX_DATAGRAM
                for dst in dsts:
                    arrived.setdefault(dst, []).append((len(datagram), envelope.frames))
            for dst, frames in expected.items():
                envelopes = arrived[dst]
                assert [f for _, group in envelopes for f in group] == frames
                # Greedy: the frame that opened an envelope did not fit
                # into the one before it.
                for (size, _), (_, following) in zip(envelopes, envelopes[1:]):
                    first = real(following[0][1], following[0][2])
                    assert size + 8 + len(first) > MAX_DATAGRAM
            assert set(arrived) == set(expected)

        _run(scenario())

    def test_a_cut_really_happens_in_that_mix(self):
        async def scenario():
            fabric = _WireFabric()
            demux = TopicDemux(fabric, host_id=0)
            for seq in range(4):
                demux.channel(seq).send_many(
                    0, [1, 2], _ball(seq=seq, payload="x" * 24_000)
                )
            demux.flush()
            (items,) = fabric.bundles
            assert [dsts for dsts, _, _ in items] == [[1, 2], [1, 2]]
            assert [len(codec.decode(d)[1].frames) for _, d, _ in items] == [2, 2]
            assert demux.stats.envelopes_sent == 4

        _run(scenario())
