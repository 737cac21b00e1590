"""Every framing varint of the wire, value by value.

Header version 8 writes the header and every other framing integer as a
minimal varint that keeps the range of the fixed-width field it
replaced: the sender, ids, watermarks, order keys and Cyclon peers i64;
Cyclon ages i32; the count, ``req_id``, ``max_events``, ``max_bytes``,
topic, ``inner_len``, the missing count and a framed record's length
u32. For each of them this file writes datagrams by hand
(``header.py``) and checks that

* every value of the field's range is read back as itself — or, for a
  count or a length, is read as a value and refused only because the
  body holds less than it promises;
* the value one past the range, a non-minimal form and an over-long one
  are refused with :class:`~repro.runtime.codec.CodecError`, named;
* a header cut at any byte is refused;

and that the fields an encoder writes from a message round-trip over
the whole range through ``encode`` and ``decode``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.lazy.protocol import PayloadRequest, PayloadResponse
from repro.pss.cyclon import CyclonRequest, CyclonResponse
from repro.runtime import codec
from repro.runtime.codec import CodecError, CodecVersionError, TopicEnvelope
from repro.sync.protocol import DeliveryDigest, SyncChunk, SyncDigest, SyncRequest

from .header import VERSION, pack_frame, pack_header, uvarint, zvarint



def _range(low: int, high: int) -> st.SearchStrategy:
    """The integers of ``[low, high]``, the ends and the one- and
    two-byte edges drawn often."""
    edges = [v for v in (low, -65, -64, 0, 63, 64, 127, 128, high) if low <= v <= high]
    return st.one_of(st.sampled_from(edges), st.integers(low, high))


I64 = _range(-(1 << 63), (1 << 63) - 1)
I32 = _range(-(1 << 31), (1 << 31) - 1)
U32 = _range(0, 0xFFFFFFFF)

#: A datagram small enough to ride in a frame: an empty Cyclon request.
_INNER = pack_header(2, 1, 0)

#: A record: ts 10, source 1, seq 0, payload "ok".
_RECORD = b"\x14\x02\x00" + b'"ok"'

_CHECKSUM = bytes(4)


class Field(NamedTuple):
    """One framing varint: how to write a datagram around its raw bytes
    and what its range is."""

    #: raw field bytes -> a datagram that is well formed whenever they
    #: are the minimal form of a value in range.
    build: Callable[[bytes], bytes]
    #: ``zvarint`` or ``uvarint``: how a value is written.
    write: Callable[[int], bytes]
    #: the values of the field.
    values: st.SearchStrategy
    #: the raw bytes of the value one past the range, and the refusal.
    past: bytes
    refusal: str
    #: ``(sender, message) -> the field's value``; ``None`` for a count
    #: or a length, which the body must back.
    value: Optional[Callable] = None


_I64_PAST, _U32_PAST = uvarint(1 << 64), uvarint(1 << 32)


def _i64(build, value) -> Field:
    return Field(build, zvarint, I64, _I64_PAST, "i64 range", value)


def _u32(build, value=None) -> Field:
    return Field(build, uvarint, U32, _U32_PAST, "u32 range", value)


FIELDS = {
    "header sender": _i64(
        lambda raw: b"EP" + bytes((VERSION, 2)) + raw + uvarint(0),
        lambda sender, _: sender,
    ),
    "header count": _u32(lambda raw: b"EP" + bytes((VERSION, 2)) + zvarint(1) + raw),
    "frame topic": _u32(
        lambda raw: pack_header(8, 1, 1) + raw + uvarint(len(_INNER)) + _INNER,
        lambda _, envelope: envelope.frames[0][0],
    ),
    "frame inner_len": _u32(
        lambda raw: pack_header(8, 1, 1) + uvarint(0) + raw + _INNER
    ),
    "pull request req_id": _u32(
        lambda raw: pack_header(10, 1, 0) + raw, lambda _, request: request.req_id
    ),
    "pull request id source": _i64(
        lambda raw: pack_header(10, 1, 1) + uvarint(0) + raw + zvarint(0),
        lambda _, request: request.ids[0][0],
    ),
    "pull request id seq": _i64(
        lambda raw: pack_header(10, 1, 1) + uvarint(0) + zvarint(0) + raw,
        lambda _, request: request.ids[0][1],
    ),
    "pull response req_id": _u32(
        lambda raw: pack_header(11, 1, 0) + raw + uvarint(0),
        lambda _, response: response.req_id,
    ),
    "pull response missing count": _u32(
        lambda raw: pack_header(11, 1, 0) + uvarint(0) + raw
    ),
    "pull response record length": _u32(
        lambda raw: pack_header(11, 1, 1) + uvarint(0) + uvarint(0) + raw + _RECORD
    ),
    "pull response missing id": _i64(
        lambda raw: pack_header(11, 1, 0) + uvarint(0) + uvarint(1) + raw + zvarint(0),
        lambda _, response: response.missing[0][0],
    ),
    "sync digest order key": _i64(
        lambda raw: pack_header(4, 1, 0) + b"\x01" + raw + zvarint(0) + zvarint(0),
        lambda _, digest: digest.digest.last_key[0],
    ),
    "sync digest watermark": _i64(
        lambda raw: pack_header(4, 1, 1) + b"\x00" + zvarint(3) + raw,
        lambda _, digest: digest.digest.watermarks[0][1],
    ),
    "sync request req_id": _u32(
        lambda raw: pack_header(5, 1, 0) + raw + uvarint(1) + uvarint(1) + b"\x00",
        lambda _, request: request.req_id,
    ),
    "sync request max_events": _u32(
        lambda raw: pack_header(5, 1, 0) + uvarint(1) + raw + uvarint(1) + b"\x00",
        lambda _, request: request.max_events,
    ),
    "sync request max_bytes": _u32(
        lambda raw: pack_header(5, 1, 0) + uvarint(1) + uvarint(1) + raw + b"\x00",
        lambda _, request: request.max_bytes,
    ),
    "sync request cursor": _i64(
        lambda raw: pack_header(5, 1, 0)
        + uvarint(1) * 3
        + b"\x01"
        + zvarint(0)
        + zvarint(0)
        + raw,
        lambda _, request: request.after[2],
    ),
    "sync chunk req_id": _u32(
        lambda raw: pack_header(6, 1, 0) + raw + b"\x00" + _CHECKSUM,
        lambda _, chunk: chunk.req_id,
    ),
    "sync chunk peer key": _i64(
        lambda raw: pack_header(6, 1, 0)
        + uvarint(0)
        + b"\x02"
        + zvarint(0)
        + raw
        + zvarint(0)
        + _CHECKSUM,
        lambda _, chunk: chunk.peer_last[1],
    ),
    "sync chunk record length": _u32(
        lambda raw: pack_header(6, 1, 1)
        + uvarint(0)
        + b"\x00"
        + _CHECKSUM
        + raw
        + _RECORD
    ),
    "cyclon peer": _i64(
        lambda raw: pack_header(2, 1, 1) + raw + zvarint(0),
        lambda _, view: view.entries[0][0],
    ),
    "cyclon age": Field(
        lambda raw: pack_header(3, 1, 1) + zvarint(5) + raw,
        zvarint,
        I32,
        zvarint(1 << 31),
        "i32 range",
        lambda _, view: view.entries[0][1],
    ),
}

NAMES = sorted(FIELDS)

#: Refusals that say the varint itself was bad, not the body around it.
_VARINT_REFUSALS = ("range", "minimal", "over-long")


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_value_in_range_is_read_back(name, data):
    field = FIELDS[name]
    value = data.draw(field.values)
    wire = field.build(field.write(value))
    try:
        sender, message = codec.decode(wire)
    except CodecError as refusal:
        # Only a count or a length can promise more than the body holds.
        assert field.value is None, refusal
        assert not any(word in str(refusal) for word in _VARINT_REFUSALS), refusal
    else:
        if field.value is not None:
            assert field.value(sender, message) == value


@pytest.mark.parametrize("name", NAMES)
def test_the_value_one_past_the_range_is_refused(name):
    field = FIELDS[name]
    with pytest.raises(CodecError, match=field.refusal) as refusal:
        codec.decode(field.build(field.past))
    assert not isinstance(refusal.value, CodecVersionError)


def _non_minimal(raw: bytes) -> bytes:
    """*raw* padded with a zero group: the same value, one byte longer."""
    return raw[:-1] + bytes((raw[-1] | 0x80, 0))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_non_minimal_form_is_refused(name, data):
    field = FIELDS[name]
    raw = field.write(data.draw(field.values))
    # Padding a ten-byte form makes it longer than any varint may be.
    refusal = "non-minimal" if len(raw) < 10 else "over-long"
    with pytest.raises(CodecError, match=refusal):
        codec.decode(field.build(_non_minimal(raw)))


@pytest.mark.parametrize("name", NAMES)
def test_an_over_long_form_is_refused(name):
    eleven = b"\xff" * 10 + b"\x01"
    with pytest.raises(CodecError, match="over-long"):
        codec.decode(FIELDS[name].build(eleven))


@settings(max_examples=200, deadline=None)
@given(kind=st.integers(1, 11), sender=I64, count=U32)
def test_a_header_cut_at_any_byte_is_refused(kind, sender, count):
    header = pack_header(kind, sender, count)
    assert codec._header(kind, sender, count) == header
    assert codec.count_span(header) == (4 + len(zvarint(sender)), len(header))
    assert len(header) <= codec.HEADER_SIZE
    for cut in range(len(header)):
        with pytest.raises(CodecError):
            codec.decode(header[:cut])


@settings(max_examples=200, deadline=None)
@given(
    sender=I64,
    req_id=U32,
    topic=U32,
    pair=st.tuples(I64, I64),
    key=st.tuples(I64, I64, I64),
    peer=I64,
    age=I32,
    caps=st.tuples(U32, U32),
)
def test_what_a_message_carries_round_trips_over_the_whole_range(
    sender, req_id, topic, pair, key, peer, age, caps
):
    messages = [
        CyclonRequest(entries=((peer, age),)),
        CyclonResponse(entries=((peer, age), (pair[0], 0))),
        SyncDigest(digest=DeliveryDigest(last_key=key, watermarks=(pair,))),
        SyncRequest(
            req_id=req_id,
            after=key,
            watermarks=(pair,),
            max_events=caps[0],
            max_bytes=caps[1],
        ),
        SyncChunk(req_id=req_id, events=(), checksum=req_id, peer_last=key),
        PayloadRequest(req_id=req_id, ids=(pair,)),
        PayloadResponse(req_id=req_id, events=(), missing=(pair,)),
    ]
    for message in messages:
        assert codec.decode(codec.encode(sender, message)) == (sender, message)
    envelope = TopicEnvelope(frames=tuple((topic, sender, m) for m in messages))
    assert codec.decode(codec.encode(sender, envelope)) == (sender, envelope)


def test_an_encoder_refuses_the_value_one_past_each_range():
    past_i64, past_u32 = 1 << 63, 1 << 32
    refused = [
        (past_i64, CyclonRequest(entries=())),
        (1, CyclonRequest(entries=((past_i64, 0),))),
        (1, CyclonResponse(entries=((0, 1 << 31),))),
        (1, SyncDigest(DeliveryDigest(last_key=(0, 0, past_i64), watermarks=()))),
        (1, SyncRequest(req_id=0, after=None, watermarks=(), max_events=past_u32)),
        (1, SyncRequest(req_id=0, after=None, watermarks=(), max_bytes=past_u32)),
        (1, PayloadRequest(req_id=0, ids=((0, -past_i64 - 1),))),
        (1, PayloadResponse(req_id=0, events=(), missing=((past_i64, 0),))),
        (1, TopicEnvelope(frames=((past_u32, 1, CyclonRequest(entries=())),))),
    ]
    for sender, message in refused:
        with pytest.raises(CodecError, match="range"):
            codec.encode(sender, message)


def test_a_frame_is_laid_out_as_written_by_hand():
    envelope = TopicEnvelope(frames=((300, 1, CyclonRequest(entries=())),))
    wire = codec.encode(-5, envelope)
    assert wire == pack_header(8, -5, 1) + pack_frame(300, _INNER)
