"""A record head read in line equals the chain of checked varint reads.

``repro.core.record._read_head`` reads a one-byte varint in line and
hands every other field to :func:`~repro.core.record.read_zvarint`.
Whatever the bytes — random, truncated anywhere, a non-minimal or
over-long varint, a value outside the i64 range, a head that is all
one-byte fields or none — it must return what three ``read_zvarint``
calls return, or raise the ``ValueError`` they raise, with the same
text.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.record import _read_head, read_zvarint, uvarint, zvarints

I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def chained(record):
    """The head read as three checked varints, nothing in line."""
    ts, at = read_zvarint(record, 0, "record ts")
    source, at = read_zvarint(record, at, "record source")
    seq, at = read_zvarint(record, at, "record seq")
    return ts, source, seq, at


def outcome(read, record):
    try:
        return "ok", read(record)
    except ValueError as error:
        return "error", str(error)


@st.composite
def fields(draw):
    """One field's bytes: well formed or damaged in one way."""
    kind = draw(
        st.sampled_from(
            ["one byte", "i64", "non-minimal", "over-long", "beyond i64", "truncated"]
        )
    )
    if kind == "one byte":
        return zvarints(draw(st.integers(min_value=-64, max_value=63)))
    if kind == "i64":
        return zvarints(draw(I64))
    if kind == "non-minimal":
        # A value padded with continuation bytes and a closing zero.
        value = draw(st.integers(min_value=0, max_value=(1 << 56) - 1))
        body = bytearray(uvarint(value))
        body[-1] |= 0x80
        pad = draw(st.integers(min_value=0, max_value=2))
        return bytes(body) + b"\x80" * pad + b"\x00"
    if kind == "over-long":
        return b"\xff" * draw(st.integers(min_value=10, max_value=12)) + b"\x01"
    if kind == "beyond i64":
        return uvarint(draw(st.integers(min_value=1 << 64, max_value=(1 << 70) - 1)))
    return uvarint(draw(st.integers(min_value=0x80, max_value=1 << 64)))[:-1]


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=24))
def test_random_bytes_read_as_the_chain_reads_them(record):
    assert outcome(_read_head, record) == outcome(chained, record)


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(fields(), min_size=1, max_size=4),
    st.binary(max_size=4),
    st.data(),
)
def test_built_heads_read_as_the_chain_reads_them(parts, tail, data):
    record = b"".join(parts) + tail
    cut = data.draw(st.integers(min_value=0, max_value=len(record)), label="cut")
    for head in (record, record[:cut], memoryview(record)[:cut]):
        assert outcome(_read_head, head) == outcome(chained, head)


def test_each_damage_is_refused_with_the_chains_text():
    for record, text in [
        (b"", "truncated record ts"),
        (b"\x02", "truncated record source"),
        (b"\x02\x04\x80", "truncated record seq"),
        (b"\x02\x80\x00\x06", "non-minimal varint in record source"),
        (b"\x02\x04" + b"\xff" * 10 + b"\x01", "over-long varint in record seq"),
        (uvarint(1 << 64), "record ts overflows the i64 range"),
    ]:
        assert outcome(_read_head, record) == ("error", text)
        assert outcome(chained, record) == ("error", text)
