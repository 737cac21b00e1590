"""The datagram header, written out once for the tests.

``magic "EP" | version u8 | kind u8 | sender zvarint | count uvarint``
— laid out here by hand, not with the codec's helpers, so a test that
compares the codec's bytes with these catches a slip in the codec's own
writer. Every test that builds, finds or rewrites a header by hand goes
through this module.
"""

from __future__ import annotations

from typing import Tuple

from repro.runtime import codec

#: The header version the codec writes, and one it never has.
VERSION = codec._VERSION
FUTURE_VERSION = VERSION + 1


def uvarint(value: int) -> bytes:
    """*value* as unsigned LEB128: seven bits a byte, least significant
    first, the high bit set on every byte but the last."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def zvarint(value: int) -> bytes:
    """*value*, an i64, zigzag-mapped onto a uvarint."""
    return uvarint((value << 1) ^ (value >> 63))


def pack_header(kind: int, sender: int, count: int, version: int = VERSION) -> bytes:
    return b"EP" + bytes((version, kind)) + zvarint(sender) + uvarint(count)


def pack_frame(topic: int, inner: bytes) -> bytes:
    """One envelope frame: ``topic uvarint | inner_len uvarint | inner``."""
    return uvarint(topic) + uvarint(len(inner)) + inner


def varint_end(wire, offset: int) -> int:
    """The offset past the varint of *wire* at *offset*."""
    while wire[offset] & 0x80:
        offset += 1
    return offset + 1


def count_span(wire) -> Tuple[int, int]:
    """``(start, end)`` of the header's count in *wire*."""
    start = varint_end(wire, 4)
    return start, varint_end(wire, start)


def header_end(wire) -> int:
    """The offset of *wire*'s body."""
    return count_span(wire)[1]


def body_of(wire) -> bytes:
    """*wire* past its header."""
    return bytes(wire[header_end(wire) :])


def with_count(wire: bytes, count: int) -> bytes:
    """*wire* with its header's count replaced by *count*."""
    start, end = count_span(wire)
    return wire[:start] + uvarint(count) + wire[end:]
