"""Hostile bytes: the damage every decode path must survive.

The UDP fabric's ``decode`` faces the open internet, so for any valid
datagram a truncated copy, one with trailing garbage and one whose
header claims more entries than it carries must be refused with
:class:`~repro.runtime.codec.CodecError`, and a bit-flipped copy must
either decode or be refused the same way — no other exception may ever
escape. The damage is written here once; ``test_codec_corpus.py`` throws
it at a sample of every row of the codec's kind table, and the
kind-specific files at the particular datagrams they care about.

Every checker takes the ``decode`` under test, so a caller can swap in
:func:`tests.runtime.warm_table.checked_decode` (a receiver that has
already admitted the genuine datagram) or hand the bytes over as a
``bytearray`` or ``memoryview``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

import pytest

from repro.runtime.codec import CodecError

from .header import with_count


def truncations(wire: bytes) -> Iterator[bytes]:
    """Every proper prefix of *wire*, the empty one included."""
    return (wire[:cut] for cut in range(len(wire)))


def trailing_garbage(wire: bytes) -> tuple:
    """*wire* with one stray byte, and with a whole second datagram."""
    return (wire + b"\x00", wire + wire)


def inflated_count(wire: bytes) -> bytes:
    """*wire* claiming far more entries than it carries (the header's
    count, a uvarint after the sender)."""
    return with_count(wire, 2**31)


def bit_flips(wire: bytes, rounds: int = 400, seed: int = 0xC0DEC) -> Iterator[bytes]:
    """*rounds* seeded copies of *wire* with one to four bits flipped."""
    rng = random.Random(seed)
    for _ in range(rounds):
        mutated = bytearray(wire)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        yield bytes(mutated)


def assert_all_rejected(decode: Callable, datagrams: Iterable[bytes]) -> None:
    """Each of *datagrams* raises :class:`CodecError` — and nothing
    else: ``pytest.raises`` lets any other exception through."""
    for datagram in datagrams:
        with pytest.raises(CodecError):
            decode(datagram)


def assert_only_codec_errors(decode: Callable, datagrams: Iterable[bytes]) -> None:
    """Each of *datagrams* decodes or raises :class:`CodecError`.

    Flips confined to payloads, senders, ids or topic ids can decode;
    routing and authentication reject those later. At least one must be
    refused, or the damage never reached a checked field.
    """
    rejected = 0
    for datagram in datagrams:
        try:
            decode(datagram)
        except CodecError:
            rejected += 1
    assert rejected > 0
