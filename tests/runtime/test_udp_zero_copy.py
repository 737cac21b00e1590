"""Receive-path hostility: hostile datagrams through zero-copy decode.

The raw-socket receive path hands a ``memoryview`` of the fabric's one
receive arena straight into :func:`repro.runtime.codec.decode`.
These tests pin the two invariants that make that safe:

1. any truncated / oversized / bit-flipped datagram is rejected with
   the correct split counter (``dropped_malformed`` vs
   ``dropped_bad_version``) and never crashes the fabric — for the
   plain ball (kind 1) and the signed one (kind 7);
2. nothing the codec returns aliases the receive buffer: no
   ``memoryview`` escapes past handler return, so the transport may
   overwrite the arena the moment the handler completes — with the
   next datagram of any node of the fabric.
"""

from __future__ import annotations

import asyncio
import copy
import random

import pytest

from repro.auth import BallGuard, HmacAuthenticator, KeyRing
from repro.core.event import Ball, Event
from repro.runtime import codec
from repro.runtime.codec import CodecError, CodecVersionError, decode
from repro.runtime.udp import UdpNetwork

from ..conftest import first_event
from .header import FUTURE_VERSION
from .warm_table import checked_decode, warm_table


def run(coro):
    return asyncio.run(coro)


def a_ball(payload="x"):
    return Ball.of(
        [
            (Event(id=(9, 0), ts=1, source_id=9, payload=payload), 0),
            (Event(id=(9, 1), ts=2, source_id=9, payload=[payload, 1]), 3),
        ]
    )


def _plain_wire(payload="plain"):
    return codec.encode(9, a_ball(payload))


def _signed_wire(payload="signed"):
    guard = BallGuard(HmacAuthenticator(KeyRing("zero-copy-test")))
    ball = a_ball(payload)
    guard.seal(9, ball)
    return codec.encode(9, guard.attach(ball))


def _walk(obj):
    """Yield every object reachable from a delivered message."""
    yield obj
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _walk(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _walk(item)


#: Named, or pytest names each case after the datagram's bytes.
_BOTH_BALLS = pytest.mark.parametrize(
    "wire", [_plain_wire(), _signed_wire()], ids=["plain", "signed"]
)


class TestCodecFuzz:
    """Direct fuzz of ``decode`` over memoryview slices (no sockets)."""

    #: What the hostile views are thrown at; the warm-table rerun below
    #: swaps in a receiver that already admitted both genuine balls.
    decode = staticmethod(decode)

    @_BOTH_BALLS
    def test_truncation_at_every_boundary_is_rejected(self, wire):
        for cut in range(len(wire)):
            with pytest.raises((CodecError, CodecVersionError)):
                self.decode(memoryview(wire)[:cut])

    @_BOTH_BALLS
    def test_oversized_datagram_is_rejected(self, wire):
        with pytest.raises(CodecError):
            self.decode(memoryview(wire + b"\x00junk"))

    @_BOTH_BALLS
    def test_bit_flip_fuzz_never_crashes(self, wire):
        """Seeded single-bit flips either decode (flip landed in a
        payload byte that stayed valid) or raise a codec error — never
        anything else, and never an escape of the source buffer."""
        rng = random.Random(0xF12)
        for _ in range(400):
            mutated = bytearray(wire)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            view = memoryview(mutated)
            try:
                sender, message = self.decode(view)
            except (CodecError, CodecVersionError):
                continue
            assert isinstance(sender, int)
            for obj in _walk(message):
                assert not isinstance(obj, (memoryview, bytearray))

    def test_version_flip_is_a_version_rejection_not_malformed(self):
        wire = bytearray(_plain_wire())
        wire[2] = FUTURE_VERSION
        with pytest.raises(CodecVersionError):
            self.decode(memoryview(wire))

    def test_decode_from_offset_view_into_larger_buffer(self):
        """Memoryview boundary check: the wire embedded mid-buffer
        decodes identically to a standalone copy."""
        wire = _plain_wire("embedded")
        arena = bytearray(b"\xaa" * 37) + wire + bytearray(b"\xbb" * 53)
        view = memoryview(arena)[37 : 37 + len(wire)]
        assert self.decode(view) == self.decode(wire)

    def test_decoded_message_survives_buffer_scribble(self):
        """Everything decode returns is owned: zeroing the source
        buffer afterwards must not disturb the message."""
        wire = bytearray(_signed_wire("keepsake"))
        sender, message = self.decode(memoryview(wire))
        wire[:] = bytes(len(wire))
        assert sender == 9
        assert first_event(message.entries).payload == "keepsake"
        mac = message.signatures[0].mac
        assert isinstance(mac, bytes) and any(mac)


class TestCodecFuzzWarmTable(TestCodecFuzz):
    """The same fuzz against a receiver whose table already holds the
    genuine entries: every mutated view is compared against remembered
    bytes first, and still nothing of the receive buffer may escape —
    the table owns a copy of whatever it keeps."""

    def setup_method(self):
        self.table = warm_table(
            _plain_wire(), _signed_wire(), _plain_wire("embedded"),
            _signed_wire("keepsake"),
        )

    def decode(self, data):
        return checked_decode(data, self.table)

    def test_remembered_bytes_survive_buffer_scribble(self):
        """What the table keeps of a first sight is owned too: zeroing
        the receive buffer must not turn later copies into misses."""
        wire = _signed_wire("first sight")
        buffer = bytearray(wire)
        table = warm_table(memoryview(buffer))
        buffer[:] = bytes(len(buffer))
        _, message = checked_decode(memoryview(bytearray(wire)), table)
        assert first_event(message.entries).payload == "first sight"
        assert table.hits == len(message.entries)


class TestFabricHostility:
    """The same hostility through real sockets and the arena
    receive path, asserting the fabric's split drop counters."""

    def _scenario(self, wires, authenticator=None):
        async def go():
            network = UdpNetwork(authenticator=authenticator)
            inbox = []
            network.register(1, lambda src, msg: inbox.append((src, msg)))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            host, port = network._addresses[1]  # noqa: SLF001 - test rig
            endpoint = network._transports[2]  # noqa: SLF001 - test rig
            for wire in wires:
                endpoint.sendto(bytes(wire), (host, port))
            await asyncio.sleep(0.08)
            await network.close()
            return inbox, network.stats

        return run(go())

    def test_fuzzed_wires_split_counters_and_never_crash(self):
        rng = random.Random(0xBEEF)
        wire = _plain_wire("survivor")
        wires = [wire]  # one intact datagram among the noise
        for _ in range(40):
            mutated = bytearray(wire)
            mode = rng.randrange(3)
            if mode == 0:
                mutated = mutated[: rng.randrange(1, len(mutated))]
            elif mode == 1:
                mutated[rng.randrange(len(mutated))] ^= 0xFF
            else:
                mutated += b"\x00" * rng.randrange(1, 9)
            wires.append(mutated)
        inbox, stats = self._scenario(wires)
        assert len(inbox) >= 1
        assert first_event(inbox[0][1]).payload == "survivor"
        rejected = stats.dropped_malformed + stats.dropped_bad_version
        assert len(inbox) + rejected == len(wires)
        assert stats.dropped_malformed > 0

    def test_flipped_version_counts_bad_version_over_udp(self):
        wire = bytearray(_plain_wire())
        wire[2] = FUTURE_VERSION
        inbox, stats = self._scenario([wire])
        assert inbox == []
        assert stats.dropped_bad_version == 1
        assert stats.dropped_malformed == 0

    def test_mangled_signed_ball_is_rejected_per_cause(self):
        """A signed ball (kind 7) with a flipped MAC byte decodes fine
        but fails admission — counted as a signature rejection, not as
        line noise."""
        authenticator = HmacAuthenticator(KeyRing("zero-copy-test"))
        guard = BallGuard(authenticator)
        # The sealer only signs events it originated: source must be 2.
        ball = Ball.of(
            [(Event(id=(2, 0), ts=1, source_id=2, payload="sealed"), 0)]
        )
        guard.seal(2, ball)
        signed = guard.attach(ball)
        wire = bytearray(codec.encode(2, signed))
        mac = signed.signatures[0].mac
        offset = bytes(wire).find(mac)
        assert offset > 0, "MAC not found in wire"
        wire[offset] ^= 0x01
        inbox, stats = self._scenario([wire], authenticator=authenticator)
        assert stats.dropped_bad_signature >= 1
        assert stats.dropped_malformed == 0

    def test_no_memoryview_escapes_past_handler_return(self):
        """End to end over raw sockets: deliver a real ball, then
        scribble the receive arena — the delivered message must be
        untouched, and nothing reachable from it may be a memoryview
        or bytearray."""

        async def go():
            network = UdpNetwork(seed=3)
            inbox = []
            network.register(1, lambda src, msg: inbox.append((src, msg)))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            raw = network._transports[1]  # noqa: SLF001 - test rig
            assert getattr(raw, "is_raw", False), "raw sockets not active"
            network.send(2, 1, a_ball("fragile"))
            await asyncio.sleep(0.05)
            arena = network._arena  # noqa: SLF001 - test rig
            assert bytes(arena[:2]) == b"EP", "the datagram did not land here"
            arena[:] = bytes(len(arena))
            await network.close()
            return inbox

        inbox = run(go())
        assert len(inbox) == 1
        src, message = inbox[0]
        assert src == 2
        assert first_event(message).payload == "fragile"
        for obj in _walk(message):
            assert not isinstance(obj, (memoryview, bytearray))


class TestSharedArena:
    """Every raw endpoint of a fabric reads into the same buffer. What
    one node was handed — and what its table kept — must not change
    when the next datagram, another node's, lands on top of it."""

    def test_nothing_a_node_holds_changes_when_the_other_node_reads(self):
        authenticator = HmacAuthenticator(KeyRing("zero-copy-test"))

        async def go():
            network = UdpNetwork(authenticator=authenticator)
            inboxes = {1: [], 2: []}
            tables = {}
            snapshots = []

            def held():
                """Everything both nodes hold right now, by value."""
                return copy.deepcopy(
                    (
                        inboxes,
                        {
                            node: [
                                item
                                for records in table.records.values()
                                for item in records.items()
                            ]
                            for node, table in tables.items()
                        },
                    )
                )

            def inbox(node):
                def handler(src, msg):
                    inboxes[node].append(msg)
                    snapshots.append(held())

                return handler

            network.register(1, inbox(1))
            network.register(2, inbox(2))
            network.register(3, lambda src, msg: None)
            tables.update(
                {node: network._admitted[node] for node in (1, 2)}  # noqa: SLF001
            )
            await network.open_all()
            # Alternating receivers, and datagrams of different lengths
            # so a later one covers an earlier one's bytes only partly.
            for seq in range(8):
                event = Event(
                    id=(3, seq), ts=seq, source_id=3, payload=[f"p{seq}"] * (9 - seq)
                )
                network.send(3, 1 + seq % 2, Ball.of([(event, 2)]))
                await asyncio.sleep(0.01)
            final = held()
            arena = network._arena  # noqa: SLF001 - test rig
            arena[:] = bytes(len(arena))
            scribbled = held()
            await network.close()
            return snapshots, final, scribbled, network.stats

        snapshots, final, scribbled, stats = run(go())
        assert stats.delivered == 8 and stats.dropped_undecodable == 0
        assert final == scribbled
        final_inboxes, final_records = final
        assert [len(box) for box in final_inboxes.values()] == [4, 4]
        for then_inboxes, then_records in snapshots:
            for node in (1, 2):
                then = then_inboxes[node]
                assert final_inboxes[node][: len(then)] == then
                kept = then_records[node]
                assert final_records[node][: len(kept)] == kept
        for records in final_records.values():
            for tail, (record, event, signature) in records:
                assert type(record) is bytes and type(tail) is bytes
                assert type(signature.mac) is bytes
                assert event._wire[0] is record  # the payload is held once
        for box in final_inboxes.values():
            for obj in _walk(box):
                assert not isinstance(obj, (memoryview, bytearray))
