"""Two-speed decode: a receiver's admitted-entry table is a pure memo.

Whatever :class:`~repro.runtime.codec.AdmittedEntries` holds,
``decode(data, table)`` must equal ``decode(data)`` — result or
exception — for every input; a byte-identical repeat reuses the
remembered objects, anything else takes the full path and never
replaces a record (every ball entry is keyed by its bytes — a plain
one's record, an id-ball one's head, a signed one's record, epoch and
MAC — so other bytes are another record, and each kind has a map of its
own); only a verified signed entry is one the guard may trust, and the
first verified content of an id wins; nothing of a datagram that raised
is remembered; the table is bounded; and the ids of different topics
never alias.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth import EventSignature, SignedBall
from repro.core.event import Ball, Event
from repro.core.record import uvarint, wire_record
from repro.lazy.protocol import IdBall
from repro.runtime import codec
from repro.runtime.codec import AdmittedEntries, CodecError, TopicEnvelope

from ..conftest import id_ball, pairs
from .header import body_of, header_end, with_count
from .warm_table import checked_decode, warm_table


def _event(src=1, seq=0, ts=10, payload="genuine"):
    return Event(id=(src, seq), ts=ts, source_id=src, payload=payload)


def _ball(*events, ttl=2):
    return Ball.of([(event, ttl) for event in events])


def _signed(ball, epoch=0, mac=b"m" * 16):
    return SignedBall(
        ball, signatures=tuple(EventSignature(epoch=epoch, mac=mac) for _ in ball.ttls)
    )


def _framed(topic, message, sender=1):
    return TopicEnvelope(frames=((topic, sender, message),))


def _key(event):
    """The table key of a bare plain entry: its record bytes."""
    return wire_record(event)[0]


def _signed_key(wire):
    """The table key of the one entry of a bare signed datagram whose
    TTL and record length take a byte each: the epoch and MAC after its
    record."""
    at = header_end(wire)
    return bytes(wire[at + 2 + wire[at + 1] :])


def _nothing_staged(table):
    return not table.pending and not table.staged


def _entries(message):
    """The ``(event, ttl)`` entries of a decoded message, whatever wraps
    them."""
    if isinstance(message, TopicEnvelope):
        return [e for _, _, inner in message.frames for e in _entries(inner)]
    ball = getattr(message, "ball", message)
    return pairs(ball) if isinstance(ball, Ball) else []


class TestRepeatsReuseTheRememberedObjects:
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda b: b,
            _signed,
            IdBall,
            lambda b: _framed(3, b),
            lambda b: _framed(3, _signed(b)),
            lambda b: _framed(3, IdBall(b)),
        ],
        ids=["kind1", "kind7", "kind9", "kind8-kind1", "kind8-kind7", "kind8-kind9"],
    )
    def test_byte_identical_entry_is_decoded_once(self, wrap):
        first_wire = codec.encode(1, wrap(_ball(_event(), ttl=2)))
        # A relayed copy: another sender, another TTL, the same entry.
        later_wire = codec.encode(9, wrap(_ball(_event(), ttl=7)))
        table = AdmittedEntries()
        _, first = checked_decode(first_wire, table)
        table.admit_pending()
        _, later = checked_decode(later_wire, table)
        assert _entries(later)[0][0] is _entries(first)[0][0]
        assert _entries(later)[0][1] == 7
        assert (table.hits, table.misses) == (1, 1)
        assert _nothing_staged(table)

    def test_signature_object_is_reused_with_the_event(self):
        wire = codec.encode(1, _signed(_ball(_event())))
        table = warm_table(wire)
        _, first = codec.decode(wire, table)
        _, again = codec.decode(wire, table)
        assert again.signatures[0] is first.signatures[0]

    def test_nothing_is_remembered_until_the_owner_says_so(self):
        wire = codec.encode(1, _ball(_event()))
        table = AdmittedEntries()
        checked_decode(wire, table)
        checked_decode(wire, table)  # staged, then dropped, then staged again
        assert len(table) == 0 and table.misses == 2

    def test_id_balls_go_through_the_table(self):
        # The plain record of the same event shares the head's bytes,
        # but lives in a map of its own.
        table = warm_table(codec.encode(1, _ball(_event())))
        _, first = checked_decode(codec.encode(1, id_ball((10, 1, 0, 2))), table)
        table.admit_pending()
        _, later = checked_decode(codec.encode(9, id_ball((10, 1, 0, 5))), table)
        assert later.ball.events[(1, 0)] is first.ball.events[(1, 0)]
        assert later.ball.events[(1, 0)].payload is None
        assert (table.hits, table.misses) == (1, 2)
        assert list(table.records[9]) == [b"\x14\x02\x00"]  # ts 10, source 1, seq 0

    def test_a_head_never_answers_a_plain_lookup(self):
        # A plain entry whose record is a bare head has no payload: it is
        # refused, even where the head is remembered as an id-ball entry
        # — and an id-ball head with a payload after it is refused where
        # that plain record is remembered.
        head = b"\x14\x02\x00"
        record = _key(_event())
        table = warm_table(
            codec.encode(1, id_ball((10, 1, 0, 2))), codec.encode(1, _ball(_event()))
        )
        for kind, body in ((1, head), (9, record)):
            empty = Ball({}, {}) if kind == 1 else IdBall(Ball({}, {}))
            wire = with_count(codec.encode(1, empty), 1)
            wire += b"\x02" + uvarint(len(body)) + body
            with pytest.raises(CodecError):
                checked_decode(wire, table)


class TestDifferentContentTakesTheFullPath:
    """Same ``(source, seq)``, other bytes: the equivocation case. The
    copy is parsed in full and never replaces the record. A plain copy's
    bytes are a key of their own, so a fabric without a verifier
    remembers it beside the genuine record; a signed copy with the
    genuine MAC shares the genuine key, so it takes the full path every
    time."""

    VARIANTS = {
        "payload": dict(payload="forged"),
        "ts": dict(ts=11),
    }

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    @pytest.mark.parametrize("wrap", [lambda b: b, _signed], ids=["kind1", "kind7"])
    def test_other_event_bytes(self, wrap, field):
        plain = wrap is not _signed
        genuine = codec.encode(1, wrap(_ball(_event())))
        variant = _event(**self.VARIANTS[field])
        other = codec.encode(1, wrap(_ball(variant)))
        table = warm_table(genuine)
        records = table.records[1 if plain else 7]
        key = _key(_event()) if plain else _signed_key(genuine)
        remembered = records[key]
        genuine_event = remembered if plain else remembered[1]
        for _ in range(3):
            _, message = checked_decode(other, table)
            table.admit_pending()
            assert _entries(message)[0][0] is not genuine_event
        assert records[key] is remembered
        if plain:
            assert len(table) == 2 and records[_key(variant)] == variant
            assert (table.hits, table.misses) == (2, 2)
        else:
            assert _signed_key(other) == key
            assert len(table) == 1 and (table.hits, table.misses) == (0, 4)

    @pytest.mark.parametrize(
        "other",
        [dict(mac=b"x" * 16), dict(epoch=1), dict(mac=b""), dict(mac=b"m" * 15)],
        ids=["mac", "epoch", "unsigned", "short-mac"],
    )
    def test_other_signature_bytes(self, other):
        genuine = codec.encode(1, _signed(_ball(_event())))
        table = warm_table(genuine)
        remembered = table.records[7][_signed_key(genuine)]
        if other.get("mac") == b"":
            forged = SignedBall(_ball(_event()), signatures=(None,))
        else:
            forged = _signed(_ball(_event()), **other)
        _, message = checked_decode(codec.encode(1, forged), table)
        table.admit_pending()
        assert _entries(message)[0][0] is not remembered[1]
        assert message.signatures[0] is not remembered[2]
        assert table.records[7][_signed_key(genuine)] is remembered

    def test_plain_and_signed_copies_of_one_id(self):
        # Neither record serves the other kind: a plain one has no MAC
        # to compare, and a signed one is keyed by id, not by record.
        plain = codec.encode(1, _ball(_event()))
        signed = codec.encode(1, _signed(_ball(_event())))
        table = warm_table(plain)
        checked_decode(signed, table)
        assert table.hits == 0
        table = warm_table(signed)
        checked_decode(plain, table)
        assert table.hits == 0


class TestWholeDatagramFirst:
    def test_nothing_of_a_raising_datagram_is_remembered(self):
        good, bad = _event(seq=0), _event(seq=1)
        wire = codec.encode(1, _ball(good, bad))
        table = AdmittedEntries()
        with pytest.raises(CodecError):
            checked_decode(wire[:-1], table)  # the second entry is cut short
        # The owner never admits after a raise; the next datagram must
        # not drag the first one's good entry in with it either.
        checked_decode(codec.encode(1, _ball(_event(seq=2))), table)
        table.admit_pending()
        assert list(table.records[1]) == [_key(_event(seq=2))]

    def test_a_bad_frame_fails_the_frames_before_it(self):
        envelope = TopicEnvelope(
            frames=((0, 1, _ball(_event(seq=0))), (1, 1, _ball(_event(seq=1))))
        )
        wire = bytearray(codec.encode(1, envelope))
        wire[-3] ^= 0xFF  # inside the last frame's JSON payload
        table = AdmittedEntries()
        with pytest.raises(CodecError):
            checked_decode(bytes(wire), table)
        checked_decode(codec.encode(1, _ball()), table)
        table.admit_pending()
        assert len(table) == 0

    def test_an_out_of_range_ttl_on_a_remembered_entry_still_raises(self):
        wire = codec.encode(1, _ball(_event(), ttl=0))
        table = warm_table(wire)
        # The TTL is the entry's first byte: widen it past the i32 range.
        at = header_end(wire)
        wire = wire[:at] + uvarint(1 << 31) + wire[at + 1 :]
        with pytest.raises(CodecError, match="i32 range"):
            checked_decode(wire, table)


class TestVerifiedRecords:
    def test_only_remember_makes_a_record_the_guard_can_trust(self):
        wire = codec.encode(1, _signed(_ball(_event())))
        unverified = warm_table(wire)
        _, message = codec.decode(wire, unverified)
        event, signature = _entries(message)[0][0], message.signatures[0]
        assert event is unverified.records[7][_signed_key(wire)][1]
        assert not unverified.holds(event, signature)
        assert unverified.signature_of((1, 0)) is None

        verified = AdmittedEntries()
        _, message = codec.decode(wire, verified)
        event, signature = _entries(message)[0][0], message.signatures[0]
        verified.remember(event)
        assert verified.holds(event, signature)
        assert verified.signature_of((1, 0)) is signature
        # Equal is not enough: only the very objects decode hands out
        # for byte-identical entries are vouched for.
        assert not verified.holds(_event(), signature)
        assert not verified.holds(event, EventSignature(0, b"m" * 16))

    def test_remember_ignores_what_this_datagram_did_not_stage(self):
        table = AdmittedEntries()
        codec.decode(codec.encode(1, _signed(_ball(_event()))), table)
        table.remember(_event())  # equal, but not the staged object
        table.remember(_event(seq=5))
        assert len(table) == 0


class TestBounded:
    def test_capacity_is_never_exceeded_and_the_oldest_go_first(self, monkeypatch):
        monkeypatch.setattr(codec, "ADMITTED_CAPACITY", 8)
        table = AdmittedEntries()
        for seq in range(0, 30, 3):
            wire = codec.encode(1, _ball(*(_event(seq=seq + k) for k in range(3))))
            checked_decode(wire, table)
            table.admit_pending()
            assert len(table) <= 8
        assert list(table.records[1]) == [
            _key(_event(seq=seq)) for seq in range(22, 30)
        ]

    def test_an_evicted_id_is_readmitted_through_the_full_path(self, monkeypatch):
        monkeypatch.setattr(codec, "ADMITTED_CAPACITY", 2)
        wires = [codec.encode(1, _ball(_event(seq=seq))) for seq in range(3)]
        table = AdmittedEntries()
        results = []
        for wire in wires:
            results.append(checked_decode(wire, table))
            table.admit_pending()
        assert _key(_event(seq=0)) not in table.records[1]
        misses = table.misses
        again = checked_decode(wires[0], table)
        table.admit_pending()
        assert again == results[0]
        assert table.misses == misses + 1
        assert _key(_event(seq=0)) in table.records[1] and len(table) == 2

    def test_verified_records_are_bounded_too(self, monkeypatch):
        monkeypatch.setattr(codec, "ADMITTED_CAPACITY", 2)
        table = AdmittedEntries()
        for seq in range(5):
            # Each event has a MAC of its own, as a real source's do.
            signed = _signed(_ball(_event(seq=seq)), mac=bytes([seq]) * 16)
            _, message = codec.decode(codec.encode(1, signed), table)
            table.remember(_entries(message)[0][0])
        assert len(table.records[7]) == 2
        assert list(table.verified) == [(1, 3), (1, 4)]


class TestTopicsNeverAlias:
    def test_one_id_on_two_topics_with_different_payloads(self):
        on_a = _ball(_event(payload="topic a"))
        on_b = _ball(_event(payload="topic b"))
        envelope = TopicEnvelope(frames=((0, 1, on_a), (1, 1, on_b)))
        wire = codec.encode(1, envelope)
        table = AdmittedEntries()
        checked_decode(wire, table)
        table.admit_pending()
        assert len(table) == 2
        _, warm = checked_decode(wire, table)
        assert [e.payload for e, _ in _entries(warm)] == ["topic a", "topic b"]
        assert (table.hits, table.misses) == (2, 2)
        # Nor does a framed id alias the same id arriving bare.
        _, bare = checked_decode(codec.encode(1, _ball(_event(payload="bare"))), table)
        assert _entries(bare)[0][0].payload == "bare" and table.misses == 3

    def test_swapping_the_topics_of_two_frames_misses_both(self):
        on_a = _ball(_event(payload="topic a"))
        on_b = _ball(_event(payload="topic b"))
        table = warm_table(
            codec.encode(1, TopicEnvelope(frames=((0, 1, on_a), (1, 1, on_b))))
        )
        swapped = TopicEnvelope(frames=((1, 1, on_a), (0, 1, on_b)))
        checked_decode(codec.encode(1, swapped), table)
        assert table.hits == 0


# ----------------------------------------------------------------------
# Differential property: any datagram sequence through one evolving table
# ----------------------------------------------------------------------

#: One genuine entry per source and the ways a copy of it can differ —
#: in one field, which is what gets past a comparison that forgot it.
_GENUINE = dict(ts=1, payload=None, signature=EventSignature(0, b"A" * 16))
_COPIES = {
    "same": {},
    "payload": dict(payload={"k": [1]}),
    "long payload": dict(payload="x" * 40),
    "ts": dict(ts=2),
    "mac": dict(signature=EventSignature(0, b"B" * 16)),
    "epoch": dict(signature=EventSignature(1, b"A" * 16)),
    "short mac": dict(signature=EventSignature(0, b"A" * 8)),
    "unsigned": dict(signature=None),
}
_ENTRY = st.tuples(
    st.integers(0, 1),  # source (seq is always 0: two ids in all)
    st.integers(0, 4),  # ttl
    st.sampled_from(["same"] * len(_COPIES) + sorted(_COPIES)),
)


@st.composite
def _ball_wire(draw):
    """A plain, signed or id-ball datagram as any sender could write it:
    its body is the one-entry bodies of its entries laid end to end, so
    it may name an id twice, which every decoder refuses."""
    sender = draw(st.integers(0, 3))
    entries, signatures = [], []
    for source, ttl, copy in draw(st.lists(_ENTRY, max_size=3)):
        fields = {**_GENUINE, **_COPIES[copy]}
        entries.append((_event(source, 0, fields["ts"], fields["payload"]), ttl))
        signatures.append(fields["signature"])
    kind = draw(st.sampled_from([1, 7, 9]))
    if kind == 1:
        singles = [Ball.of([entry]) for entry in entries]
        empty = Ball({}, {})
    elif kind == 9:
        singles = [IdBall(Ball.of([entry])) for entry in entries]
        empty = IdBall(Ball({}, {}))
    else:
        singles = [
            SignedBall(Ball.of([entry]), (signature,))
            for entry, signature in zip(entries, signatures)
        ]
        empty = SignedBall(Ball({}, {}), ())
    head = with_count(codec.encode(sender, empty), len(singles))
    return head + b"".join(body_of(codec.encode(sender, one)) for one in singles)


_WIRE = st.one_of(
    _ball_wire(),
    st.tuples(
        st.integers(0, 5),
        st.lists(st.tuples(st.integers(0, 1), _ball_wire()), max_size=3),
    ).map(lambda envelope: codec.assemble_envelope(*envelope)),
)


@st.composite
def _datagram(draw):
    wire = bytearray(draw(_WIRE))
    damage = draw(
        st.sampled_from(["none", "none", "none", "none", "cut", "flip", "grow", "ttl"])
    )
    if damage == "cut":
        del wire[draw(st.integers(0, len(wire) - 1)) :]
    elif damage == "flip":
        for _ in range(draw(st.integers(1, 3))):
            wire[draw(st.integers(0, len(wire) - 1))] ^= 1 << draw(st.integers(0, 7))
    elif damage == "grow":
        wire += draw(st.binary(min_size=1, max_size=4))
    elif damage == "ttl" and len(wire) > header_end(wire):
        # The first entry of a bare ball: its TTL grows a continuation
        # byte.
        wire[header_end(wire)] |= 0x80
    return bytes(wire)


#: What the table's owner does after a datagram decoded: a fabric with
#: no verifier admits everything, a verifying one remembers what checked
#: out (here: every other entry), and a rejected datagram admits nothing.
_OWNER = st.sampled_from(["admit", "admit", "verify", "reject"])


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_datagram(), _OWNER), min_size=1, max_size=16),
    st.sampled_from([2, codec.ADMITTED_CAPACITY]),
)
def test_any_datagram_sequence_decodes_as_without_a_table(steps, capacity):
    original = codec.ADMITTED_CAPACITY
    codec.ADMITTED_CAPACITY = capacity
    try:
        table = AdmittedEntries()
        for data, owner in steps:
            try:
                # Through a view, as the batched receive path decodes.
                _, message = checked_decode(memoryview(data), table)
            except CodecError:
                continue
            if owner == "admit":
                table.admit_pending()
            elif owner == "verify":
                for event, _ in _entries(message)[::2]:
                    table.remember(event)
            assert all(len(kept) <= capacity for kept in table.records.values())
            assert len(table.verified) <= capacity
    finally:
        codec.ADMITTED_CAPACITY = original
