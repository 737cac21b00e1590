"""A node fed plain wire balls ends where the per-entry path would.

The receive path of a plain ball (codec kind 1) builds nothing per
copy: ``decode`` serves a copy whose record bytes the node's
:class:`~repro.runtime.codec.AdmittedEntries` holds from one lookup,
returns a :class:`~repro.core.event.Ball`, and
``DisseminationComponent.receive_ball`` merges it by its maps. This
property throws random datagram sequences at a node — honest balls, an
id named twice in one ball, one id with other ``ts`` or payload bytes,
expired TTLs, envelope frames for this node's topic and another's,
cold and warm tables, both clocks, round ticks in between, truncated
datagrams — and requires the node to end exactly where the model
written below ends: the same nextBall (ids, order, TTLs, events), the
same logical clock, the same :class:`DisseminationStats` and the same
table hits and misses.

The signed (kind 7) and id-ball (kind 9) entries go through the same
table, keyed by their own bytes; a second property throws random
sequences of those at one evolving table and requires every decode to
equal a cold one (``checked_decode``), a copy to be a hit exactly when
its bytes — ``ts``, id and topic, and for a signed entry the payload,
epoch and MAC too — were admitted before under its key (an id-ball
entry's head, a signed entry's epoch and MAC), and a hit to hand out
the objects of the first copy.

The model is the per-entry path: each datagram is the list of ``(event,
ttl)`` entries it was written from, merged entry by entry (Algorithm 1,
lines 11–19). A round counts as relayed the entries it ships: those
that age to below the bound and, on a logical clock, the clock carrier
(``DisseminationComponent._cut``), which never ships alone. A ball that names an id twice is refused the way a
truncated datagram is: the frames of an envelope decoded before it were
counted, and nothing reaches the node. Its table counts a copy as
a hit when the very bytes of its ``ts``, source, sequence and payload
(and the frame's topic) were admitted from an earlier datagram — the
comparison the per-entry decoder made. It remembers every content it
admitted: keyed by record bytes, a second content for one id is a
record of its own, where the per-id table kept the first content only
and parsed every copy of a second one in full.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EpToConfig
from repro.core.clock import GlobalClockOracle, LogicalClockOracle
from repro.core.dissemination import DisseminationComponent, DisseminationStats
from repro.core.event import Ball, Event
from repro.auth import EventSignature, SignedBall
from repro.core.record import payload_json, uvarint, wire_record
from repro.lazy.protocol import IdBall
from repro.runtime import codec
from repro.runtime.codec import AdmittedEntries, CodecError, TopicEnvelope

from ..conftest import RecordingTransport, StaticPeerSampler, pairs
from .header import body_of, header_end, pack_frame, pack_header, with_count
from .warm_table import checked_decode

TTL_BOUND = 4
FANOUT = 2
#: The topic of the node's own frames; frames of any other topic are
#: decoded (and counted by the table) but routed elsewhere.
OURS = 0

#: ``(source, seq)`` of the events a ball can name.
IDS = [(1, 0), (1, 1), (2, 0), (3, 5)]

#: How a copy of an event can differ from its genuine content.
VARIANTS = {
    "genuine": lambda source, seq: (10 * source + seq, f"p{source}{seq}"),
    "other ts": lambda source, seq: (10 * source + seq + 1, f"p{source}{seq}"),
    "other payload": lambda source, seq: (10 * source + seq, {"forged": seq}),
}


def _event(index: int, variant: str) -> Event:
    source, seq = IDS[index]
    ts, payload = VARIANTS[variant](source, seq)
    return Event(id=(source, seq), ts=ts, source_id=source, payload=payload)


_entry = st.builds(
    lambda index, variant, ttl: (_event(index, variant), ttl),
    st.integers(0, len(IDS) - 1),
    st.sampled_from(["genuine"] * 4 + sorted(VARIANTS)),
    st.integers(0, TTL_BOUND + 2),  # expired from TTL_BOUND on
)
#: A ball's entries: mostly each id once, as every honest sender writes.
_ball = st.one_of(
    st.lists(_entry, max_size=5, unique_by=lambda entry: entry[0].id),
    st.lists(_entry, max_size=4, unique_by=lambda entry: entry[0].id),
    st.lists(_entry, max_size=5),
)

#: ``[(topic, ball)]``: a bare ball (topic ``None``) or envelope frames.
_frames = st.one_of(
    _ball.map(lambda ball: [(None, ball)]),
    st.lists(st.tuples(st.sampled_from([OURS, OURS, 1]), _ball), min_size=1, max_size=3),
)
_step = st.one_of(
    st.tuples(st.just("datagram"), _frames),
    st.tuples(st.just("cut"), _frames, st.integers(0, 10_000)),
    st.just(("round",)),
)


def _ball_wire(entries, sender: int = 7) -> bytes:
    """The kind-1 datagram of *entries* as any sender could write it —
    an id named twice included, which no :class:`Ball` can hold."""
    header = pack_header(1, sender, len(entries))
    records = [(ttl, wire_record(event)[0]) for event, ttl in entries]
    wire = header + b"".join(uvarint(ttl) + uvarint(len(r)) + r for ttl, r in records)
    if not _names_an_id_twice(entries):
        assert wire == codec.encode(sender, Ball.of(entries))
    return wire


def _names_an_id_twice(entries) -> bool:
    return len({event.id for event, _ in entries}) < len(entries)


def _wire(frames, sender: int = 7) -> bytes:
    if frames[0][0] is None:
        return _ball_wire(frames[0][1], sender)
    return codec.assemble_envelope(
        sender, [(topic, _ball_wire(entries, sender)) for topic, entries in frames]
    )


def _decoded(frames, size=None) -> list:
    """The frames ``decode`` reads to their end before it raises — at a
    ball naming an id twice, or at the frame a cut to *size* bytes runs
    into — or all of them."""
    if frames[0][0] is None:
        refused = size is not None or _names_an_id_twice(frames[0][1])
        return [] if refused else frames
    complete, end = [], header_end(_wire(frames))
    for topic, entries in frames:
        end += len(pack_frame(topic, _ball_wire(entries)))
        if (size is not None and end > size) or _names_an_id_twice(entries):
            break
        complete.append((topic, entries))
    return complete


class Model:
    """Algorithm 1's per-entry receive and round, and a per-entry table."""

    def __init__(self, logical: bool) -> None:
        self.logical = logical
        self.clock = 0
        self.pending: Dict[tuple, int] = {}
        self.events: Dict[tuple, Event] = {}
        self.stats = DisseminationStats()
        self.admitted = set()
        self.hits = self.misses = 0

    def datagram(self, frames) -> bool:
        """Whether the datagram is admitted: a ball naming an id twice
        refuses it like a cut does."""
        decoded = _decoded(frames)
        if len(decoded) < len(frames):
            self._look_up(decoded)
            return False
        self.admitted.update(self._look_up(frames))  # no verifier: keep all
        for topic, entries in frames:
            if topic in (None, OURS):
                self.receive(entries)
        return True

    def cut(self, frames, size: int) -> None:
        """A datagram cut to *size* bytes: refused, nothing staged — but
        the frames of an envelope that end before the cut were decoded,
        and counted, before the one it cuts raised."""
        self._look_up(_decoded(frames, size))

    def _look_up(self, frames) -> list:
        """Count every copy a hit or a miss; return the first sights."""
        staged = []
        for topic, entries in frames:
            for event, _ in entries:
                key = (event.ts, event.id, payload_json(event.payload), topic)
                if key in self.admitted:
                    self.hits += 1
                else:
                    self.misses += 1
                    staged.append(key)
        return staged

    def receive(self, entries) -> None:
        self.stats.balls_received += 1
        for event, ttl in entries:
            self.stats.entries_received += 1
            if ttl >= TTL_BOUND:
                self.stats.entries_expired += 1
            elif event.id in self.pending:
                self.pending[event.id] = max(self.pending[event.id], ttl)
            else:
                self.pending[event.id] = ttl
                self.events[event.id] = event
            if self.logical:
                self.clock = max(self.clock, event.ts)

    def round(self) -> None:
        """Count what the round ships: the pending entries that age to
        below the bound, plus on a logical clock the one carrying the
        largest ``ts`` when only expired entries carry it. On a logical
        clock a round with no entry below the bound ships nothing."""
        self.stats.rounds += 1
        shipped = [eid for eid, ttl in self.pending.items() if ttl + 1 < TTL_BOUND]
        sends = shipped if self.logical else self.pending
        if sends:
            top = max(event.ts for event in self.events.values())
            carrier = self.logical and all(self.events[eid].ts < top for eid in shipped)
            self.stats.balls_sent += FANOUT
            self.stats.entries_relayed += FANOUT * (len(shipped) + carrier)
        self.pending, self.events = {}, {}


class Node:
    """The receiving half of a UDP node without its socket: decode
    through the node's table, admit every first sight, and hand the
    balls of this node's topic to its dissemination component."""

    def __init__(self, logical: bool) -> None:
        oracle = LogicalClockOracle(TTL_BOUND) if logical else GlobalClockOracle(
            TTL_BOUND, lambda: 0
        )
        self.component = DisseminationComponent(
            node_id=0,
            config=EpToConfig(
                fanout=FANOUT, ttl=TTL_BOUND, clock="logical" if logical else "global"
            ),
            oracle=oracle,
            peer_sampler=StaticPeerSampler([8, 9]),
            transport=RecordingTransport(),
            order_events=lambda ball: None,
            rng=random.Random(0),
        )
        self.table = AdmittedEntries()

    def datagram(self, data: bytes) -> None:
        _, message = codec.decode(memoryview(data), self.table)
        self.table.admit_pending()
        if isinstance(message, TopicEnvelope):
            balls = [ball for topic, _, ball in message.frames if topic == OURS]
        else:
            balls = [message]
        for ball in balls:
            self.component.receive_ball(ball)


def _agree(node: Node, model: Model) -> None:
    component = node.component
    assert list(component._next_ttls.items()) == list(model.pending.items())
    assert list(component._next_events.items()) == list(model.events.items())
    assert dataclasses.asdict(component.stats) == dataclasses.asdict(model.stats)
    if model.logical:
        assert component.oracle.logical_clock == model.clock
    assert (node.table.hits, node.table.misses) == (model.hits, model.misses)


@settings(max_examples=300, deadline=None)
@given(
    logical=st.booleans(),
    warmup=st.lists(_frames, max_size=3),
    steps=st.lists(_step, min_size=1, max_size=14),
)
def test_a_node_ends_where_the_per_entry_path_ends(logical, warmup, steps):
    node, model = Node(logical), Model(logical)
    # A warm table: datagrams the node admitted before its component
    # saw any ball (e.g. frames of topics it no longer serves).
    for frames in warmup:
        try:
            codec.decode(_wire(frames), node.table)
        except CodecError:
            continue  # refused: nothing is admitted
        node.table.admit_pending()
        model.admitted.update(model._look_up(frames))
    node.table.hits = node.table.misses = model.hits = model.misses = 0
    _agree(node, model)
    for step in steps:
        if step[0] == "round":
            node.component.round_tick()
            model.round()
        elif step[0] == "datagram":
            try:
                node.datagram(_wire(step[1]))
            except CodecError:
                assert not model.datagram(step[1])
            else:
                assert model.datagram(step[1])
        else:  # a truncated datagram is refused whole
            wire = _wire(step[1])
            size = step[2] % len(wire)
            try:
                node.datagram(wire[:size])
            except CodecError:
                model.cut(step[1], size)
            else:
                raise AssertionError("a truncated datagram decoded")
        _agree(node, model)


def test_an_id_named_twice_is_refused():
    twice = [(_event(0, "genuine"), 1), (_event(0, "other payload"), 3)]
    with pytest.raises(CodecError, match="twice"):
        codec.decode(_ball_wire(twice))
    assert codec.decode(_ball_wire(twice[:1])) == (7, Ball.of(twice[:1]))


# ----------------------------------------------------------------------
# Signed and id-ball entries: a warm decode is a cold one
# ----------------------------------------------------------------------

#: How a signed copy's signature can differ (``None``: unsigned).
SIGNATURES = {
    "genuine": EventSignature(0, b"A" * 16),
    "other mac": EventSignature(0, b"B" * 16),
    "wide epoch": EventSignature(300, b"A" * 16),
    "unsigned": None,
}

_signed_entry = st.tuples(
    _entry, st.sampled_from(["genuine"] * 3 + sorted(SIGNATURES))
)
_signed_ball = st.one_of(
    st.lists(_signed_entry, max_size=5, unique_by=lambda entry: entry[0][0].id),
    st.lists(_signed_entry, max_size=4),
)
_signed_frames = st.one_of(
    _signed_ball.map(lambda ball: [(None, ball)]),
    st.lists(st.tuples(st.sampled_from([OURS, 1]), _signed_ball), min_size=1, max_size=3),
)


def _kind_wire(kind: int, entries, sender: int = 7) -> bytes:
    """The kind-7 or kind-9 datagram of *entries* — ``((event, ttl),
    signature name)`` — laid end to end, an id named twice included."""
    if kind == 7:
        singles = [
            SignedBall(Ball.of([entry]), (SIGNATURES[name],)) for entry, name in entries
        ]
        empty = SignedBall(Ball({}, {}), ())
    else:
        singles = [IdBall(Ball.of([entry])) for entry, _ in entries]
        empty = IdBall(Ball({}, {}))
    head = with_count(codec.encode(sender, empty), len(entries))
    return head + b"".join(body_of(codec.encode(sender, one)) for one in singles)


def _kind_datagram(kind: int, frames) -> bytes:
    if frames[0][0] is None:
        return _kind_wire(kind, frames[0][1])
    return codec.assemble_envelope(
        7, [(topic, _kind_wire(kind, entries)) for topic, entries in frames]
    )


def _copy_key(kind: int, entry, topic):
    """``(table key, content)`` of a copy, field by field: an id-ball
    entry is keyed by its head; a signed one by its epoch and MAC (an
    unsigned one's are always epoch 0 and no MAC), and is a hit only
    when its content matches too."""
    (event, _), name = entry
    if kind == 9:
        return (event.ts, event.id, topic), None
    signature = SIGNATURES[name]
    mac = (0, b"") if signature is None else (signature.epoch, signature.mac)
    return (mac, topic), (event.ts, event.id, payload_json(event.payload))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([7, 9]),
    steps=st.lists(
        st.tuples(_signed_frames, st.one_of(st.none(), st.integers(0, 10_000))),
        min_size=1,
        max_size=12,
    ),
)
def test_a_warm_decode_of_signed_and_id_balls_is_a_cold_one(kind, steps):
    table = AdmittedEntries()
    first_copies = {}  # copy key -> (content, the event its first copy decoded to)
    for frames, cut in steps:
        wire = _kind_datagram(kind, frames)
        if cut is not None:
            wire = wire[: cut % len(wire)]
        table.hits = table.misses = 0
        try:
            _, message = checked_decode(wire, table)
        except CodecError:
            assert cut is not None or any(
                len({entry[0][0].id for entry in entries}) < len(entries)
                for _, entries in frames
            )
            continue
        table.admit_pending()
        decoded = (
            [(topic, inner) for topic, _, inner in message.frames]
            if isinstance(message, TopicEnvelope)
            else [(None, message)]
        )
        hits = 0
        staged = {}  # first sights count as such until the datagram is admitted
        for (topic, entries), (_, inner) in zip(frames, decoded):
            for entry, (event, ttl) in zip(entries, pairs(inner.ball)):
                assert ttl == entry[0][1]
                key, content = _copy_key(kind, entry, topic)
                if key in first_copies and first_copies[key][0] == content:
                    hits += 1
                    assert event is first_copies[key][1]
                else:
                    staged.setdefault(key, (content, event))
                if kind == 9:
                    assert event.payload is None
        for key, first in staged.items():
            first_copies.setdefault(key, first)  # the first content of a key wins
        copies = sum(len(entries) for _, entries in frames)
        assert (table.hits, table.misses) == (hits, copies - hits)
