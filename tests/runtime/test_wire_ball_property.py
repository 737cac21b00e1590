"""A node fed plain wire balls ends where the per-entry path would.

The receive path of a plain ball (codec kind 1) no longer builds a
:class:`~repro.core.event.BallEntry` per copy: ``decode`` serves a
copy whose record bytes the node's
:class:`~repro.runtime.codec.AdmittedEntries` holds from one lookup,
returns a :class:`~repro.core.event.MapBall`, and
``DisseminationComponent.receive_ball`` merges it by its maps. This
property throws random datagram sequences at a node — honest balls, an
id named twice in one ball, one id with other ``ts`` or payload bytes,
expired TTLs, envelope frames for this node's topic and another's,
cold and warm tables, both clocks, round ticks in between, truncated
datagrams — and requires the node to end exactly where the model
written below ends: the same nextBall (ids, order, TTLs, events), the
same logical clock, the same :class:`DisseminationStats` and the same
table hits and misses.

The model is the per-entry path: each datagram is the tuple of
``BallEntry`` it was encoded from, merged entry by entry (Algorithm 1,
lines 11–19; an id named twice keeps its first content, counts every
expired copy and max-merges the live ones). Its table counts a copy as
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

from hypothesis import given, settings, strategies as st

from repro.core import EpToConfig
from repro.core.clock import GlobalClockOracle, LogicalClockOracle
from repro.core.dissemination import DisseminationComponent, DisseminationStats
from repro.core.event import BallEntry, Event, make_ball
from repro.core.record import payload_json, uvarint_nbytes, wire_record
from repro.runtime import codec
from repro.runtime.codec import AdmittedEntries, CodecError, TopicEnvelope

from ..conftest import RecordingTransport, StaticPeerSampler

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
    lambda index, variant, ttl: BallEntry(_event(index, variant), ttl),
    st.integers(0, len(IDS) - 1),
    st.sampled_from(["genuine"] * 4 + sorted(VARIANTS)),
    st.integers(0, TTL_BOUND + 2),  # expired from TTL_BOUND on
)
_ball = st.lists(_entry, max_size=5).map(make_ball)

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


def _wire(frames, sender: int = 7) -> bytes:
    if frames[0][0] is None:
        return codec.encode(sender, frames[0][1])
    return codec.encode(sender, TopicEnvelope(frames=tuple((t, sender, b) for t, b in frames)))


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

    def datagram(self, frames) -> None:
        self.admitted.update(self._look_up(frames))  # no verifier: keep all
        for topic, ball in frames:
            if topic in (None, OURS):
                self.receive(ball)

    def cut(self, frames, size: int) -> None:
        """A datagram cut to *size* bytes: refused, nothing staged — but
        the frames of an envelope that end before the cut were decoded,
        and counted, before the one it cuts raised."""
        if frames[0][0] is None:
            return
        complete, end = [], codec.HEADER_SIZE
        for topic, ball in frames:
            end += codec.FRAME_HEAD_SIZE + len(codec.encode(7, ball))
            if end > size:
                break
            complete.append((topic, ball))
        self._look_up(complete)

    def _look_up(self, frames) -> list:
        """Count every copy a hit or a miss; return the first sights."""
        staged = []
        for topic, ball in frames:
            for entry in ball:
                event = entry.event
                key = (event.ts, event.id, payload_json(event.payload), topic)
                if key in self.admitted:
                    self.hits += 1
                else:
                    self.misses += 1
                    staged.append(key)
        return staged

    def receive(self, ball) -> None:
        self.stats.balls_received += 1
        for entry in ball:
            self.stats.entries_received += 1
            event_id = entry.event.id
            if entry.ttl >= TTL_BOUND:
                self.stats.entries_expired += 1
            elif event_id in self.pending:
                self.pending[event_id] = max(self.pending[event_id], entry.ttl)
            else:
                self.pending[event_id] = entry.ttl
                self.events[event_id] = entry.event
            if self.logical:
                self.clock = max(self.clock, entry.event.ts)

    def round(self) -> None:
        self.stats.rounds += 1
        if self.pending:
            self.stats.balls_sent += FANOUT
            self.stats.entries_relayed += FANOUT * len(self.pending)
            for event_id, ttl in self.pending.items():
                record, payload, _ = wire_record(self.events[event_id])
                size = len(record)
                metadata = uvarint_nbytes(ttl + 1) + uvarint_nbytes(size) + size - payload
                self.stats.metadata_bytes += FANOUT * metadata
                self.stats.payload_bytes += FANOUT * payload
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
        codec.decode(_wire(frames), node.table)
        node.table.admit_pending()
        model.admitted.update(model._look_up(frames))
    node.table.hits = node.table.misses = model.hits = model.misses = 0
    _agree(node, model)
    for step in steps:
        if step[0] == "round":
            node.component.round_tick()
            model.round()
        elif step[0] == "datagram":
            node.datagram(_wire(step[1]))
            model.datagram(step[1])
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


def test_an_id_named_twice_decodes_to_the_per_entry_tuple():
    twice = make_ball(
        [
            BallEntry(_event(0, "genuine"), 1),
            BallEntry(_event(0, "other payload"), 3),
            BallEntry(_event(0, "genuine"), TTL_BOUND),
        ]
    )
    _, decoded = codec.decode(codec.encode(7, twice))
    assert type(decoded) is tuple and decoded == twice
    once = make_ball(twice[:1])
    assert type(codec.decode(codec.encode(7, once))[1]).__name__ == "MapBall"
