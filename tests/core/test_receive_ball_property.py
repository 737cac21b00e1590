"""``receive_ball``'s map merge against a plain Algorithm 1 merge.

A :class:`~repro.core.event.Ball` is merged by its maps, with one clock
update: a round's ball shared by several receivers is skipped when its
live map is one the receiver merged since its last round (the same
object) or when its live entries are all pending at the receiver *at the
same TTL* (C-level dict comparisons), otherwise merged over its live
map; a ball with one receiver is merged in one pass, without the split.
Whatever the sequence of balls — a round's shared ball or a wire ball's,
equal, lower, higher and expired TTLs, an empty pending ball, a
broadcast in between, one ball shared by two receivers whose TTL bounds
differ — the component must end in the state of the per-entry merge
written out below: the same pending ``{event id: ttl}`` in the same
insertion order (it is the next ball's entry order), the same next ball,
the same logical clock and the same :class:`DisseminationStats`. A round
hands its ordering component every pending entry aged, and ships them
cut at its own bound (with the clock carrier on a logical clock, which
never travels alone: a logical-clock round with no entry below the
bound sends nothing); the model writes out both. Either node may merge what the other shipped, so
a receiver whose bound exceeds its sender's is checked entry by entry
too. A second property plays whole fan-out rounds: many senders' balls,
equal, the very same object, sub- and supersets, raised and expired,
reaching every receiver in any order, and balls of an earlier round
arriving late.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EpToConfig
from repro.core.clock import GlobalClockOracle, LogicalClockOracle
from repro.core.dissemination import DisseminationComponent, DisseminationStats
from repro.core.event import Ball, Event

from ..conftest import ManualOracle, RecordingTransport, StaticPeerSampler

#: Two receivers that do not agree on the TTL bound.
TTL_BOUNDS = (3, 5)
FANOUT = 2
PEERS = [7, 8, 9]

#: Foreign events the generated balls draw from.
POOL = [
    Event(id=(src, seq), ts=3 * src + 5 * seq + 1, source_id=src, payload=f"p{src}{seq}")
    for src in (10, 11, 12)
    for seq in (0, 1)
]


class Model:
    """Algorithm 1 lines 6–28, entry by entry, nothing clever."""

    def __init__(self, node_id: int, ttl_bound: int, logical: bool) -> None:
        self.node_id = node_id
        self.ttl_bound = ttl_bound
        self.logical = logical
        self.clock = 0
        self.seq = 0
        self.pending: Dict[tuple, int] = {}
        self.events: Dict[tuple, Event] = {}
        self.stats = DisseminationStats()

    def broadcast(self, payload, now: int) -> Event:
        if self.logical:
            self.clock += 1
        event = Event(
            id=(self.node_id, self.seq),
            ts=self.clock if self.logical else now,
            source_id=self.node_id,
            payload=payload,
        )
        self.seq += 1
        self.pending[event.id] = 0
        self.events[event.id] = event
        self.stats.events_broadcast += 1
        return event

    def receive(self, ball) -> None:
        self.stats.balls_received += 1
        for event, ttl in zip(ball.events.values(), ball.ttls.values()):
            self.stats.entries_received += 1
            if ttl >= self.ttl_bound:
                self.stats.entries_expired += 1
            elif event.id in self.pending:
                self.pending[event.id] = max(self.pending[event.id], ttl)
            else:
                self.pending[event.id] = ttl
                self.events[event.id] = event
            if self.logical:
                self.clock = max(self.clock, event.ts)

    def round(self) -> Tuple[List[Tuple[tuple, int]], List[Tuple[tuple, int]] | None]:
        """The round's ``(ordered, shipped)`` entries: every pending
        entry aged, and those of them still below the bound plus, on a
        logical clock, the clock carrier: the first expired entry of the
        largest ``ts``, when every kept entry's ``ts`` is smaller.
        *shipped* is ``None`` when the round sends nothing: an empty
        ball, or on a logical clock no entry below the bound."""
        self.stats.rounds += 1
        ball = [(eid, ttl + 1) for eid, ttl in self.pending.items()]
        shipped = [(eid, ttl) for eid, ttl in ball if ttl < self.ttl_bound]
        expired = [(eid, ttl) for eid, ttl in ball if ttl >= self.ttl_bound]
        sends = bool(shipped) if self.logical else bool(ball)
        if self.logical and expired:
            ts = {eid: self.events[eid].ts for eid, _ in ball}
            carrier = expired[0]
            for entry in expired:
                if ts[entry[0]] > ts[carrier[0]]:
                    carrier = entry
            if all(ts[eid] < ts[carrier[0]] for eid, _ in shipped):
                shipped = [
                    entry for entry in ball if entry in shipped or entry == carrier
                ]
        if sends:
            self.stats.balls_sent += FANOUT
            self.stats.entries_relayed += FANOUT * len(shipped)
        self.pending, self.events = {}, {}
        return ball, shipped if sends else None


class _Recording(RecordingTransport):
    """Every send (FANOUT sends of one ball per round), and every ball
    handed to the ordering component."""

    def __init__(self) -> None:
        super().__init__()
        self.ordered: List[Ball] = []


def _component(node_id: int, ttl_bound: int, clock: str, oracle):
    transport = _Recording()
    component = DisseminationComponent(
        node_id=node_id,
        config=EpToConfig(fanout=FANOUT, ttl=ttl_bound, clock=clock),
        oracle=oracle,
        peer_sampler=StaticPeerSampler(PEERS),
        transport=transport,
        order_events=transport.ordered.append,
        rng=random.Random(0),
    )
    return component, transport


def _build(node_id: int, ttl_bound: int, clock: str, now: List[int]):
    oracle = (
        LogicalClockOracle(ttl_bound)
        if clock == "logical"
        else GlobalClockOracle(ttl_bound, lambda: now[0])
    )
    component, transport = _component(node_id, ttl_bound, clock, oracle)
    return component, transport, Model(node_id, ttl_bound, clock == "logical")


def _agree(component: DisseminationComponent, model: Model) -> None:
    assert list(component._next_ttls.items()) == list(model.pending.items())
    assert list(component._next_events.items()) == list(model.events.items())
    assert component.next_ball_size == len(model.pending)
    assert dataclasses.asdict(component.stats) == dataclasses.asdict(model.stats)
    if model.logical:
        assert component.oracle.logical_clock == model.clock


def _wire(entries: List[Tuple[Event, int]]) -> Ball:
    """What a decoded wire ball is: one receiver, each id once."""
    return Ball.of({event.id: (event, ttl) for event, ttl in entries}.values())


def _shared(entries: List[Tuple[Event, int]]) -> Ball:
    """What a sender's round would have built: the maps, shared."""
    ball = _wire(entries)
    return Ball(ball.events, ball.ttls, shared=True)


entry_lists = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(min_value=0, max_value=6)),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(clock=st.sampled_from(["global", "logical"]), data=st.data())
def test_receive_ball_equals_per_entry_merge(clock, data):
    now = [0]
    nodes = [
        _build(node_id, bound, clock, now)
        for node_id, bound in enumerate(TTL_BOUNDS)
    ]
    in_flight: List[tuple] = []  # balls that can arrive again, late

    def deliver(ball, receivers) -> None:
        for index in receivers:
            component, _, model = nodes[index]
            component.receive_ball(ball)
            model.receive(ball)
            _agree(component, model)

    receivers = st.sampled_from([(), (0,), (1,), (0, 1), (1, 0)])
    steps = data.draw(st.integers(min_value=1, max_value=25), label="steps")
    for _ in range(steps):
        now[0] += 1
        kind = data.draw(
            st.sampled_from(
                ["shared", "wire", "echo", "again", "broadcast", "round"]
            ),
            label="step",
        )
        index = data.draw(st.sampled_from([0, 1]), label="node")
        component, transport, model = nodes[index]
        if kind == "broadcast":
            payload = data.draw(st.sampled_from(["x", None, {"k": 1}]), label="payload")
            assert component.broadcast(payload) == model.broadcast(payload, now[0])
            _agree(component, model)
            continue
        if kind == "round":
            # The ball this round built may reach the other node, now
            # or (from ``in_flight``) any number of steps later.
            component.round_tick()
            expected, shipped = model.round()
            _agree(component, model)
            (whole,) = transport.ordered
            transport.ordered.clear()
            assert list(whole.ttls.items()) == expected
            if shipped is None:
                assert not transport.sent
                continue
            ball = transport.sent[0][2]
            assert all(message is ball for _, _, message in transport.sent)
            transport.clear()
            assert list(ball.ttls.items()) == shipped
            assert list(ball.events) == [eid for eid, _ in shipped]
            assert all(ball.events[eid] is whole.events[eid] for eid in ball.events)
            to = data.draw(st.sampled_from([(), (1 - index,)]), label="to")
        else:
            if kind == "shared":
                ball = _shared(data.draw(entry_lists, label="entries"))
            elif kind == "wire":
                ball = _wire(data.draw(entry_lists, label="entries"))
            elif kind == "echo":
                # What the node already holds, each TTL nudged by
                # -1/0/+1 and some entries left out: the shortcut's
                # home ground.
                nudges = st.sampled_from([0, 0, 0, -1, 1, None])
                entries = []
                for eid, ttl in component._next_ttls.items():
                    nudge = data.draw(nudges, label="nudge")
                    if nudge is not None:
                        entries.append((component._next_events[eid], max(0, ttl + nudge)))
                ball = data.draw(st.sampled_from([_shared, _wire]), label="as")(entries)
            elif in_flight:  # "again"
                ball = data.draw(st.sampled_from(in_flight), label="which")
            else:
                continue
            to = data.draw(receivers, label="to")
        in_flight.append(ball)
        deliver(ball, to)


#: How one sender's ball of a fan-out round relates to the round's
#: first ball.
VARIANTS = ["equal", "same", "subset", "superset", "raised", "expired"]


def _variant(data, kind: str, base: List[Tuple[Event, int]], sent: List[Ball]) -> Ball:
    if kind == "same" and sent:
        # What a fabric that hands equal balls over as one delivers.
        return data.draw(st.sampled_from(sent), label="which")
    if kind == "subset":
        size = len(base)
        keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return _shared([entry for entry, kept in zip(base, keep) if kept])
    if kind == "superset":
        known = {event.id for event, _ in base}
        extra = data.draw(entry_lists, label="extra")
        return _shared(base + [(e, t) for e, t in extra if e.id not in known])
    if kind == "raised":
        return _shared([(event, ttl + 1) for event, ttl in base])
    if kind == "expired":
        # At or past one receiver's bound, or both.
        ttls = st.sampled_from(sorted(set(TTL_BOUNDS) | {max(TTL_BOUNDS) + 1}))
        return _shared([(event, max(ttl, data.draw(ttls))) for event, ttl in base])
    return _shared(base)  # "equal": the same entries, another object


@settings(max_examples=300, deadline=None)
@given(clock=st.sampled_from(["global", "logical"]), data=st.data())
def test_fan_out_rounds_equal_per_entry_merge(clock, data):
    """Rounds as a synchronised simulator delivers them: several
    senders' shared balls reach every receiver in one round — equal
    entries as distinct objects and as the very object merged before,
    strict sub- and supersets, raised TTLs, entries at or past one
    receiver's bound or both — in any order, with broadcasts in
    between, and a ball of an earlier round arriving after the
    receiver's round handed its pending ball over. Every receiver ends
    every step in the state of the per-entry merge."""
    now = [0]
    nodes = [
        _build(node_id, bound, clock, now)
        for node_id, bound in enumerate(TTL_BOUNDS)
    ]
    earlier: List[Ball] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="rounds")):
        now[0] += 1
        entries = data.draw(entry_lists, label="base")
        base = list({event.id: (event, ttl) for event, ttl in entries}.values())
        sent: List[Ball] = []
        senders = data.draw(st.integers(min_value=1, max_value=6), label="senders")
        for _ in range(senders):
            kind = data.draw(st.sampled_from(VARIANTS), label="variant")
            sent.append(_variant(data, kind, base, sent))
        if earlier:
            sent.append(data.draw(st.sampled_from(earlier), label="late"))
        copies = [(ball, index) for ball in sent for index in range(len(nodes))]
        for ball, index in data.draw(st.permutations(copies), label="order"):
            component, _, model = nodes[index]
            if data.draw(st.booleans(), label="broadcast first"):
                assert component.broadcast("b") == model.broadcast("b", now[0])
            component.receive_ball(ball)
            model.receive(ball)
            _agree(component, model)
        for component, transport, model in nodes:
            component.round_tick()
            expected, _ = model.round()
            _agree(component, model)
            (whole,) = transport.ordered
            assert list(whole.ttls.items()) == expected
            transport.ordered.clear()
            transport.clear()
        earlier.extend(sent)


class _ReadEvents(dict):
    """A ball's events map that records every event read out of it."""

    def __init__(self, events):
        super().__init__(events)
        self.reads = []

    def __getitem__(self, event_id):
        self.reads.append(event_id)
        return super().__getitem__(event_id)


class TestShortcutIsTaken:
    """The properties above cannot see *which* path ran; a recording
    oracle, events map and TTL map can: a ball updates the clock once,
    with its largest timestamp, the shortcut reads no event out of it,
    and a ball merged since the last round is not even compared."""

    def _component(self, ttl: int = 5):
        oracle = ManualOracle(ttl=ttl)
        return _component(0, ttl, "logical", oracle)[0], oracle

    @pytest.mark.parametrize("shape", [_shared, _wire])
    def test_copy_that_teaches_nothing_is_one_clock_update(self, shape):
        component, oracle = self._component()
        component.broadcast("pending")  # no merge into an empty ball
        oracle.updates.clear()
        ball = shape([(POOL[0], 1), (POOL[3], 2), (POOL[5], 5)])  # last: expired
        ball.events = _ReadEvents(ball.events)
        largest = max(POOL[0].ts, POOL[3].ts, POOL[5].ts)
        component.receive_ball(ball)
        assert oracle.updates == [largest]
        assert ball.events.reads == [POOL[0].id, POOL[3].id]  # merged
        oracle.updates.clear()
        ball.events.reads.clear()
        component.receive_ball(ball)
        assert oracle.updates == [largest]
        assert ball.events.reads == []  # skipped
        assert component.stats.entries_received == 6
        assert component.stats.entries_expired == 2

    @pytest.mark.parametrize("ttl, merged", [(0, 1), (2, 2)])
    def test_lower_or_higher_ttl_is_merged_per_entry(self, ttl, merged):
        component, oracle = self._component()
        component.receive_ball(_shared([(POOL[0], 1)]))
        oracle.updates.clear()
        component.receive_ball(_shared([(POOL[0], ttl)]))
        assert oracle.updates == [POOL[0].ts]
        assert component._next_ttls == {POOL[0].id: merged}

    def test_a_ball_with_one_receiver_is_merged_without_a_split(self):
        class Unsplit(Ball):
            def split(self, ttl_bound):
                raise AssertionError("split a ball that has one receiver")

        component, oracle = self._component()
        for entries in ([(POOL[0], 1), (POOL[1], 5)], [(POOL[2], 2)]):
            wire = _wire(entries)  # POOL[1] at the bound: expired
            ball = Unsplit(wire.events, wire.ttls)
            component.receive_ball(ball)
            component.receive_ball(ball)
        assert oracle.updates == [max(POOL[0].ts, POOL[1].ts)] * 2 + [POOL[2].ts] * 2
        assert component._next_ttls == {POOL[0].id: 1, POOL[2].id: 2}
        assert component.stats.entries_expired == 2

    def test_a_ball_merged_this_round_is_known_by_identity(self):
        class Compared(dict):
            """A TTL map that counts the comparisons made with it."""

            count = 0

            def __eq__(self, other):
                Compared.count += 1
                return dict.__eq__(self, other)

        component, _ = self._component()
        ball = _shared([(POOL[0], 1), (POOL[3], 2)])
        ball.ttls = Compared(ball.ttls)
        component.receive_ball(ball)  # merged
        assert Compared.count == 1
        component.receive_ball(ball)
        assert Compared.count == 1  # the same object: not compared
        component.round_tick()  # pending handed over: nothing is known
        component.receive_ball(ball)
        assert Compared.count == 2
        assert component._next_ttls == {POOL[0].id: 1, POOL[3].id: 2}
        assert component.stats.balls_received == 3

    def test_empty_shared_ball_touches_nothing(self):
        component, oracle = self._component()
        component.receive_ball(_shared([]))
        assert oracle.updates == []
        assert component.stats.balls_received == 1
        assert component.stats.entries_received == 0

    def test_split_is_taken_once_per_bound_and_shared(self):
        ball = _shared([(POOL[0], 1), (POOL[1], 4), (POOL[2], 6)])
        live_3, expired_3 = ball.split(3)
        live_5, expired_5 = ball.split(5)
        assert (live_3, expired_3) == ({POOL[0].id: 1}, 2)
        assert (live_5, expired_5) == ({POOL[0].id: 1, POOL[1].id: 4}, 1)
        assert ball.split(3)[0] is live_3 and ball.split(5)[0] is live_5
        # Nothing at or above the bound: the map itself, not a copy.
        assert ball.split(7) == (ball.ttls, 0) and ball.split(7)[0] is ball.ttls
        assert ball.max_ts == max(POOL[0].ts, POOL[1].ts, POOL[2].ts)
