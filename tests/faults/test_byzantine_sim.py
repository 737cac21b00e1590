"""The Byzantine drill against the simulator: hostile relays provably
violate authenticity without auth, and provably cannot with it."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.event import Ball, Event
from repro.experiments.drill import run_drill
from repro.faults import BYZANTINE_BEHAVIORS, ByzantineRouter, FaultSchedule


def _event(src=1, seq=0, ts=10, payload=None):
    return Event(
        id=(src, seq),
        ts=ts,
        source_id=src,
        payload={"v": seq} if payload is None else payload,
    )


def _ball(*events, ttl=4):
    return Ball.of([(event, ttl) for event in events])


class TestRouter:
    def test_honest_sender_untouched(self):
        router = ByzantineRouter(rng=random.Random(0))
        router.enable([1], "equivocate")
        ball = _ball(_event(src=2))
        assert router.transform(3, 5, ball) is ball

    def test_own_entries_never_mutated(self):
        # The relay adversary cannot forge what it could legitimately
        # sign anyway: its own events pass through untouched.
        router = ByzantineRouter(rng=random.Random(0))
        router.enable([1], "equivocate")
        own, relayed = _event(src=1), _event(src=2)
        out = router.transform(1, 5, _ball(own, relayed))
        by_id = out.events
        assert by_id[own.id] == own
        assert by_id[relayed.id] != relayed
        assert by_id[relayed.id].id == relayed.id  # same claimed identity

    def test_equivocation_diverges_per_destination(self):
        router = ByzantineRouter(rng=random.Random(0))
        router.enable([1], "equivocate")
        ball = _ball(_event(src=2))
        [even] = router.transform(1, 4, ball).events.values()
        [odd] = router.transform(1, 5, ball).events.values()
        assert even.id == odd.id and even.ts == odd.ts
        assert even.payload != odd.payload

    def test_replay_and_ttl_inflate_resend_stashed_entries(self):
        router = ByzantineRouter(rng=random.Random(0))
        router.enable([1], "replay")
        router.enable([1], "ttl_inflate")
        stashed = [_event(src=2, seq=seq) for seq in range(4)]
        # The relayed entries are stashed; the ball itself already names
        # every one of them, so nothing is resent into it.
        assert router.transform(1, 4, _ball(*stashed)) == _ball(*stashed)
        assert router.stats.replayed == router.stats.ttl_inflated == 0
        fresh = _ball(_event(src=3))
        out = router.transform(1, 4, fresh)
        # The oldest stash entry is resurrected at TTL 0 unless the
        # replay already resent it; either way something comes back.
        resent = len(out) - len(fresh)
        assert resent >= 1
        assert router.stats.replayed + router.stats.ttl_inflated == resent
        assert stashed[1].id in out.ttls

    def test_disable_restores_honesty(self):
        router = ByzantineRouter(rng=random.Random(0))
        router.enable([1], "garble_relay")
        assert router.is_hostile(1)
        router.disable([1], "garble_relay")
        assert not router.is_hostile(1)
        ball = _ball(_event(src=2))
        assert router.transform(1, 5, ball) is ball

    def test_behaviors_stack_per_node(self):
        router = ByzantineRouter(rng=random.Random(0))
        router.enable([1], "equivocate", rate=1.0)
        router.enable([1], "replay", rate=1.0)
        assert router.hostile_ids == (1,)
        router.disable([1], "replay")
        assert router.is_hostile(1)  # equivocate still active

    def test_seeded_router_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            router = ByzantineRouter(rng=random.Random(42))
            router.enable([1], "garble_relay", rate=0.5)
            ball = _ball(_event(src=2))
            outcomes.append(
                [router.transform(1, d, ball).events[(2, 0)].payload for d in range(8)]
            )
        assert outcomes[0] == outcomes[1]


#: Balls a hostile relay (node 1) ships: ``(source, seq, ttl)`` entries,
#: each id once, and the destination.
_RELAYED = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6)),
            max_size=5,
            unique_by=lambda entry: entry[:2],
        ),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    behaviors=st.lists(st.sampled_from(BYZANTINE_BEHAVIORS), min_size=1, unique=True),
    sends=_RELAYED,
    seed=st.integers(0, 2**16),
)
def test_transform_names_each_id_once_and_never_mutates_its_input(
    behaviors, sends, seed
):
    """Whatever the behaviours and the traffic: every ball the router
    returns names each id once, keeps every id of the ball it was given
    (the sender's own events untouched), leaves that ball as it was, and
    its stats count exactly the entries it appended."""
    router = ByzantineRouter(rng=random.Random(seed), stash_size=4)
    for behavior in behaviors:
        router.enable([1], behavior)
    for entries, dst in sends:
        ball = Ball.of(
            (_event(src=source, seq=seq), ttl) for source, seq, ttl in entries
        )
        before = list(ball.events.items()), list(ball.ttls.items())
        resent = router.stats.replayed + router.stats.ttl_inflated
        out = router.transform(1, dst, ball)
        assert (list(ball.events.items()), list(ball.ttls.items())) == before
        assert list(out.events) == list(out.ttls)
        assert list(out.ttls)[: len(ball)] == list(ball.ttls)
        assert all(
            out.events[event_id] is event
            for event_id, event in ball.events.items()
            if event.source_id == 1
        )
        resent = router.stats.replayed + router.stats.ttl_inflated - resent
        assert len(out) == len(ball) + resent


class TestByzantineDrill:
    def test_without_auth_equivocation_violates_agreement(self):
        result = run_drill(
            scale="small", seed=17, schedule=FaultSchedule.byzantine_drill()
        )
        assert result.byzantine_nodes == 2
        assert result.authenticity is not None
        # The adversary's lies reached correct nodes: forged content
        # and divergent sightings of common event ids.
        assert result.authenticity.forged_deliveries
        assert result.authenticity.equivocated_events
        assert not result.exit_ok

    def test_with_auth_no_forged_delivery_survives(self):
        result = run_drill(
            scale="small",
            seed=17,
            schedule=FaultSchedule.byzantine_drill(),
            auth=True,
        )
        assert result.auth_enabled
        # The attacks happened (entries were rejected at admission) ...
        assert result.dropped_bad_signature > 0
        # ... and none of them reached a correct node's delivery.
        assert result.authenticity is not None and result.authenticity.ok
        assert result.report.safety_ok
        assert result.exit_ok
