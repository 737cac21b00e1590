"""Tests for per-fabric seal/admit (repro.auth.guard)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.auth import BallGuard, HmacAuthenticator, KeyRing
from repro.core.event import Ball, Event
from repro.runtime import codec
from repro.runtime.codec import AdmittedEntries


def _event(src=1, seq=0, ts=10, payload=None):
    return Event(
        id=(src, seq),
        ts=ts,
        source_id=src,
        payload={"v": seq} if payload is None else payload,
    )


def _ball(*events, ttl=4):
    return Ball.of([(event, ttl) for event in events])


@pytest.fixture
def guard():
    return BallGuard(HmacAuthenticator(KeyRing("test-cluster")))


class TestSeal:
    def test_seals_only_own_entries(self, guard):
        own, relayed = _event(src=1, seq=0), _event(src=2, seq=0)
        guard.seal(1, _ball(own, relayed))
        assert guard.cached_signature(own.id) is not None
        assert guard.cached_signature(relayed.id) is None

    def test_sign_once_cache_pins_original_bytes(self, guard):
        # The origin seals before any relay can forward; a later seal of
        # a mutated copy under the same id must not overwrite the
        # genuine signature — that is what defeats equivocation.
        own = _event(src=1, seq=0)
        guard.seal(1, _ball(own))
        original = guard.cached_signature(own.id)
        mutated = dataclasses.replace(own, payload={"v": "evil"})
        guard.seal(1, _ball(mutated))
        assert guard.cached_signature(own.id) == original

    def test_repeated_seal_of_the_same_ball_changes_nothing(self, guard):
        # SimNetwork.send_many seals once per fan-out where K sends
        # sealed K times: the K-1 repeats must have been no-ops — no
        # new signature, none replaced, cache order (FIFO eviction
        # order) untouched, even across a key rotation.
        ball = _ball(_event(src=1, seq=0), _event(src=2, seq=0), _event(src=1, seq=1))
        signed = []
        sign = guard.authenticator.sign
        guard.authenticator.sign = lambda event: signed.append(event.id) or sign(event)
        guard.seal(1, ball)
        once = list(guard._signatures.items())
        assert signed == [(1, 0), (1, 1)]
        guard.authenticator.keyring.rotate(1)
        for _ in range(3):
            guard.seal(1, ball)
        assert signed == [(1, 0), (1, 1)]
        assert list(guard._signatures.items()) == once

    def test_an_event_outside_the_i64_range_is_left_unsigned(self, guard):
        # A Lamport clock pushed to its maximum: no canonical bytes to
        # sign, and no wire layout to carry it.
        saturated = _event(src=1, seq=0, ts=2**63)
        edge = _event(src=1, seq=1, ts=2**63 - 1)
        guard.seal(1, _ball(saturated, edge))
        assert guard.cached_signature(saturated.id) is None
        assert guard.cached_signature(edge.id) is not None

    def test_attach_pairs_cached_signatures(self, guard):
        own, relayed = _event(src=1, seq=0), _event(src=2, seq=0)
        ball = _ball(own, relayed)
        guard.seal(1, ball)
        signed = guard.attach(ball)
        assert signed.signatures[0] is not None
        assert signed.signatures[1] is None


class TestAdmit:
    def test_sealed_ball_admitted_in_full(self, guard):
        events = [_event(src=i, seq=0) for i in (1, 2, 3)]
        ball = _ball(*events)
        for event in events:
            guard.seal(event.source_id, ball)
        admitted, counts = guard.admit_ball(ball)
        assert admitted is ball  # nothing dropped: the ball itself
        assert counts.rejected == 0

    def test_mutated_copy_under_cached_id_rejected(self, guard):
        own = _event(src=1, seq=0)
        guard.seal(1, _ball(own))
        forged = dataclasses.replace(own, payload={"v": "evil"})
        admitted, counts = guard.admit_ball(_ball(forged))
        assert admitted == _ball()
        assert counts.bad_signature == 1

    def test_unsigned_entry_counted_not_admitted(self, guard):
        admitted, counts = guard.admit_ball(_ball(_event(src=1)))
        assert admitted == _ball()
        assert counts.unsigned == 1

    def test_mixed_ball_admits_honest_remainder(self, guard):
        honest, unsigned = _event(src=1, seq=0), _event(src=2, seq=0)
        guard.seal(1, _ball(honest))
        admitted, counts = guard.admit_ball(_ball(honest, unsigned))
        assert admitted == _ball(honest) and not admitted.shared
        assert counts.unsigned == 1

    def test_admit_signed_caches_for_onward_relay(self, guard):
        origin = BallGuard(guard.authenticator)
        own = _event(src=1, seq=0)
        ball = _ball(own)
        origin.seal(1, ball)
        # The receiving node's table is the relay cache: the datagram is
        # decoded through it and the guard remembers what it verified.
        table = AdmittedEntries()
        _, wire = codec.decode(codec.encode(1, origin.attach(ball)), table)

        admitted, counts = guard.admit_signed(wire, table)
        assert counts.rejected == 0 and len(admitted) == 1
        # The receiver can now relay the entry onward with the MAC.
        relayed = guard.attach(admitted, table)
        assert relayed.signatures[0] == wire.signatures[0]
        # Without the node's table the guard knows only its own seals.
        assert guard.attach(admitted).signatures[0] is None

    def test_rejected_entry_is_not_cached_for_relay(self, guard):
        origin = BallGuard(guard.authenticator)
        own = _event(src=1, seq=0)
        origin.seal(1, _ball(own))
        forged = _ball(dataclasses.replace(own, payload={"v": "evil"}))
        table = AdmittedEntries()
        _, wire = codec.decode(codec.encode(1, origin.attach(forged)), table)

        admitted, counts = guard.admit_signed(wire, table)
        assert admitted == _ball() and counts.bad_signature == 1
        assert len(table) == 0
        assert guard.attach(forged, table).signatures[0] is None

    def test_unknown_key_verdict_counted(self, guard):
        ring = guard.authenticator.keyring
        own = _event(src=7, seq=0)
        ball = _ball(own)
        guard.seal(7, ball)
        wire = guard.attach(ball)
        ring.revoke(7)
        receiver = BallGuard(guard.authenticator)
        admitted, counts = receiver.admit_signed(wire)
        assert admitted == _ball()
        assert counts.unknown_key == 1


class TestCache:
    def test_fifo_eviction_bounds_memory(self):
        guard = BallGuard(
            HmacAuthenticator(KeyRing("test-cluster")), cache_size=2
        )
        events = [_event(src=1, seq=i) for i in range(3)]
        for event in events:
            guard.seal(1, _ball(event))
        assert len(guard) == 2
        assert guard.cached_signature(events[0].id) is None
        assert guard.cached_signature(events[2].id) is not None
