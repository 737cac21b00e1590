"""Tests for HMAC event signing/verification (repro.auth.authenticator)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.auth import (
    MAC_LEN,
    VERDICT_BAD_SIGNATURE,
    VERDICT_OK,
    VERDICT_UNKNOWN_KEY,
    EventSignature,
    HmacAuthenticator,
    KeyRing,
    SignedBall,
)
from repro.core.event import Ball, Event


def _event(src=1, seq=0, ts=10, payload=None):
    return Event(
        id=(src, seq),
        ts=ts,
        source_id=src,
        payload={"v": seq} if payload is None else payload,
    )


@pytest.fixture
def auth():
    return HmacAuthenticator(KeyRing("test-cluster"))


class TestSignVerify:
    def test_genuine_signature_verifies(self, auth):
        event = _event()
        signature = auth.sign(event)
        assert len(signature.mac) == MAC_LEN
        assert auth.verify(event, signature) == VERDICT_OK

    def test_deterministic(self, auth):
        event = _event()
        assert auth.sign(event) == auth.sign(event)

    def test_tampered_payload_rejected(self, auth):
        event = _event()
        signature = auth.sign(event)
        forged = dataclasses.replace(event, payload={"v": "evil"})
        assert auth.verify(forged, signature) == VERDICT_BAD_SIGNATURE

    def test_tampered_timestamp_rejected(self, auth):
        event = _event()
        signature = auth.sign(event)
        forged = dataclasses.replace(event, ts=event.ts + 1)
        assert auth.verify(forged, signature) == VERDICT_BAD_SIGNATURE

    def test_signature_does_not_transfer_between_sources(self, auth):
        # A relay holding node 1's signature cannot re-bind it to an
        # event under node 2's identity: the verify key follows the
        # claimed source.
        signature = auth.sign(_event(src=1))
        assert auth.verify(_event(src=2), signature) == VERDICT_BAD_SIGNATURE

    def test_truncated_mac_rejected(self, auth):
        event = _event()
        signature = auth.sign(event)
        clipped = EventSignature(epoch=signature.epoch, mac=signature.mac[:-1])
        assert auth.verify(event, clipped) == VERDICT_BAD_SIGNATURE


class TestEpochs:
    def test_signature_survives_one_rotation(self):
        ring = KeyRing("m", retain_epochs=1)
        auth = HmacAuthenticator(ring)
        event = _event()
        signature = auth.sign(event)
        ring.rotate(event.source_id)
        assert auth.verify(event, signature) == VERDICT_OK

    def test_signature_ages_out_after_two_rotations(self):
        ring = KeyRing("m", retain_epochs=1)
        auth = HmacAuthenticator(ring)
        event = _event()
        signature = auth.sign(event)
        ring.rotate(event.source_id)
        ring.rotate(event.source_id)
        assert auth.verify(event, signature) == VERDICT_UNKNOWN_KEY

    def test_new_epoch_signature_carries_epoch(self):
        ring = KeyRing("m")
        auth = HmacAuthenticator(ring)
        event = _event()
        ring.rotate(event.source_id)
        signature = auth.sign(event)
        assert signature.epoch == 1
        assert auth.verify(event, signature) == VERDICT_OK

    def test_revoked_source_is_unknown_key(self):
        ring = KeyRing("m")
        auth = HmacAuthenticator(ring)
        event = _event(src=5)
        signature = auth.sign(event)
        ring.revoke(5)
        assert auth.verify(event, signature) == VERDICT_UNKNOWN_KEY


class TestSignedBall:
    def test_length_mismatch_rejected(self, auth):
        from repro.core.errors import AuthError

        ball = Ball.of([(_event(seq=i), 3) for i in range(2)])
        with pytest.raises(AuthError):
            SignedBall(ball, signatures=(None,))

    def test_carries_optional_signatures(self, auth):
        first = _event(seq=0)
        ball = Ball.of([(first, 3), (_event(seq=1), 3)])
        signed = SignedBall(ball, signatures=(auth.sign(first), None))
        assert signed.entries is signed.ball and len(signed.entries) == 2
        assert signed.signatures[1] is None
        verdict = auth.verify(signed.ball.events[first.id], signed.signatures[0])
        assert verdict == VERDICT_OK
