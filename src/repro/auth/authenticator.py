"""HMAC-SHA256 event authentication over canonical event bytes.

An :class:`HmacAuthenticator` signs exactly the bytes
:func:`repro.sync.canonical_event_bytes` produces — the ``(ts, source,
seq, payload_len)`` frame plus the sorted-key JSON payload. Two
consequences follow from that choice:

* The MAC is fabric-independent: an event signed in the simulator
  verifies after a UDP round-trip, because both fabrics agree on the
  canonical form (it is the same encoding ``repro.sync`` CRC-checks).
* The relay-mutable TTL is **not** covered. Relays legitimately
  decrement it every hop, so covering it would force re-signing per
  hop; the flip side is that a hostile relay can inflate TTLs without
  breaking any MAC (see docs/SECURITY.md — EpTO's delivery dedupe makes
  that a liveness nuisance, not a safety violation).

Verification never raises for hostile input: :meth:`verify` returns a
verdict string (``"ok"`` / ``"bad_signature"`` / ``"unknown_key"``) so
receivers count and drop instead of crashing on attacker-controlled
bytes. :class:`repro.core.errors.AuthError` is reserved for caller
misuse (signing for a revoked identity).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..core.errors import AuthError
from ..core.event import Ball, Event
from ..sync.protocol import canonical_event_bytes

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .keyring import KeyRing

#: MAC bytes carried on the wire. HMAC-SHA256 truncated to 128 bits —
#: the standard truncation (RFC 2104 §5): halves per-entry overhead
#: while keeping forgery work far beyond anything a drill can brute.
MAC_LEN = 16

#: Verdicts returned by :meth:`HmacAuthenticator.verify`.
VERDICT_OK = "ok"
VERDICT_BAD_SIGNATURE = "bad_signature"
VERDICT_UNKNOWN_KEY = "unknown_key"


@dataclass(frozen=True, slots=True)
class EventSignature:
    """A detached MAC over one event's canonical bytes.

    Attributes:
        epoch: The signer's key epoch at signing time, carried so the
            verifier derives the matching key across rotations.
        mac: The truncated HMAC-SHA256 tag (:data:`MAC_LEN` bytes).
    """

    epoch: int
    mac: bytes


@dataclass(frozen=True, slots=True)
class SignedBall:
    """A ball in wire form: the :class:`~repro.core.event.Ball` plus one
    optional signature per entry.

    ``signatures[i]`` authenticates the ball's ``i``-th event (``None``
    = the sender attached no MAC for that entry — a verifying receiver
    counts and drops it, a non-verifying one just strips it).
    """

    ball: Ball
    signatures: Tuple[Optional[EventSignature], ...]

    def __post_init__(self) -> None:
        if len(self.ball) != len(self.signatures):
            raise AuthError(
                f"signed ball has {len(self.ball)} entries but "
                f"{len(self.signatures)} signatures"
            )

    @property
    def entries(self) -> Ball:
        """The ball, sized by its entries."""
        return self.ball


class HmacAuthenticator:
    """Signs and verifies events against a :class:`KeyRing`.

    The epoch is mixed into the MAC input (not just used for key
    derivation) so a tag can never be replayed across an epoch whose
    key happened to collide with another derivation.
    """

    def __init__(self, keyring: KeyRing) -> None:
        self.keyring = keyring

    def sign(self, event: Event) -> EventSignature:
        """MAC *event* under its source's current key.

        Raises:
            AuthError: If the source identity is revoked.
        """
        epoch = self.keyring.epoch_of(event.source_id)
        key = self.keyring.key_for(event.source_id, epoch)
        return EventSignature(epoch=epoch, mac=self._mac(key, epoch, event))

    def verify(self, event: Event, signature: EventSignature) -> str:
        """Check *signature* against *event*; never raises for bad input.

        Returns:
            ``"ok"`` when the MAC matches; ``"unknown_key"`` when the
            source is revoked or the epoch falls outside the keyring's
            acceptance window; ``"bad_signature"`` when the MAC does
            not match (tampered event or wrong key).
        """
        if not self.keyring.accepts(event.source_id, signature.epoch):
            return VERDICT_UNKNOWN_KEY
        key = self.keyring.key_for(event.source_id, signature.epoch)
        expected = self._mac(key, signature.epoch, event)
        if hmac.compare_digest(expected, signature.mac):
            return VERDICT_OK
        return VERDICT_BAD_SIGNATURE

    @staticmethod
    def _mac(key: bytes, epoch: int, event: Event) -> bytes:
        message = epoch.to_bytes(4, "big") + canonical_event_bytes(event)
        return hmac.new(key, message, hashlib.sha256).digest()[:MAC_LEN]
