"""Fabric-level admission control: seal outgoing balls, admit incoming.

:class:`BallGuard` is what the three network fabrics (`SimNetwork`,
`AsyncNetwork`, `UdpNetwork`) actually talk to. It wraps an
:class:`~repro.auth.authenticator.HmacAuthenticator` with the two
policies the fabrics share:

* **Seal on send** — :meth:`seal` signs every entry whose event was
  *originated by the sender* (``event.source_id == sender``) and
  remembers the signature in a bounded FIFO cache keyed by event id.
  A node never signs events it merely relays: that is the
  authenticated-diffusion model (Malkhi et al.) — only the source can
  vouch for its own events, so a hostile relay that mutates someone
  else's entry cannot produce a matching MAC.
* **Admit on receive** — :meth:`admit_ball` (object fabrics, where the
  signature travels in the guard's cache) and :meth:`admit_signed`
  (UDP, where it travels in the datagram) verify each entry, drop the
  ones that fail, and report per-verdict counts so the fabrics can
  surface ``dropped_bad_signature`` / ``dropped_unknown_key`` /
  ``dropped_unsigned``. On UDP the receiving node's table of admitted
  entries (:class:`repro.runtime.codec.AdmittedEntries`) rides along:
  an entry it vouches for is a byte-identical repeat of one this guard
  already verified for that node, so only the key's standing is
  re-checked; and it is where a relay's :meth:`attach` finds the MACs
  of the events it forwards.

The cache doubles as a **sign-once oracle**: the first seal of a given
event id pins the canonical bytes that were MACed. The simulator's
fabrics share one guard per network, which models every node holding
its own key without serializing signatures into object messages —
because the origin's ``seal`` always runs before any relay can forward
the event, the cache holds the genuine event's MAC, and a mutated copy
under the same id fails recomputation at admission.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..core.event import Ball, EventId
from ..core.record import fits_i64
from .authenticator import (
    VERDICT_BAD_SIGNATURE,
    VERDICT_OK,
    VERDICT_UNKNOWN_KEY,
    EventSignature,
    HmacAuthenticator,
    SignedBall,
)

#: Default signature-cache capacity. Event ids are retired from balls
#: after TTL rounds, so anything beyond a few rounds of traffic is dead
#: weight; 65k entries is orders of magnitude above any drill's window.
DEFAULT_CACHE_SIZE = 1 << 16


@dataclass(frozen=True, slots=True)
class AdmitCounts:
    """Per-verdict tally for one admitted ball."""

    bad_signature: int = 0
    unknown_key: int = 0
    unsigned: int = 0

    @property
    def rejected(self) -> int:
        """Total entries dropped by admission."""
        return self.bad_signature + self.unknown_key + self.unsigned


#: The tally of a ball admitted whole: nearly every ball, so it is one
#: object, never built per ball.
_ADMITTED_WHOLE = AdmitCounts()


class BallGuard:
    """Seals outgoing and admits incoming balls for one fabric."""

    def __init__(
        self,
        authenticator: HmacAuthenticator,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.authenticator = authenticator
        self._cache_size = int(cache_size)
        self._signatures: "OrderedDict[EventId, EventSignature]" = OrderedDict()

    # ------------------------------------------------------------------
    # Outgoing
    # ------------------------------------------------------------------

    def seal(self, sender: int, ball: Ball) -> None:
        """Sign (and cache) the entries *sender* originated.

        Relayed entries (``source_id != sender``) are left alone — their
        signatures were cached when their sources first sealed them, or
        they stay unsigned and admission drops them. So does an event
        whose ``ts``, source or sequence lies outside the i64 range
        (a Lamport clock pushed to its maximum): it has no canonical
        bytes to sign, and no wire layout can carry it either.
        """
        for event in ball.events.values():
            if (
                event.source_id == sender
                and event.id not in self._signatures
                and fits_i64(event.ts, event.source_id, event.seq)
            ):
                self._remember(event.id, self.authenticator.sign(event))

    def attach(self, ball: Ball, table=None) -> SignedBall:
        """Wire form of *ball*: each entry paired with the signature
        this guard sealed it with or, for a relayed entry, the one
        *table* (the relaying node's admitted entries) remembers
        verifying; ``None`` when neither knows the id."""
        sealed = self._signatures.get
        if table is None:
            signatures = tuple(map(sealed, ball.ttls))
        else:
            relayed = table.signature_of
            signatures = tuple(
                sealed(event_id) or relayed(event_id) for event_id in ball.ttls
            )
        return SignedBall(ball, signatures)

    # ------------------------------------------------------------------
    # Incoming
    # ------------------------------------------------------------------

    def admit_ball(self, ball: Ball) -> Tuple[Ball, AdmitCounts]:
        """Verify *ball* against cached signatures (object fabrics).

        Returns the admitted sub-ball (original events, original order;
        *ball* itself when every entry is admitted) plus the rejection
        tally.
        """
        return self._admit(ball, tuple(map(self._signatures.get, ball.ttls)))

    def admit_signed(
        self, signed: SignedBall, table=None
    ) -> Tuple[Ball, AdmitCounts]:
        """Verify a decoded :class:`SignedBall` (datagram fabrics).

        *table* is the receiving node's
        :class:`~repro.runtime.codec.AdmittedEntries`, through which
        *signed* was decoded. An entry it :meth:`holds` skips the HMAC
        — never the key-epoch acceptance check, so a key revoked or
        rotated out since still rejects it — and a first sight that
        verifies is remembered there, for later copies and for relaying
        the entry onward with its MAC.
        """
        return self._admit(signed.ball, signed.signatures, table)

    def _admit(
        self,
        ball: Ball,
        signatures: Tuple[Optional[EventSignature], ...],
        table=None,
    ) -> Tuple[Ball, AdmitCounts]:
        # Runs once per received ball, and nearly every ball is admitted
        # whole: nothing is allocated until an entry is refused.
        authenticator = self.authenticator
        dropped: Optional[Set[EventId]] = None
        bad_signature = unknown_key = unsigned = 0
        events = ball.events
        for event, signature in zip(events.values(), signatures):
            if signature is None:
                unsigned += 1
            else:
                if table is not None and table.holds(event, signature):
                    if authenticator.keyring.accepts(event.source_id, signature.epoch):
                        continue
                    unknown_key += 1
                else:
                    verdict = authenticator.verify(event, signature)
                    if verdict == VERDICT_OK:
                        if table is not None:
                            table.remember(event)
                        continue
                    if verdict == VERDICT_UNKNOWN_KEY:
                        unknown_key += 1
                    else:
                        assert verdict == VERDICT_BAD_SIGNATURE
                        bad_signature += 1
            if dropped is None:
                dropped = set()
            dropped.add(event.id)
        if dropped is None:
            return ball, _ADMITTED_WHOLE
        return (
            Ball(
                {eid: event for eid, event in events.items() if eid not in dropped},
                {eid: ttl for eid, ttl in ball.ttls.items() if eid not in dropped},
            ),
            AdmitCounts(bad_signature, unknown_key, unsigned),
        )

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def _remember(self, event_id: EventId, signature: EventSignature) -> None:
        self._signatures[event_id] = signature
        while len(self._signatures) > self._cache_size:
            self._signatures.popitem(last=False)

    def cached_signature(self, event_id: EventId) -> Optional[EventSignature]:
        """The cached signature for *event_id*, if any (telemetry/tests)."""
        return self._signatures.get(event_id)

    def __len__(self) -> int:
        return len(self._signatures)
