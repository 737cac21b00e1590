"""Minimal protocols the EpTO core needs from its runtime environment.

The algorithm in :mod:`repro.core` is runtime-agnostic: it never
schedules timers, opens sockets, or samples randomness directly.
Instead the embedding runtime (the discrete-event simulator in
:mod:`repro.sim`, or the asyncio runtime in :mod:`repro.runtime`)
provides these two capabilities and drives the process by calling
``on_round`` periodically and ``on_ball`` on message receipt.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from .event import Ball


@runtime_checkable
class Transport(Protocol):
    """Unreliable, unordered, one-way message channel.

    EpTO needs nothing stronger: no acknowledgments, retransmissions or
    connections (paper §1.1). Sending must not raise on loss — losing
    messages is the network model's job, not an error.

    EpTO's round tick sends the *same* immutable ball to ``K`` peers,
    always through :meth:`send_many`, so a fabric that serializes (or
    otherwise prepares) messages amortizes that work across the fan-out
    — e.g. the UDP fabric encodes the datagram once and ``sendto``s the
    same bytes to every destination.
    """

    def send(self, src: int, dst: int, ball: Ball) -> None:
        """Best-effort delivery of *ball* from *src* to *dst*."""
        ...

    def send_many(self, src: int, dsts: Sequence[int], ball: Ball) -> None:
        """Best-effort delivery of one *ball* to every id in *dsts*.

        Semantically identical to calling :meth:`send` once per
        destination (per-destination loss, partitions and fault
        injection still apply individually); implementations may share
        the encoded representation across destinations.
        """
        ...


@runtime_checkable
class PeerSampler(Protocol):
    """Peer sampling service view (paper §2, [17]).

    Supplies a uniformly random sample of processes deemed correct.
    Inaccuracies (stale entries pointing at failed processes) are
    tolerated by EpTO and behave like message loss.
    """

    def sample(self, k: int) -> Sequence[int]:
        """Return up to *k* peer ids drawn uniformly at random.

        May return fewer than *k* ids if the view is small; never
        returns the sampling process's own id.
        """
        ...
