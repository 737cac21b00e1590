"""Asyncio message fabric for the real-runtime EpTO nodes (paper §8.5).

Provides an in-process asyncio network with the same failure surface as
the simulated one — per-message latency, independent loss, partitions,
and time-windowed fault bursts — but driven by the real event loop
clock instead of simulator ticks. Nodes communicate through
:class:`AsyncNetwork`, which is itself the
:class:`repro.core.interfaces.Transport` an EpTO process sends on.

The in-memory fabric is intentionally the default: the §8.5 runtime
exists to prove the algorithm runs unmodified outside the simulator,
and an in-memory loop keeps the test suite hermetic. Swapping in a
datagram socket is a matter of implementing the same three-method
surface (``register`` / ``unregister`` / ``send``).

Fault injection surface (driven by
:class:`repro.faults.runtime_injector.AsyncFaultInjector`):

* :meth:`AsyncNetwork.set_partition` / :meth:`AsyncNetwork.heal_partition`
  mirror :class:`repro.sim.network.SimNetwork`; partition membership is
  checked at send *and* delivery time, so messages in flight when a
  partition forms are lost like on a real network.
* :meth:`AsyncNetwork.set_loss_burst` raises the loss rate for a
  wall-clock window (a loss *burst*), counted separately from baseline
  loss so experiments can attribute drops.
* :meth:`AsyncNetwork.set_latency_spike` multiplies the mean latency
  for a window.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..core.errors import MembershipError
from ..core.event import Ball

if TYPE_CHECKING:  # pragma: no cover - hints only; built with an authenticator
    from ..auth.guard import BallGuard

#: Inbox callback: ``handler(src, message)`` (synchronous, loop thread).
AsyncMessageHandler = Callable[[int, Any], None]


@dataclass(slots=True)
class AsyncNetworkStats:
    """Counters mirroring :class:`repro.sim.network.NetworkStats`.

    The authentication counters are per ball *entry* (an authenticated
    fabric admits the verified sub-ball and counts the rest), matching
    the sim and UDP fabrics.
    """

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_dead: int = 0
    dropped_partition: int = 0
    dropped_burst: int = 0
    dropped_bad_signature: int = 0
    dropped_unknown_key: int = 0
    dropped_unsigned: int = 0

    @property
    def dropped(self) -> int:
        """Total messages that never reached a handler."""
        return (
            self.dropped_loss
            + self.dropped_dead
            + self.dropped_partition
            + self.dropped_burst
        )


class AsyncNetwork:
    """In-process asyncio network with latency, loss and fault injection.

    Args:
        latency: Mean one-way delay in seconds; each message draws a
            uniformly random delay in ``[0.5, 1.5] * latency``. Zero
            delivers on the next loop iteration.
        loss_rate: Probability a message is silently dropped.
        seed: Seed for the loss/latency randomness.
        authenticator: Optional
            :class:`~repro.auth.authenticator.HmacAuthenticator`; when
            set, balls are sealed at send time and verified at delivery
            through a fabric-shared :class:`~repro.auth.guard.BallGuard`
            — same semantics as :class:`repro.sim.network.SimNetwork`.
    """

    def __init__(
        self,
        latency: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 0,
        authenticator=None,
    ) -> None:
        self.latency = latency
        self.loss_rate = loss_rate
        self.stats = AsyncNetworkStats()
        self._guard: Optional[BallGuard] = None
        if authenticator:
            from ..auth.guard import BallGuard

            self._guard = BallGuard(authenticator)
        self._adversary = None
        self._handlers: Dict[int, AsyncMessageHandler] = {}
        self._rng = random.Random(seed)
        # Partition: node id -> group label (None group is implicit).
        self._partition: Dict[int, object] = {}
        self._partitioned = False
        # Fault windows, in loop.time() seconds.
        self._burst_rate = 0.0
        self._burst_until = 0.0
        self._spike_factor = 1.0
        self._spike_until = 0.0

    def register(self, node_id: int, handler: AsyncMessageHandler) -> None:
        """Attach *handler* as the inbox of *node_id*."""
        if node_id in self._handlers:
            raise MembershipError(f"node {node_id} is already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        """Detach *node_id*; in-flight messages to it are lost."""
        self._handlers.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        """Whether *node_id* currently has an inbox."""
        return node_id in self._handlers

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def set_partition(self, groups: Dict[int, object]) -> None:
        """Partition the network: only same-group nodes can talk.

        Args:
            groups: Mapping from node id to an arbitrary group label.
                Nodes absent from the mapping share the implicit
                ``None`` group.
        """
        self._partition = dict(groups)
        self._partitioned = True

    def heal_partition(self) -> None:
        """Remove any partition; full connectivity is restored."""
        self._partition = {}
        self._partitioned = False

    def set_loss_burst(self, rate: float, duration: float) -> None:
        """Drop messages with probability *rate* for *duration* seconds.

        While the burst window is open the burst rate applies on top of
        (checked after) the baseline ``loss_rate``; burst drops are
        counted in ``stats.dropped_burst``.
        """
        self._burst_rate = float(rate)
        self._burst_until = asyncio.get_running_loop().time() + duration

    def set_latency_spike(self, factor: float, duration: float) -> None:
        """Multiply the mean latency by *factor* for *duration* seconds."""
        self._spike_factor = float(factor)
        self._spike_until = asyncio.get_running_loop().time() + duration

    def set_adversary(self, router) -> None:
        """Install a hostile-behavior router (see
        :class:`repro.faults.byzantine.ByzantineRouter`): balls sent by
        its hostile nodes are transformed per destination."""
        self._adversary = router

    def clear_adversary(self) -> None:
        """Remove any installed hostile-behavior router."""
        self._adversary = None

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if not self._partitioned:
            return False
        return self._partition.get(src) != self._partition.get(dst)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: Any) -> None:
        """Best-effort asynchronous send (never raises on loss)."""
        message = self._outbound(src, dst, message)
        self.stats.sent += 1
        if self._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.stats.dropped_loss += 1
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        if now < self._burst_until and self._rng.random() < self._burst_rate:
            self.stats.dropped_burst += 1
            return
        latency = self.latency
        if now < self._spike_until:
            latency *= self._spike_factor
        if latency > 0.0:
            delay = latency * self._rng.uniform(0.5, 1.5)
            loop.call_later(delay, self._deliver, src, dst, message)
        else:
            loop.call_soon(self._deliver, src, dst, message)

    def send_many(self, src: int, dsts, message: Any) -> None:
        """Fan one message out to every id in *dsts*.

        Per-destination loss/burst/partition decisions are unchanged
        relative to sequential :meth:`send` calls; the message object
        is shared across all deliveries, never copied.
        """
        for dst in dsts:
            self.send(src, dst, message)

    def _outbound(self, src: int, dst: int, message: Any) -> Any:
        """Seal the genuine ball, then apply any hostile transform —
        same ordering rationale as the sim fabric: the guard's cache
        pins the original canonical bytes before a relay can mutate."""
        if not isinstance(message, Ball):
            return message
        ball = message
        if self._guard is not None:
            self._guard.seal(src, ball)
        if self._adversary is not None and self._adversary.is_hostile(src):
            ball = self._adversary.transform(src, dst, ball)
        return ball

    def _deliver(self, src: int, dst: int, message: Any) -> None:
        if self._crosses_partition(src, dst):
            # Partition formed while the message was in flight.
            self.stats.dropped_partition += 1
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.dropped_dead += 1
            return
        if self._guard is not None and isinstance(message, Ball):
            message, counts = self._guard.admit_ball(message)
            self.stats.dropped_bad_signature += counts.bad_signature
            self.stats.dropped_unknown_key += counts.unknown_key
            self.stats.dropped_unsigned += counts.unsigned
        self.stats.delivered += 1
        handler(src, message)

