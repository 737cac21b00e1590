"""Simulated network: latency, loss and partitions (paper §6).

Routes opaque messages between registered nodes. Each send:

1. may be dropped with probability ``loss_rate`` (paper §5.4 / Fig. 10);
2. may be dropped because the destination is not registered — the
   simulated equivalent of gossiping to a failed process under churn
   (paper §6: stale PSS views "imply there will be less balls in the
   system");
3. may be dropped by a configured partition;
4. may additionally be *duplicated* with probability
   ``duplicate_rate`` — a second copy ships with an independent
   latency, modelling retransmitting middleboxes and multipath
   anomalies (EpTO's integrity property must absorb duplicates);
5. otherwise is delivered at ``now() + latency`` with the latency drawn
   from the configured :class:`~repro.sim.latency.LatencyModel`
   (paper §6: "balls sent are delivered at processes at time
   now() + networkLatency").

Destination liveness is checked at *delivery* time too: a message in
flight to a process that dies before it lands is lost, exactly as in a
real network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.errors import MembershipError
from ..core.event import Ball
from .engine import Simulator
from .latency import FixedLatency, LatencyModel

if TYPE_CHECKING:  # pragma: no cover - hints only; built with an authenticator
    from ..auth.guard import BallGuard

#: Message handler: ``handler(src, message)``.
MessageHandler = Callable[[int, Any], None]


@dataclass(slots=True)
class NetworkStats:
    """Counters describing everything the network did.

    The ``dropped_bad_signature`` / ``dropped_unknown_key`` /
    ``dropped_unsigned`` counters are per *ball entry*, not per
    message: an authenticating fabric admits the verified sub-ball and
    counts the forged remainder, mirroring
    :class:`repro.runtime.udp.UdpStats`.
    """

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_dead: int = 0
    dropped_partition: int = 0
    dropped_bad_signature: int = 0
    dropped_unknown_key: int = 0
    dropped_unsigned: int = 0
    duplicated: int = 0

    @property
    def dropped(self) -> int:
        """Total messages that never reached a handler."""
        return self.dropped_loss + self.dropped_dead + self.dropped_partition

    @property
    def delivery_ratio(self) -> float:
        """Fraction of sent messages that were delivered."""
        return self.delivered / self.sent if self.sent else 1.0


class SimNetwork:
    """Message router over a :class:`~repro.sim.engine.Simulator`.

    Args:
        sim: Host simulator (supplies time, scheduling and the base
            random seed).
        latency: Latency model for message transit times; defaults to a
            fixed 1-tick latency.
        loss_rate: Probability that any given message is silently lost.
        duplicate_rate: Probability that a surviving message is
            delivered twice (independent latencies).
        authenticator: Optional
            :class:`~repro.auth.authenticator.HmacAuthenticator`. When
            set, balls are sealed at send time and verified at delivery
            through a fabric-shared :class:`~repro.auth.guard.BallGuard`
            (the object-fabric equivalent of the UDP signed-ball path:
            signatures travel in the guard's cache instead of the
            message). Forged or unsigned entries never reach a handler.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        authenticator=None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(1)
        self.loss_rate = float(loss_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.stats = NetworkStats()
        self._guard: Optional[BallGuard] = None
        if authenticator:
            from ..auth.guard import BallGuard

            self._guard = BallGuard(authenticator)
        self._adversary = None
        self._handlers: Dict[int, MessageHandler] = {}
        self._loss_rng = sim.fork_rng("network.loss")
        self._latency_rng = sim.fork_rng("network.latency")
        # Partition: node id -> group label. Nodes in different groups
        # cannot exchange messages; unlabelled nodes are in group None
        # together.
        self._partition: Dict[int, object] = {}
        self._partitioned = False

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, node_id: int, handler: MessageHandler) -> None:
        """Attach *handler* as the inbox of *node_id*."""
        if node_id in self._handlers:
            raise MembershipError(f"node {node_id} is already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        """Detach *node_id*; in-flight messages to it will be lost."""
        if node_id not in self._handlers:
            raise MembershipError(f"node {node_id} is not registered")
        del self._handlers[node_id]
        self._partition.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        """Whether *node_id* currently has an inbox."""
        return node_id in self._handlers

    @property
    def registered_count(self) -> int:
        """Number of attached nodes."""
        return len(self._handlers)

    # ------------------------------------------------------------------
    # Partitions
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

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if not self._partitioned:
            return False
        return self._partition.get(src) != self._partition.get(dst)

    # ------------------------------------------------------------------
    # Hostile behavior
    # ------------------------------------------------------------------

    def set_adversary(self, router) -> None:
        """Install a hostile-behavior router (see
        :class:`repro.faults.byzantine.ByzantineRouter`): balls sent by
        its hostile nodes are transformed per destination before
        delivery is scheduled."""
        self._adversary = router

    def clear_adversary(self) -> None:
        """Remove any installed hostile-behavior router."""
        self._adversary = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: Any) -> None:
        """Best-effort send; never raises on loss or dead destinations."""
        self.send_many(src, (dst,), message)

    def send_many(self, src: int, dsts: Sequence[int], message: Any) -> None:
        """Fan one message out to every id in *dsts*.

        Every decision is taken per destination, in *dsts* order and
        from the same random streams as that many one-destination
        calls: partition, loss draw, registered-at-send, latency draw,
        duplicate draw and the duplicate's own latency draw. What is
        shared is the calendar: the copies that arrive at one tick are
        **one** scheduled action carrying their destinations in send
        order — one per fan-out under :class:`FixedLatency` instead of
        one per copy. A round body is atomic, so per-copy actions
        would have taken consecutive sequence numbers and run
        back-to-back within their tick in exactly that order. The
        message object itself is shared, never copied.
        """
        if not dsts:
            return
        hostile = None
        if isinstance(message, Ball):
            # Sealing runs on the genuine ball *before* any adversary
            # transform, so the guard's signature cache always pins the
            # original canonical bytes — a mutated relay copy under the
            # same event id fails verification at delivery. It signs
            # what *src* originated and skips an id it already holds,
            # so once per fan-out leaves what once per copy left.
            if self._guard is not None:
                self._guard.seal(src, message)
            if self._adversary is not None and self._adversary.is_hostile(src):
                hostile = self._adversary
        stats = self.stats
        handlers = self._handlers
        partitioned = self._partitioned
        loss_rate, duplicate_rate = self.loss_rate, self.duplicate_rate
        latency = self.latency
        if (
            hostile is None
            and not partitioned
            and loss_rate <= 0.0
            and duplicate_rate <= 0.0
            and type(latency) is FixedLatency
        ):
            # Fault-free fixed latency: nothing to draw and one arrival
            # tick, so the loop below would keep the registered
            # destinations in send order and schedule them once.
            arrived = [dst for dst in dsts if dst in handlers]
            stats.sent += len(dsts)
            stats.dropped_dead += len(dsts) - len(arrived)
            if arrived:
                self.sim.schedule(
                    latency.ticks,
                    partial(self._deliver, src, arrived, [message] * len(arrived)),
                )
            return
        draw = self._loss_rng.random
        sample, latency_rng = latency.sample, self._latency_rng
        # delay -> (destinations, their messages), both in send order.
        arrivals: Dict[int, Tuple[list, list]] = {}
        for dst in dsts:
            out = message if hostile is None else hostile.transform(src, dst, message)
            stats.sent += 1
            if partitioned and self._crosses_partition(src, dst):
                stats.dropped_partition += 1
                continue
            if loss_rate > 0.0 and draw() < loss_rate:
                stats.dropped_loss += 1
                continue
            if dst not in handlers:
                stats.dropped_dead += 1
                continue
            delays = (sample(latency_rng, src, dst),)
            if duplicate_rate > 0.0 and draw() < duplicate_rate:
                stats.duplicated += 1
                delays += (sample(latency_rng, src, dst),)
            for delay in delays:
                arrival = arrivals.get(delay)
                if arrival is None:
                    arrival = arrivals[delay] = ([], [])
                arrival[0].append(dst)
                arrival[1].append(out)
        for delay, (arrived, outs) in arrivals.items():
            self.sim.schedule(delay, partial(self._deliver, src, arrived, outs))

    def _deliver(self, src: int, dsts: list, messages: list) -> None:
        """One arrival tick of one fan-out, handed over in send order.

        Every copy is looked up and tested on its own, as if it were its
        own action: a delivery can unregister a later destination of the
        same arrival, or partition the network before it. Only the
        guard, fixed when the network is built, is read once.
        """
        handlers = self._handlers
        stats = self.stats
        guard = self._guard
        for dst, message in zip(dsts, messages):
            handler = handlers.get(dst)
            if handler is None:
                # Destination died while the message was in flight.
                stats.dropped_dead += 1
                continue
            if self._partitioned and self._crosses_partition(src, dst):
                stats.dropped_partition += 1
                continue
            if guard is not None and isinstance(message, Ball):
                message, counts = guard.admit_ball(message)
                stats.dropped_bad_signature += counts.bad_signature
                stats.dropped_unknown_key += counts.unknown_key
                stats.dropped_unsigned += counts.unsigned
            stats.delivered += 1
            handler(src, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimNetwork(nodes={len(self._handlers)}, loss={self.loss_rate}, "
            f"sent={self.stats.sent}, delivered={self.stats.delivered})"
        )
