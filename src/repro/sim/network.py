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
from operator import is_
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.errors import MembershipError
from ..core.event import Ball
from ..fabric import HostileRelays, Partitions
from .engine import Simulator
from .latency import FixedLatency, LatencyModel

if TYPE_CHECKING:  # pragma: no cover - hints only; built with an authenticator
    from ..auth.guard import BallGuard

#: Message handler: ``handler(src, message)``.
MessageHandler = Callable[[int, Any], None]

#: Ball inbox: ``on_ball(ball)``.
BallHandler = Callable[[Ball], None]


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


class SimNetwork(Partitions, HostileRelays):
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
        super().__init__()
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(1)
        self.loss_rate = float(loss_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.stats = NetworkStats()
        self._guard: Optional[BallGuard] = None
        if authenticator:
            from ..auth.guard import BallGuard

            self._guard = BallGuard(authenticator)
        # node id -> (handler, ball inbox or None).
        self._inboxes: Dict[int, Tuple[MessageHandler, Optional[BallHandler]]] = {}
        self._loss_rng = sim.fork_rng("network.loss")
        self._latency_rng = sim.fork_rng("network.latency")
        # One bound method for every arrival scheduled.
        self._deliver_arrival = self._deliver
        # The shared balls sent at tick ``_sent_at``, by their entries.
        self._sent_at = -1
        self._sent_balls: Dict[tuple, Ball] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(
        self,
        node_id: int,
        handler: MessageHandler,
        on_ball: BallHandler | None = None,
    ) -> None:
        """Attach *handler* as the inbox of *node_id*.

        With *on_ball*, a :class:`~repro.core.event.Ball` (nearly all
        the traffic) is handed to ``on_ball(ball)`` instead, and every
        other message to *handler*: what a node's inbox would do with
        the ball itself, one call earlier.
        """
        if node_id in self._inboxes:
            raise MembershipError(f"node {node_id} is already registered")
        self._inboxes[node_id] = (handler, on_ball)

    def unregister(self, node_id: int) -> None:
        """Detach *node_id*; in-flight messages to it will be lost."""
        if node_id not in self._inboxes:
            raise MembershipError(f"node {node_id} is not registered")
        del self._inboxes[node_id]
        self._partition.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        """Whether *node_id* currently has an inbox."""
        return node_id in self._inboxes

    @property
    def registered_count(self) -> int:
        """Number of attached nodes."""
        return len(self._inboxes)

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
        message object itself is shared, never copied; and on that
        fault-free path a round's ball equal to one sent earlier in the
        same tick travels as that one (:meth:`_same_ball`), so a
        receiver meets again the objects it has merged.
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
        inboxes = self._inboxes
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
            arrived = [dst for dst in dsts if dst in inboxes]
            stats.sent += len(dsts)
            stats.dropped_dead += len(dsts) - len(arrived)
            if arrived:
                if type(message) is Ball and message.shared:
                    message = self._same_ball(message)
                copies = [message] * len(arrived)
                self.sim.schedule(
                    latency.ticks, partial(self._deliver_arrival, src, arrived, copies)
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
            if dst not in inboxes:
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
            self.sim.schedule(delay, partial(self._deliver_arrival, src, arrived, outs))

    def _same_ball(self, ball: Ball) -> Ball:
        """The shared ball sent this tick with *ball*'s entries — the
        same ids at the same TTLs in the same order, naming the same
        event objects — or *ball* itself if it is the first.

        A ball is never mutated, so a receiver cannot tell an equal ball
        from the one its sender built; but handed the very object it
        has merged before, it knows without a comparison that the copy
        teaches nothing (:meth:`DisseminationComponent.receive_ball
        <repro.core.dissemination.DisseminationComponent.receive_ball>`).
        Senders in one round ship far fewer distinct balls than there are
        senders (about 20 among 500 per round at n = 512).
        """
        now = self.sim.now()
        if now != self._sent_at:
            self._sent_at = now
            self._sent_balls.clear()
        ttls = ball.ttls
        key = (tuple(ttls), tuple(ttls.values()))
        sent = self._sent_balls.get(key)
        if sent is not None and all(
            map(is_, sent.events.values(), ball.events.values())
        ):
            return sent
        self._sent_balls[key] = ball
        return ball

    def _deliver(self, src: int, dsts: list, messages: list) -> None:
        """One arrival tick of one fan-out, handed over in send order.

        Every copy is looked up and tested on its own, as if it were its
        own action: a delivery can unregister a later destination of the
        same arrival, or partition the network before it. Only the
        guard, fixed when the network is built, is read once.
        """
        inboxes = self._inboxes
        stats = self.stats
        guard = self._guard
        for dst, message in zip(dsts, messages):
            inbox = inboxes.get(dst)
            if inbox is None:
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
            handler, on_ball = inbox
            if on_ball is not None and type(message) is Ball:
                on_ball(message)
            else:
                handler(src, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimNetwork(nodes={len(self._inboxes)}, loss={self.loss_rate}, "
            f"sent={self.stats.sent}, delivered={self.stats.delivered})"
        )
