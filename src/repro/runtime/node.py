"""An EpTO node running on the asyncio event loop (paper §8.5).

The exact same :class:`repro.core.process.EpToProcess` object that runs
under the discrete-event simulator is driven here by real timers: a
round timer re-armed every ``round_interval`` (with optional drift
jitter) and an inbox callback wired to an
:class:`~repro.runtime.transport.AsyncNetwork`.
Nothing in the core is aware of the substitution — the demonstration
the paper's §8.5 calls for.

Time base: ``EpToConfig.round_interval`` is interpreted as
*milliseconds* in this runtime (the simulator interprets it as ticks),
and the global-clock oracle samples the loop's monotonic clock in
milliseconds.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.config import EpToConfig
from ..core.event import Event
from ..stack import CATCH_UP_ROUNDS, NodeStack
from .transport import AsyncNetwork

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..core.interfaces import PeerSampler
    from ..storage.journal import DeliveryJournal
    from ..sync.config import SyncConfig
    from ..sync.manager import SyncManager


def _monotonic_millis() -> int:
    """Monotonic wall time in milliseconds (global-clock source)."""
    return int(time.monotonic() * 1000)


class _Periodic:
    """One periodic duty of a node as a loop timer, not a sleeping task.

    *body* runs when the timer fires and the timer then re-arms itself
    with ``loop.call_later(delay())``: one :class:`asyncio.TimerHandle`
    alive at a time, and no task, future or extra loop pass per period.
    *delay* is called before every wait, so a jittered round draws its
    jitter where a sleeping loop did (draw, wait, run, draw, ...). An
    exception from *body* stops the timer and is handed to *on_error*.
    """

    __slots__ = ("_loop", "_body", "_delay", "_on_error", "_handle")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        body: Callable[[], None],
        delay: Callable[[], float],
        on_error: Callable[[Exception], None],
    ) -> None:
        self._loop = loop
        self._body = body
        self._delay = delay
        self._on_error = on_error
        self._handle: Optional[asyncio.TimerHandle] = loop.call_later(
            delay(), self._fire
        )

    def _fire(self) -> None:
        handle = self._handle
        try:
            self._body()
        except Exception as exc:
            self._handle = None
            self._on_error(exc)
            return
        # The body may have cancelled this timer (a crash or stop from
        # inside the round); only a timer still armed re-arms.
        if self._handle is handle:
            self._handle = self._loop.call_later(self._delay(), self._fire)

    def cancel(self) -> None:
        """Stop for good: the pending firing, if any, never runs."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def done(self) -> bool:
        """Whether this timer will never fire again."""
        return self._handle is None


class AsyncEpToNode:
    """One EpTO participant hosted on asyncio.

    Args:
        node_id: Unique node identifier.
        config: EpTO configuration (``round_interval`` in ms here).
        network: Shared in-process async fabric.
        peer_sampler: PSS view (e.g.
            :class:`repro.pss.uniform.UniformViewPss` over the
            cluster's directory, or a :class:`repro.pss.cyclon.CyclonPss`).
        on_deliver: Total-order delivery callback.
        on_out_of_order: Optional §8.2 tagged-delivery callback.
        drift_fraction: Uniform jitter applied to each round sleep.
        seed: Seed for this node's randomness (peer choice, drift).
        journal: Optional :class:`repro.storage.journal.DeliveryJournal`
            making this node's history durable. Every delivery is
            appended before the callback runs, and deliveries the
            journal identifies as pre-crash re-deliveries are dropped
            without reaching the callback. ``None`` (the default) keeps
            the delivery path byte-for-byte identical to a node built
            before this hook existed.
        sync_config: Optional anti-entropy parameters. Requires a
            *journal*; the node then runs a
            :class:`~repro.sync.SyncManager` beside the round loop —
            periodic digest probes plus cursor-paginated pulls — and
            gains :meth:`catch_up` for blocking post-recovery repair.
    """

    def __init__(
        self,
        node_id: int,
        config: EpToConfig,
        network: AsyncNetwork,
        peer_sampler: PeerSampler,
        on_deliver: Callable[[Event], None],
        on_out_of_order: Callable[[Event], None] | None = None,
        drift_fraction: float = 0.0,
        seed: int = 0,
        system_size_hint: int | None = None,
        journal: "DeliveryJournal | None" = None,
        sync_config: SyncConfig | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.network = network
        self.journal = journal
        self._drift_fraction = drift_fraction
        self._rng = random.Random(f"{seed}:async:{node_id}")
        #: the node's protocol layers (:mod:`repro.stack`); the fabric
        #: is handed its inbox directly.
        self.stack = NodeStack(
            node_id,
            config,
            peer_sampler,
            network,
            on_deliver,
            _monotonic_millis,
            self._rng,
            on_out_of_order=on_out_of_order,
            system_size_hint=system_size_hint,
            journal=journal,
            sync=sync_config,
        )
        self.process: Any = self.stack.process
        self.sync_manager: Optional[SyncManager] = self.stack.sync_manager
        self._round_timer: Optional[_Periodic] = None
        self._shuffle_timer: Optional[_Periodic] = None
        self._sync_timer: Optional[_Periodic] = None
        self._crashed = False
        network.register(node_id, self.stack.handle_message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic round (and Cyclon shuffle, and anti-entropy)
        timers."""
        loop = asyncio.get_running_loop()
        self._crashed = False
        interval_s = self.config.round_interval / 1000.0

        def every_round() -> float:
            return interval_s

        if not self.running:
            self._round_timer = _Periodic(
                loop, self.stack.on_round, self._round_delay, self._on_round_failure
            )
        # Cyclon gets a shuffle timer; the idealized uniform view has
        # no shuffle.
        if callable(getattr(self.stack.pss, "shuffle", None)) and (
            self._shuffle_timer is None or self._shuffle_timer.done()
        ):
            self._shuffle_timer = _Periodic(
                loop, self._shuffle, every_round, self._report("shuffle")
            )
        # The manager counts rounds itself (probe every interval_rounds,
        # request timeouts in rounds), so it is ticked once per round
        # interval — same time base as the simulator's PeriodicTask.
        if self.sync_manager is not None and (
            self._sync_timer is None or self._sync_timer.done()
        ):
            self._sync_timer = _Periodic(
                loop, self._sync, every_round, self._report("sync")
            )

    async def stop(self) -> None:
        """Cancel the periodic timers and leave the network."""
        self._cancel_timers()
        self._crashed = False
        self.network.unregister(self.node_id)

    def crash(self) -> None:
        """Simulate abrupt process death (fault injection).

        Kills the periodic timers and drops the inbox without the
        orderly shutdown of :meth:`stop`. The node object survives so a
        :class:`repro.faults.supervisor.NodeSupervisor` (or
        :meth:`repro.runtime.cluster.AsyncCluster.respawn_node`) can
        observe the corpse and bring a replacement up under the same
        identity.
        """
        self._crashed = True
        self._cancel_timers()
        self.network.unregister(self.node_id)

    def _cancel_timers(self) -> None:
        for timer in (self._round_timer, self._shuffle_timer, self._sync_timer):
            if timer is not None:
                timer.cancel()

    @property
    def running(self) -> bool:
        """Whether the round timer is armed."""
        return self._round_timer is not None and not self._round_timer.done()

    @property
    def crashed(self) -> bool:
        """Whether the node died (injected crash or a round that
        raised) rather than being deliberately stopped."""
        return self._crashed

    def _on_round_failure(self, exc: Exception) -> None:
        # Self-detection of an unexpected death: a round that raises
        # means the process is effectively dead. The loop's exception
        # handler hears why, as it does of a failing shuffle or sync;
        # then die like an injected crash: leave the network so peers'
        # sends fail like against a crashed process, stop shuffling and
        # probing, and flag the corpse for the supervisor.
        self._report("round")(exc)
        self.crash()

    def _report(self, duty: str) -> Callable[[Exception], None]:
        """The error hook of a failed timer: its own timer has stopped,
        and the loop's exception handler hears why (as it would of a
        task whose exception nobody retrieved)."""

        def report(exc: Exception) -> None:
            asyncio.get_running_loop().call_exception_handler(
                {
                    "message": f"node {self.node_id}: {duty} timer failed",
                    "exception": exc,
                }
            )

        return report

    # ------------------------------------------------------------------
    # EpTO surface
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any = None) -> Event:
        """EpTO-broadcast *payload* from this node."""
        return self.stack.broadcast(payload)

    @property
    def delivered_count(self) -> int:
        """Events delivered in total order so far."""
        return self.process.delivered_count

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _round_delay(self) -> float:
        interval_s = self.config.round_interval / 1000.0
        if self._drift_fraction > 0.0:
            jitter = self._rng.uniform(-self._drift_fraction, self._drift_fraction)
            return max(0.001, interval_s * (1.0 + jitter))
        return interval_s

    def _shuffle(self) -> None:
        self.stack.pss.shuffle()  # type: ignore[attr-defined]

    def _sync(self) -> None:
        self.sync_manager.on_round()  # type: ignore[union-attr]

    async def catch_up(self) -> bool:
        """Run blocking anti-entropy until converged or out of budget.

        Drives the sync manager directly — round timers need not be
        running, which is the point: a respawned node repairs its
        TTL-outliving gap *before* rejoining dissemination, so epidemic
        deliveries cannot advance its order mark past the still-missing
        suffix. Returns whether the node caught up (a digest exchange
        concluded with no peer ahead) within
        :data:`~repro.stack.CATCH_UP_ROUNDS` round intervals.
        """
        manager = self.sync_manager
        if manager is None:
            return True
        interval_s = self.config.round_interval / 1000.0
        manager.kick()
        rounds = 0
        while rounds < CATCH_UP_ROUNDS:
            manager.on_round()
            rounds += 1
            await asyncio.sleep(interval_s)
            if manager.caught_up:
                return True
        return manager.caught_up

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncEpToNode(id={self.node_id}, running={self.running}, "
            f"delivered={self.delivered_count})"
        )
