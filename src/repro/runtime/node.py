"""An EpTO node running on the asyncio event loop (paper §8.5).

The exact same :class:`repro.core.process.EpToProcess` object that runs
under the discrete-event simulator is driven here by real timers: a
round task awaiting ``round_interval`` (with optional drift jitter) and
an inbox callback wired to an :class:`~repro.runtime.transport.AsyncNetwork`.
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
from ..stack import NodeStack
from .transport import AsyncNetwork

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..core.interfaces import PeerSampler
    from ..storage.journal import DeliveryJournal
    from ..sync.config import SyncConfig
    from ..sync.manager import SyncManager


def _monotonic_millis() -> int:
    """Monotonic wall time in milliseconds (global-clock source)."""
    return int(time.monotonic() * 1000)


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
        self._task: Optional[asyncio.Task] = None
        self._shuffle_task: Optional[asyncio.Task] = None
        self._sync_task: Optional[asyncio.Task] = None
        self._crashed = False
        network.register(node_id, self.stack.handle_message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the periodic round (and Cyclon shuffle) tasks."""
        loop = asyncio.get_running_loop()
        self._crashed = False
        if self._task is None or self._task.done():
            self._task = loop.create_task(self._round_loop())
            self._task.add_done_callback(self._on_round_task_done)
        # Any self-maintaining PSS (Cyclon, HyParView, Brahms) gets a
        # shuffle task; the idealized uniform view has no shuffle.
        if callable(getattr(self.stack.pss, "shuffle", None)) and (
            self._shuffle_task is None or self._shuffle_task.done()
        ):
            self._shuffle_task = loop.create_task(self._shuffle_loop())
        if self.sync_manager is not None and (
            self._sync_task is None or self._sync_task.done()
        ):
            self._sync_task = loop.create_task(self._sync_loop())

    async def stop(self) -> None:
        """Cancel the periodic tasks and leave the network."""
        for attr in ("_task", "_shuffle_task", "_sync_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        self._crashed = False
        self.network.unregister(self.node_id)

    def crash(self) -> None:
        """Simulate abrupt process death (fault injection).

        Kills the periodic tasks and drops the inbox without the
        orderly shutdown of :meth:`stop`. The node object survives so a
        :class:`repro.faults.supervisor.NodeSupervisor` (or
        :meth:`repro.runtime.cluster.AsyncCluster.respawn_node`) can
        observe the corpse and bring a replacement up under the same
        identity.
        """
        self._crashed = True
        for attr in ("_task", "_shuffle_task", "_sync_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
        self.network.unregister(self.node_id)

    @property
    def running(self) -> bool:
        """Whether the round loop is active."""
        return self._task is not None and not self._task.done()

    @property
    def crashed(self) -> bool:
        """Whether the node died (injected crash or round-task error)
        rather than being deliberately stopped."""
        return self._crashed

    def _on_round_task_done(self, task: asyncio.Task) -> None:
        # Self-detection of an unexpected death: a round task that
        # finishes with an exception (not a cancellation) means the
        # process is effectively dead — die like an injected crash:
        # leave the network so peers' sends fail like against a crashed
        # process, stop shuffling and probing, and flag the corpse for
        # the supervisor.
        if not task.cancelled() and task.exception() is not None:
            self.crash()

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

    async def _round_loop(self) -> None:
        interval_s = self.config.round_interval / 1000.0
        while True:
            sleep_for = interval_s
            if self._drift_fraction > 0.0:
                jitter = self._rng.uniform(-self._drift_fraction, self._drift_fraction)
                sleep_for = max(0.001, interval_s * (1.0 + jitter))
            await asyncio.sleep(sleep_for)
            self.stack.on_round()

    async def _shuffle_loop(self) -> None:
        interval_s = self.config.round_interval / 1000.0
        while True:
            await asyncio.sleep(interval_s)
            self.stack.pss.shuffle()  # type: ignore[attr-defined]

    async def _sync_loop(self) -> None:
        # The manager counts rounds itself (probe every interval_rounds,
        # request timeouts in rounds), so it is ticked once per round
        # interval — same time base as the simulator's PeriodicTask.
        interval_s = self.config.round_interval / 1000.0
        while True:
            await asyncio.sleep(interval_s)
            self.sync_manager.on_round()

    async def catch_up(self, max_rounds: float | None = None) -> bool:
        """Run blocking anti-entropy until converged or out of budget.

        Drives the sync manager directly — round tasks need not be
        running, which is the point: a respawned node repairs its
        TTL-outliving gap *before* rejoining dissemination, so epidemic
        deliveries cannot advance its order mark past the still-missing
        suffix. Returns whether the node caught up (a digest exchange
        concluded with no peer ahead) within ``max_rounds`` round
        intervals (default: ``sync_config.catch_up_rounds``).
        """
        manager = self.sync_manager
        if manager is None:
            return True
        budget = max_rounds if max_rounds is not None else manager.config.catch_up_rounds
        interval_s = self.config.round_interval / 1000.0
        manager.kick()
        rounds = 0
        while rounds < budget:
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
