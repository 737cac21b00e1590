"""Self-healing runtime: supervised restart of crashed asyncio nodes.

:class:`NodeSupervisor` watches every node of an
:class:`~repro.runtime.cluster.AsyncCluster` and resurrects the ones
that die — whether killed by fault injection
(:meth:`AsyncEpToNode.crash`) or by their own round timer raising (the
node crashes itself and is flagged as a corpse). Restarts use exponential
backoff with a cap, the classic supervision discipline: a process that
keeps dying right after restart gets geometrically rarer retries, and
one that stays healthy long enough earns its backoff reset. A node
that exhausts ``max_restarts`` consecutive attempts is abandoned
(counted, never retried) so a deterministic crash loop cannot spin the
supervisor forever.

A restarted node is a *fresh EpTO process under the same identity*
(:meth:`AsyncCluster.respawn_node`): it keeps its id, resumes its
broadcast sequence so event ids stay unique, re-registers with the
network fabric and the PSS directory, and from then on delivers new
events in the same total order as everyone else — the
recovery-after-transient-fault behaviour that motivates
self-stabilizing total-order broadcast (Lundström et al., 2022).

On a cluster provisioned with ``storage_dir``, a supervised restart
additionally recovers the node's durable state from disk (snapshot +
delivery-log replay, :mod:`repro.storage`) rather than starting blank,
and the optional ``adapt`` hook lets each restart come up under
Lemma 7 parameters recomputed for the churn and loss actually observed
(:func:`repro.faults.adaptive.supervisor_adaptation`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from ..core.config import EpToConfig
from ..runtime.cluster import AsyncCluster


@dataclass(slots=True)
class SupervisorStats:
    """What the supervisor observed and did."""

    detected: int = 0
    restarted: int = 0
    abandoned: int = 0
    #: node id -> consecutive restart count (diagnostic snapshot).
    attempts: Dict[int, int] = field(default_factory=dict)


class NodeSupervisor:
    """Detects crashed cluster nodes and restarts them with backoff.

    Args:
        cluster: The supervised cluster.
        poll_interval: Seconds between corpse scans.
        base_delay: First restart delay in seconds.
        backoff_factor: Multiplier per consecutive restart of the same
            node.
        max_delay: Backoff ceiling in seconds.
        max_restarts: Consecutive restarts of one node before it is
            abandoned.
        healthy_after: Seconds a node must stay up for its backoff to
            reset.
        on_restart: Optional callback ``(node_id, attempt)`` invoked
            after each successful restart.
        adapt: Optional Lemma 7 feedback hook: called with the cluster
            right before each respawn, returns the
            :class:`~repro.core.config.EpToConfig` the replacement
            starts under (see
            :func:`repro.faults.adaptive.supervisor_adaptation`).
            ``None`` restarts nodes under the cluster-wide config.
    """

    def __init__(
        self,
        cluster: AsyncCluster,
        poll_interval: float = 0.02,
        base_delay: float = 0.05,
        backoff_factor: float = 2.0,
        max_delay: float = 2.0,
        max_restarts: int = 8,
        healthy_after: float = 5.0,
        on_restart: Callable[[int, int], None] | None = None,
        adapt: Callable[[AsyncCluster], "EpToConfig"] | None = None,
    ) -> None:
        self.cluster = cluster
        self.poll_interval = poll_interval
        self.base_delay = base_delay
        self.backoff_factor = backoff_factor
        self.max_delay = max_delay
        self.max_restarts = max_restarts
        self.healthy_after = healthy_after
        self.stats = SupervisorStats()
        self._on_restart = on_restart
        self._adapt = adapt
        #: node id -> config each adapted restart used (diagnostics).
        self.adapted_configs: Dict[int, EpToConfig] = {}
        self._task: Optional[asyncio.Task] = None
        self._restart_tasks: Dict[int, asyncio.Task] = {}
        self._last_restart: Dict[int, float] = {}
        self._abandoned: Set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin watching the cluster."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._monitor())

    async def stop(self) -> None:
        """Stop watching; pending restarts are cancelled."""
        tasks = [self._task, *self._restart_tasks.values()]
        self._task = None
        self._restart_tasks = {}
        for task in tasks:
            if task is not None:
                task.cancel()
        for task in tasks:
            if task is not None:
                try:
                    await task
                except asyncio.CancelledError:
                    pass

    @property
    def running(self) -> bool:
        """Whether the monitor loop is active."""
        return self._task is not None and not self._task.done()

    def backoff_delay(self, node_id: int) -> float:
        """Restart delay the next resurrection of *node_id* will use."""
        attempts = self.stats.attempts.get(node_id, 0)
        return min(self.max_delay, self.base_delay * self.backoff_factor**attempts)

    def is_abandoned(self, node_id: int) -> bool:
        """Whether *node_id* exhausted its restart budget."""
        return node_id in self._abandoned

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    async def _monitor(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            for node_id, node in list(self.cluster.nodes.items()):
                if not node.crashed:
                    continue
                if node_id in self._restart_tasks or node_id in self._abandoned:
                    continue
                self.stats.detected += 1
                # A node that stayed healthy long enough earns a clean
                # slate; one crashing right after restart backs off.
                last = self._last_restart.get(node_id)
                if last is not None and loop.time() - last > self.healthy_after:
                    self.stats.attempts[node_id] = 0
                if self.stats.attempts.get(node_id, 0) >= self.max_restarts:
                    self._abandoned.add(node_id)
                    self.stats.abandoned += 1
                    continue
                self._restart_tasks[node_id] = loop.create_task(
                    self._restart(node_id)
                )

    async def _restart(self, node_id: int) -> None:
        try:
            await asyncio.sleep(self.backoff_delay(node_id))
            node = self.cluster.nodes.get(node_id)
            if node is None or not node.crashed:
                return  # removed, or somebody else revived it
            config: Optional[EpToConfig] = None
            if self._adapt is not None:
                config = self._adapt(self.cluster)
                self.adapted_configs[node_id] = config
            await self.cluster.respawn_node(node_id, config=config)
            attempt = self.stats.attempts.get(node_id, 0) + 1
            self.stats.attempts[node_id] = attempt
            self.stats.restarted += 1
            self._last_restart[node_id] = asyncio.get_running_loop().time()
            if self._on_restart is not None:
                self._on_restart(node_id, attempt)
        finally:
            self._restart_tasks.pop(node_id, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NodeSupervisor(running={self.running}, "
            f"restarted={self.stats.restarted}, "
            f"abandoned={len(self._abandoned)})"
        )
