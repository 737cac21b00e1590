"""Fault-schedule driver for the asyncio runtime.

Runs the same :class:`~repro.faults.schedule.FaultSchedule` that drives
the simulator against a live :class:`~repro.runtime.cluster.AsyncCluster`,
through the same :class:`~repro.faults.interpreter.FaultInterpreter`, on
real wall-clock timers: a round is ``config.round_interval``
milliseconds. What is this runtime's own: crashes call
:meth:`AsyncCluster.crash_node` (abrupt death — tasks killed, inbox
dropped); recoveries respawn the *same* node ids via
:meth:`AsyncCluster.respawn_node` unless a
:class:`~repro.faults.supervisor.NodeSupervisor` already resurrected
them; loss and latency windows map onto the fabric's self-timed fault
surface (:class:`~repro.runtime.transport.AsyncNetwork` or
:class:`~repro.runtime.udp.UdpNetwork`).

Fabric capabilities differ, so the schedule is validated against the
fabric up front (:meth:`AsyncFaultInjector.run` raises
:class:`~repro.core.errors.FaultInjectionError` before touching
anything). Latency spikes run on both fabrics by the one rule of
:class:`repro.fabric.LatencySpikes`:
:class:`~repro.runtime.transport.AsyncNetwork` stretches its simulated
delay, and :class:`~repro.runtime.udp.UdpNetwork` defers ``sendto``
sender-side (observationally identical to a slower wire).
"""

from __future__ import annotations

import asyncio
import random
from typing import List

from ..core.errors import FaultInjectionError
from ..runtime.cluster import AsyncCluster
from .interpreter import FaultInterpreter, expand
from .schedule import FaultSchedule

#: action kind -> (what the fabric must offer, what it cannot do without).
_FABRIC_NEEDS = {
    "partition": ("set_partition", "does not support partitions"),
    "heal": ("set_partition", "does not support partitions"),
    "loss_burst": ("set_loss_burst", "does not support loss bursts"),
    "corrupt": ("set_loss_burst", "does not support loss bursts"),
    "latency_spike": ("set_latency_spike", "cannot stretch latency"),
    "byzantine": (
        "set_adversary",
        "does not support hostile behaviors (no set_adversary)",
    ),
}


class AsyncFaultInjector(FaultInterpreter):
    """Drives one fault schedule against a live asyncio cluster.

    Args:
        cluster: The running cluster (``start_all()`` before or after
            creating the injector; actions fire relative to
            :meth:`run`'s start).
        schedule: Declarative scenario; round times become
            ``round_interval`` milliseconds each.
        seed: Seed for victim/partition sampling.

    Log times are seconds since :meth:`run` started. Usage::

        injector = AsyncFaultInjector(cluster, FaultSchedule.standard_drill())
        await injector.run()          # returns when the last step fired
    """

    def __init__(
        self,
        cluster: AsyncCluster,
        schedule: FaultSchedule,
        seed: int = 0,
    ) -> None:
        rng = random.Random(f"{seed}:async-faults")
        super().__init__(
            cluster,
            schedule,
            rng=rng,
            router_rng=lambda: rng,
            round_span=cluster.config.round_interval / 1000.0,
        )
        self._started_at = 0.0

    async def run(self) -> None:
        """Apply the whole schedule, sleeping between steps.

        Returns once the final step (including recoveries, heals and
        window ends) has been applied. Raises
        :class:`~repro.core.errors.FaultInjectionError` before applying
        anything if the fabric cannot express an action.
        """
        for action in self.schedule:
            if action.kind in _FABRIC_NEEDS:
                needs, cannot = _FABRIC_NEEDS[action.kind]
                if not hasattr(self.network, needs):
                    raise FaultInjectionError(
                        f"{type(self.network).__name__} {cannot}"
                    )
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        self._begin()
        for step in sorted(expand(self.schedule), key=lambda step: step.at_round):
            delay = self._started_at + step.at_round * self._round_span - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result = self.apply(step)
            if asyncio.iscoroutine(result):
                await result

    # ------------------------------------------------------------------
    # Driver surface
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return asyncio.get_running_loop().time() - self._started_at

    def _alive(self) -> List[int]:
        return self.cluster.live_ids()

    def _forged_ts(self, node_id: int) -> int:
        oracle = self.cluster.nodes[node_id].process.dissemination.oracle
        return oracle.get_clock() + 1

    def _crash_node(self, node_id: int) -> None:
        self.cluster.crash_node(node_id)

    async def _respawn(self, node_ids: List[int], text: str) -> None:
        back: List[int] = []
        for node_id in node_ids:
            node = self.cluster.nodes.get(node_id)
            if node is None or not node.crashed:
                continue  # a supervisor beat us to it, or it was removed
            await self.cluster.respawn_node(node_id)
            back.append(node_id)
        self._respawned(back, text)

    def _open_loss(self, rate: float, rounds: float) -> None:
        self.network.set_loss_burst(rate, rounds * self._round_span)

    def _open_latency(self, factor: float, rounds: float) -> None:
        self.network.set_latency_spike(factor, rounds * self._round_span)
