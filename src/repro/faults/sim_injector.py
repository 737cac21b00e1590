"""Fault-schedule driver for the discrete-event simulator.

Drives the shared :class:`~repro.faults.interpreter.FaultInterpreter`
on simulator ticks against a :class:`~repro.sim.cluster.SimCluster` (or
:class:`~repro.sim.flat.FlatCluster`) and its network: a round is the
cluster's EpTO ``round_interval`` ticks. What is the simulator's own:
crashes become ``remove_node`` calls (recoveries re-add fresh
processes, the paper's churn model) or, with ``recovery="same_id"``,
``crash_node`` calls whose recoveries respawn the same ids with resumed
broadcast sequences (mirroring the asyncio runtime); a loss window
raises the network's ``loss_rate`` and restores it; a latency window
wraps the latency model. What every action means, counts and logs is
the interpreter's (docs/FAULTS.md).
"""

from __future__ import annotations

import random
from typing import List

from ..core.errors import FaultInjectionError
from ..sim.cluster import SimCluster
from ..sim.engine import Simulator
from ..sim.latency import LatencyModel
from .interpreter import FaultInterpreter, FaultStep, steps_of
from .schedule import FaultSchedule

#: Ending steps that bring nodes back. They are scheduled when their
#: first step *fires* (``sim.schedule``), not at install: with
#: synchronised phases a recovery lands on a round boundary, and its
#: sequence number decides whether it runs before or after every
#: node's round at that tick.
_ARMED_ON_FIRE = ("recover", "unscramble")


class _ScaledLatency:
    """Latency model wrapper multiplying every sample (latency spike)."""

    def __init__(self, base: LatencyModel, factor: float) -> None:
        self._base = base
        self._factor = factor

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        return max(1, round(self._base.sample(rng, src, dst) * self._factor))


class SimFaultInjector(FaultInterpreter):
    """Drives one fault schedule against a simulated cluster.

    Args:
        sim: Host simulator (supplies scheduling and forked randomness).
        cluster: Cluster whose membership the crashes mutate.
        schedule: The declarative scenario; times in rounds are
            converted to ticks with the cluster's EpTO round interval.
        recovery: What ``recover_after`` means. ``"fresh"`` (default,
            the paper's churn model) replaces each crashed process with
            a brand-new identity; ``"same_id"`` respawns the *same*
            node ids with their broadcast sequences resumed, mirroring
            the asyncio runtime's
            :meth:`~repro.runtime.cluster.AsyncCluster.respawn_node`
            semantics so crash-recovery scenarios are comparable across
            both runtimes.

    Call :meth:`install` once before ``sim.run(...)``; size the run
    past ``schedule.horizon_rounds * round_interval`` ticks so every
    action lands. Log times are simulator ticks.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: SimCluster,
        schedule: FaultSchedule,
        recovery: str = "fresh",
    ) -> None:
        if recovery not in ("fresh", "same_id"):
            raise FaultInjectionError(
                f"unknown recovery mode {recovery!r}; use 'fresh' or 'same_id'"
            )
        super().__init__(
            cluster,
            schedule,
            rng=sim.fork_rng("faults"),
            router_rng=lambda: sim.fork_rng("byzantine"),
            round_span=cluster.config.epto.round_interval,
        )
        self.sim = sim
        self.recovery = recovery
        self._installed = False

    def install(self) -> None:
        """Schedule every action on the simulator (idempotent-guarded)."""
        if self._installed:
            raise FaultInjectionError("injector is already installed")
        self._installed = True
        self._begin()
        base = self.sim.now()

        def at(rounds: float) -> int:
            return base + max(0, round(rounds * self._round_span))

        for action in self.schedule:
            first, ending = steps_of(action)
            if ending is not None and ending.verb in _ARMED_ON_FIRE:
                self.sim.schedule_at(
                    at(first.at_round),
                    lambda f=first, e=ending: self._fire_and_arm(f, e),
                )
                continue
            self.sim.schedule_at(at(first.at_round), lambda f=first: self.apply(f))
            if ending is not None:
                self.sim.schedule_at(
                    at(ending.at_round), lambda e=ending: self.apply(e)
                )

    def _fire_and_arm(self, first: FaultStep, ending: FaultStep) -> None:
        if self.apply(first):
            delay = round(ending.after * self._round_span)
            self.sim.schedule(max(1, delay), lambda: self.apply(ending))

    # ------------------------------------------------------------------
    # Driver surface
    # ------------------------------------------------------------------

    def _now(self) -> int:
        return self.sim.now()

    def _alive(self) -> List[int]:
        return list(self.cluster.alive_ids())

    def _forged_ts(self, node_id: int) -> int:
        # Every node reads the simulator's clock; one round ahead.
        return self.sim.now() + self._round_span

    def _crash_node(self, node_id: int) -> None:
        if self.recovery == "same_id":
            self.cluster.crash_node(node_id)
        else:
            self.cluster.remove_node(node_id)

    def _respawn(self, node_ids: List[int], text: str) -> None:
        # Skip what an earlier action already respawned.
        down = [nid for nid in node_ids if nid in self.cluster.crashed_ids()]
        for node_id in down:
            self.cluster.respawn_node(node_id)
        self._respawned(down, text)

    def _add_fresh(self) -> int:
        return self.cluster.add_node()

    def _open_loss(self, rate: float, rounds: float) -> None:
        self._saved_loss = self.network.loss_rate
        self.network.loss_rate = max(self.network.loss_rate, rate)

    def _close_loss(self) -> None:
        self.network.loss_rate = getattr(self, "_saved_loss", 0.0)

    def _open_latency(self, factor: float, rounds: float) -> None:
        self._saved_latency = self.network.latency
        self.network.latency = _ScaledLatency(self.network.latency, factor)

    def _close_latency(self) -> None:
        self.network.latency = getattr(self, "_saved_latency", self.network.latency)
