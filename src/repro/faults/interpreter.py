"""The one interpreter of a :class:`~repro.faults.schedule.FaultSchedule`.

What a fault action *means* — who the victims are, how a partition is
drawn, what a hostile window switches on, what a state scramble sprays,
crashes and corrupts, which ids count as crashed, hostile, scrambled or
continuous survivors, what is counted and what is logged — is written
here once. A host supplies only what differs between hosts
(:class:`FaultInterpreter`'s driver surface): its clock, how a step is
scheduled, and a handful of verbs (crash, respawn, add-fresh, loss
window, latency window). :class:`~repro.faults.sim_injector.SimFaultInjector`
drives it on simulator ticks, :class:`~repro.faults.runtime_injector.AsyncFaultInjector`
on wall-clock timers, and the multi-topic service drill takes its timed
steps from the same :func:`expand`.

Every applied action is appended to :attr:`FaultInterpreter.log` as a
``(host time, description)`` pair so experiments can line failures up
with delivery traces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .byzantine import ByzantineRouter, forged_events, garbage_ball, scramble_journal
from .schedule import FaultAction, FaultSchedule


@dataclass(slots=True)
class FaultStats:
    """What an injector actually did."""

    crashes: int = 0
    recoveries: int = 0
    partitions: int = 0
    heals: int = 0
    loss_bursts: int = 0
    latency_spikes: int = 0
    corruption_windows: int = 0
    byzantine_windows: int = 0
    scrambles: int = 0


class FaultStep(NamedTuple):
    """One timed step of a schedule: *verb* applied to *action*."""

    #: rounds from the start of the run.
    at_round: float
    #: the action's ``kind`` for its first step; ``recover``, ``heal``,
    #: ``loss_end``, ``spike_end``, ``byzantine_end`` or ``unscramble``
    #: for the step that ends what the first began.
    verb: str
    action: FaultAction
    #: rounds after the action's first step (ending steps only).
    after: Optional[float] = None


#: action kind -> (field holding the delay to its ending step, that
#: step's verb). A kind absent here, or a ``None`` delay, has no ending.
_ENDINGS = {
    "crash": ("recover_after", "recover"),
    "partition": ("heal_after", "heal"),
    "loss_burst": ("duration", "loss_end"),
    "corrupt": ("duration", "loss_end"),
    "latency_spike": ("duration", "spike_end"),
    "byzantine": ("duration", "byzantine_end"),
    "scramble": ("recover_after", "unscramble"),
}


def steps_of(action: FaultAction) -> Tuple[FaultStep, Optional[FaultStep]]:
    """The step that applies *action* and the one that ends it, if any."""
    first = FaultStep(action.at_round, action.kind, action)
    field, verb = _ENDINGS.get(action.kind, (None, ""))
    delay = getattr(action, field) if field is not None else None
    if delay is None:
        return first, None
    return first, FaultStep(action.at_round + delay, verb, action, delay)


def expand(schedule: FaultSchedule) -> List[FaultStep]:
    """Every timed step of *schedule*, in schedule order (an action's
    ending right after its first step; sort by ``at_round`` — stably —
    for a timeline)."""
    return [
        step
        for action in schedule
        for step in steps_of(action)
        if step is not None
    ]


class FaultInterpreter:
    """Applies fault steps to a cluster; subclasses are the drivers.

    Args:
        cluster: The cluster under test. Needs ``network`` and
            ``crash_node(id)``; ``storage_dir`` / ``node_storage_dir``
            when state scrambles should damage journals.
        schedule: The declarative scenario.
        rng: Victim/partition sampling and journal damage.
        router_rng: Builds the Byzantine router's stream on first use.
        round_span: One round in the host's time unit (ticks, seconds).
    """

    #: what ``recover_after`` means: ``"same_id"`` respawns the crashed
    #: ids with their sequences resumed; ``"fresh"`` (the paper's churn
    #: model) replaces each with a brand-new identity.
    recovery = "same_id"

    def __init__(
        self,
        cluster: Any,
        schedule: FaultSchedule,
        rng: random.Random,
        router_rng: Callable[[], random.Random],
        round_span: float,
    ) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.network = cluster.network
        self.stats = FaultStats()
        #: (host time, human-readable description) per applied action.
        self.log: List[Tuple[Any, str]] = []
        #: Ids this interpreter crashed. Under ``recovery="fresh"`` they
        #: never return; under ``"same_id"`` recoveries respawn them.
        self.crashed_ids: Set[int] = set()
        #: Ids that were ever made hostile by a ByzantineNodes action.
        #: Hostile nodes are excluded from agreement checking — a
        #: Byzantine process's own deliveries carry no guarantees.
        self.byzantine_ids: Set[int] = set()
        #: Ids whose state a ScrambleState action corrupted.
        self.scrambled_ids: Set[int] = set()
        self._router: ByzantineRouter | None = None
        self._rng = rng
        self._router_rng = router_rng
        self._round_span = round_span
        self._initial_population: Set[int] = set()
        # Victims per crash/scramble action (keyed by action identity),
        # recorded when it fires for the step that brings them back.
        self._victims: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # What a driver supplies
    # ------------------------------------------------------------------

    def _now(self) -> Any:
        """Host time, for the log."""
        raise NotImplementedError

    def _alive(self) -> List[int]:
        """Ids of the nodes that are up, in the cluster's order."""
        raise NotImplementedError

    def _forged_ts(self, node_id: int) -> int:
        """A timestamp just ahead of *node_id*'s own clock reading."""
        raise NotImplementedError

    def _crash_node(self, node_id: int) -> None:
        """Kill *node_id* the way ``recover_after`` will undo."""
        raise NotImplementedError

    def _respawn(self, node_ids: List[int], text: str) -> Any:
        """Bring back those of *node_ids* that are still down, under
        their own ids, then report them to :meth:`_respawned` with
        *text*. May return an awaitable."""
        raise NotImplementedError

    def _add_fresh(self) -> int:
        """Start a brand-new node; returns its id."""
        raise NotImplementedError

    def _open_loss(self, rate: float, rounds: float) -> None:
        """Raise the loss probability to *rate* for *rounds* rounds."""
        raise NotImplementedError

    def _close_loss(self) -> None:
        """End the loss window (fabrics that time it themselves need
        nothing)."""

    def _open_latency(self, factor: float, rounds: float) -> None:
        """Multiply the latency by *factor* for *rounds* rounds."""
        raise NotImplementedError

    def _close_latency(self) -> None:
        """End the latency window (as :meth:`_close_loss`)."""

    # ------------------------------------------------------------------
    # Interpretation
    # ------------------------------------------------------------------

    def apply(self, step: FaultStep) -> Any:
        """Apply one step. Returns ``True`` when the step's ending
        should be armed now (a crash that had victims, a scramble), an
        awaitable when the host's respawn is asynchronous, else
        ``None``."""
        return getattr(self, "_" + step.verb)(step.action)

    def _begin(self) -> None:
        """Note who is alive as the schedule starts."""
        self._initial_population = set(self._alive())

    def continuous_survivors(self) -> Set[int]:
        """Ids up now, up when the schedule started, and never crashed
        in between — the population agreement is evaluated on (a
        same-id respawn is alive again but not a *continuous*
        survivor)."""
        return self._initial_population & (set(self._alive()) - self.crashed_ids)

    def _crash(self, action) -> bool:
        alive = self._alive()
        if action.nodes is not None:
            victims = [nid for nid in action.nodes if nid in set(alive)]
        else:
            count = min(len(alive), math.ceil(action.fraction * len(alive)))
            victims = self._rng.sample(alive, count)
        for node_id in victims:
            self._crash_node(node_id)
            self.crashed_ids.add(node_id)
            self.stats.crashes += 1
        self._victims[id(action)] = list(victims)
        self._log(f"crashed {sorted(victims)}")
        return bool(victims)

    def _recover(self, action) -> Any:
        victims = self._victims.get(id(action), [])
        if self.recovery == "same_id":
            return self._respawn(victims, "recovered {} under their own ids")
        joined = [self._add_fresh() for _ in victims]
        self.stats.recoveries += len(joined)
        self._log(f"recovered {len(joined)} processes as fresh ids {joined}")

    def _respawned(self, node_ids: List[int], text: str) -> None:
        self.stats.recoveries += len(node_ids)
        self._log(text.format(sorted(node_ids)))

    def _partition(self, action) -> None:
        if action.groups is not None:
            groups = dict(action.groups)
        else:
            alive = self._alive()
            minority_size = max(1, math.ceil(action.fraction * len(alive)))
            minority = set(self._rng.sample(alive, min(minority_size, len(alive))))
            groups = {nid: (1 if nid in minority else 0) for nid in alive}
        self.network.set_partition(groups)
        self.stats.partitions += 1
        sizes = sorted(
            [list(groups.values()).count(g) for g in set(groups.values())]
        )
        self._log(f"partitioned into groups of sizes {sizes}")

    def _heal(self, action) -> None:
        self.network.heal_partition()
        self.stats.heals += 1
        self._log("healed partition")

    def _loss_burst(self, action) -> None:
        # One window at a time; bursts are expected not to overlap (the
        # schedule is declarative, keep scenarios sane).
        self._open_loss(action.rate, action.duration)
        self.stats.loss_bursts += 1
        self._log(f"loss burst rate={action.rate}")

    def _corrupt(self, action) -> None:
        self.stats.corruption_windows += 1
        mangle = getattr(self.network, "set_corruption", None)
        if mangle is not None:
            mangle(action.rate, action.duration * self._round_span)
            self._log(f"corrupting datagrams rate={action.rate}")
        else:
            self._open_loss(action.rate, action.duration)
            self._log(
                f"corruption window rate={action.rate} (approximated as loss "
                "— this fabric has no wire bytes to mangle)"
            )

    def _loss_end(self, action) -> None:
        self._close_loss()
        self._log(f"loss restored to {getattr(self.network, 'loss_rate', 0.0)}")

    def _latency_spike(self, action) -> None:
        self._open_latency(action.factor, action.duration)
        self.stats.latency_spikes += 1
        self._log(f"latency spike x{action.factor}")

    def _spike_end(self, action) -> None:
        self._close_latency()
        self._log("latency restored")

    def _byzantine(self, action) -> None:
        if self._router is None:
            self._router = ByzantineRouter(rng=self._router_rng())
            self.network.set_adversary(self._router)
        self._router.enable(action.nodes, action.behavior, action.rate)
        self.byzantine_ids.update(action.nodes)
        self.stats.byzantine_windows += 1
        self._log(
            f"byzantine {action.behavior} on {sorted(action.nodes)} "
            f"rate={action.rate}"
        )

    def _byzantine_end(self, action) -> None:
        if self._router is not None:
            self._router.disable(action.nodes, action.behavior)
            self._log(f"byzantine {action.behavior} off for {sorted(action.nodes)}")

    def _scramble(self, action) -> bool:
        alive = set(self._alive())
        victims = [nid for nid in action.nodes if nid in alive]
        durable = getattr(self.cluster, "storage_dir", None) is not None
        for node_id in victims:
            # 1. The corrupted ordering state and clock made visible:
            # the victim sprays a ball of events forged under *other*
            # live identities, timestamped just ahead of its own clock,
            # with fresh TTLs. Under auth these are unsigned-at-source
            # and die at admission; without auth they poison correct
            # nodes.
            impersonate = sorted(alive - {node_id} - set(victims))[:3]
            if action.garbage_events > 0 and impersonate:
                events = forged_events(
                    impersonate, action.garbage_events, ts=self._forged_ts(node_id)
                )
                targets = [nid for nid in alive if nid != node_id]
                self.network.send_many(node_id, targets, garbage_ball(events))
                self._log(
                    f"scramble {node_id}: sprayed {len(events)} forged "
                    f"events impersonating {impersonate}"
                )
            # 2. Kill the process mid-flight.
            self.cluster.crash_node(node_id)
            self.crashed_ids.add(node_id)
            self.scrambled_ids.add(node_id)
            self.stats.scrambles += 1
            # 3. Corrupt whatever it had on disk.
            if durable:
                damage = scramble_journal(
                    self.cluster.node_storage_dir(node_id), self._rng
                )
                for note in damage:
                    self._log(f"scramble {node_id}: {note}")
        self._victims[id(action)] = list(victims)
        self._log(f"scrambled {sorted(victims)}")
        return True

    def _unscramble(self, action) -> Any:
        return self._respawn(
            self._victims.get(id(action), []), "scrambled nodes {} respawned"
        )

    def _log(self, message: str) -> None:
        self.log.append((self._now(), message))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(actions={len(self.schedule)}, "
            f"applied={len(self.log)})"
        )
