"""Multi-topic fault drill: per-topic faults on one shared transport.

The single-topic drill (:mod:`repro.experiments.drill`) asks whether
Table 1 holds for one EpTO instance under a fault schedule. This drill
asks the multi-topic question the broadcast service exists to answer
(docs/SERVICE.md): when faults hit *one topic* — partition topic A's
heavy publisher, burst-drop topic A's frames — do the other topics on
the very same sockets keep their guarantees untouched, and do
host-level faults (a crash takes every topic down at once) recover
per-topic from per-topic journals?

Scenario shape (``scenarios/multi_topic_drill.json``)::

    {"topics": {"<topic-id>": {"publisher": 0, "actions": [...]}}}

Each topic's ``actions`` list is parsed by
:meth:`repro.faults.schedule.FaultSchedule.from_dict` — the same
declarative vocabulary as every other scenario file, with times in
rounds. Interpretation against a :class:`~repro.service.ServiceCluster`:

* ``partition`` / ``heal`` / ``loss_burst`` are **topic-level**: they
  hit that topic's frames only, via the per-topic channel fault
  surface (:meth:`ServiceCluster.set_topic_partition` and friends).
* ``crash`` is **host-level**: a crash takes the host's shared socket
  down, so every topic on it stops at once; with ``recover_after`` the
  host respawns and each topic recovers from its own journal and
  catches up over anti-entropy.
* The optional ``publisher`` pins that topic's traffic to one host
  (the "heavy publisher" the canned scenario partitions away);
  topics without it publish round-robin.

Events published on a topic while that topic is partitioned (or inside
a ≥0.99-rate loss burst) are recorded as *at risk*: a fully cut
publisher's events can die with their TTL, which is the partition's
cost, not a protocol bug. The verdict therefore requires every live
host to deliver every not-at-risk event, and runs
:func:`~repro.metrics.checker.check_survivors` per topic over the hosts
that were never partition-isolated on it (respawned hosts are checked
on their post-restart suffix, as everywhere else).

CLI::

    epto-experiment service-drill

Exit code gates on the per-topic verdicts, never on timing.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..core.config import EpToConfig
from ..core.errors import FaultInjectionError
from ..faults.interpreter import expand
from ..faults.schedule import (
    CrashNodes,
    FaultSchedule,
    HealPartition,
    LossBurst,
    PartitionNetwork,
)
from ..metrics.checker import SpecReport, check_survivors
from ..runtime.udp import UdpNetwork
from ..service import ServiceCluster
from ..sync.config import SyncConfig

#: Repo-root default scenario.
DEFAULT_SCENARIO = (
    Path(__file__).resolve().parents[3] / "scenarios" / "multi_topic_drill.json"
)

#: Rounds the workload keeps publishing after the last scheduled action
#: (post-fault traffic must flow and converge).
TAIL_ROUNDS = 12


@dataclass(slots=True)
class TopicSchedule:
    """One topic's parsed slice of the scenario."""

    topic: int
    schedule: FaultSchedule
    publisher: Optional[int] = None


def load_scenario(source: Union[str, Path, Dict[str, Any]]) -> List[TopicSchedule]:
    """Parse a multi-topic scenario (path, JSON text, or mapping)."""
    if isinstance(source, dict):
        data = source
    else:
        path = Path(source)
        text = (
            path.read_text(encoding="utf-8") if path.exists() else str(source)
        )
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultInjectionError(
                f"scenario is not valid JSON: {exc}"
            ) from exc
    topics = data.get("topics")
    if not isinstance(topics, dict) or not topics:
        raise FaultInjectionError(
            "multi-topic scenario must have a non-empty 'topics' mapping "
            '({"topics": {"<id>": {"actions": [...]}}})'
        )
    parsed: List[TopicSchedule] = []
    for raw_topic, spec in topics.items():
        try:
            topic = int(raw_topic)
        except (TypeError, ValueError):
            raise FaultInjectionError(
                f"topic id {raw_topic!r} is not an integer"
            ) from None
        schedule = FaultSchedule.from_dict(spec)
        for action in schedule:
            if not isinstance(
                action, (CrashNodes, PartitionNetwork, HealPartition, LossBurst)
            ):
                raise FaultInjectionError(
                    f"topic {topic}: action kind {action.kind!r} is not "
                    "supported by the service drill "
                    "(crash/partition/heal/loss_burst only)"
                )
            if isinstance(action, CrashNodes) and action.nodes is None:
                raise FaultInjectionError(
                    f"topic {topic}: service-drill crashes need explicit "
                    "nodes= (host-level faults name their victims)"
                )
        publisher = spec.get("publisher")
        parsed.append(
            TopicSchedule(
                topic=topic,
                schedule=schedule,
                publisher=int(publisher) if publisher is not None else None,
            )
        )
    return parsed


@dataclass(slots=True)
class TopicVerdict:
    """Per-topic outcome of the drill."""

    topic: int
    published: int
    at_risk: int
    delivered_converged: bool
    isolated_hosts: Tuple[int, ...]
    recovered_hosts: Tuple[int, ...]
    report: SpecReport

    @property
    def ok(self) -> bool:
        return self.delivered_converged and self.report.ok


@dataclass(slots=True)
class ServiceDrillResult:
    """Everything ``epto-experiment service-drill`` reports."""

    n: int
    rounds: int
    scenario: str
    fault_log: List[Tuple[float, str]] = field(default_factory=list)
    verdicts: List[TopicVerdict] = field(default_factory=list)

    @property
    def exit_ok(self) -> bool:
        return bool(self.verdicts) and all(v.ok for v in self.verdicts)

    def render(self) -> str:
        lines = [
            f"{self.n} hosts x {len(self.verdicts)} topics, "
            f"{self.rounds} rounds [{self.scenario}]"
        ]
        for at, description in self.fault_log:
            lines.append(f"  round {at:5.1f}: {description}")
        for v in self.verdicts:
            lines.append(
                f"topic {v.topic}: published={v.published} "
                f"at_risk={v.at_risk} "
                f"converged={'yes' if v.delivered_converged else 'NO'} "
                f"isolated={list(v.isolated_hosts)} "
                f"recovered={list(v.recovered_hosts)}"
            )
            lines.append(f"  {v.report.summary()}")
        lines.append(f"verdict: {'OK' if self.exit_ok else 'FAILED'}")
        return "\n".join(lines)


#: The steps of :func:`repro.faults.interpreter.expand` this drill acts
#: on (a topic channel times its own loss window, so ``loss_end`` is not
#: one of them).
_OPS = ("partition", "heal", "loss_burst", "crash", "recover")


def _timeline(
    plans: List[TopicSchedule],
) -> List[Tuple[float, int, str, Any]]:
    """Flatten the per-topic schedules into (round, topic, op, action)."""
    steps = [
        (step.at_round, plan.topic, step.verb, step.action)
        for plan in plans
        for step in expand(plan.schedule)
        if step.verb in _OPS
    ]
    steps.sort(key=lambda step: step[0])
    return steps


async def _drive(
    cluster: ServiceCluster,
    plans: List[TopicSchedule],
    timeout: float,
) -> ServiceDrillResult:
    n = len(cluster.hosts)
    interval_s = cluster.config.round_interval / 1000.0
    steps = _timeline(plans)
    last_round = max((step[0] for step in steps), default=0.0)
    total_rounds = int(last_round) + TAIL_ROUNDS

    fault_log: List[Tuple[float, str]] = []
    partition_active: Dict[int, bool] = {p.topic: False for p in plans}
    isolated_ever: Dict[int, Set[int]] = {p.topic: set() for p in plans}
    heavy_burst_until: Dict[int, float] = {p.topic: -1.0 for p in plans}
    at_risk: Dict[int, Set[Any]] = {p.topic: set() for p in plans}
    published: Dict[int, Set[Any]] = {p.topic: set() for p in plans}
    #: topic -> event id -> round it was published (outage scoping).
    publish_round: Dict[int, Dict[Any, int]] = {p.topic: {} for p in plans}
    down_hosts: Set[int] = set()
    #: host -> [(crash_round, blind_until_round)] — a recovering host is
    #: not required to deliver events whose epidemic window overlapped
    #: its outage or its catch-up: the suffix-only anti-entropy
    #: protocol cannot back-fill below an advanced watermark
    #: (docs/SYNC.md), and check_survivors exempts recovered nodes from
    #: agreement on exactly that window.
    outages: Dict[int, List[List[float]]] = {}

    async def apply(step: Tuple[float, int, str, Any]) -> None:
        at, topic, op, action = step
        if op == "partition":
            groups = {int(k): v for k, v in (action.groups or {}).items()}
            cluster.set_topic_partition(topic, groups)
            partition_active[topic] = True
            isolated_ever[topic].update(groups)
            fault_log.append((at, f"partition topic {topic}: groups={groups}"))
        elif op == "heal":
            cluster.heal_topic_partition(topic)
            partition_active[topic] = False
            fault_log.append((at, f"heal topic {topic}"))
        elif op == "loss_burst":
            cluster.set_topic_loss(topic, action.rate, action.duration * interval_s)
            if action.rate >= 0.99:
                heavy_burst_until[topic] = at + action.duration
            fault_log.append(
                (at, f"loss burst topic {topic}: rate={action.rate} "
                     f"for {action.duration} rounds")
            )
        elif op == "crash":
            for host_id in action.nodes:
                cluster.crash_host(host_id)
                down_hosts.add(host_id)
                outages.setdefault(host_id, []).append([at, float("inf")])
            fault_log.append((at, f"crash hosts {list(action.nodes)}"))
        elif op == "recover":
            for host_id in action.nodes:
                await cluster.respawn_host(host_id)
                down_hosts.discard(host_id)
                outages[host_id][-1][1] = at + cluster.config.ttl
            fault_log.append((at, f"respawn hosts {list(action.nodes)}"))

    # Workload + timeline, one round at a time.
    step_index = 0
    for round_no in range(total_rounds):
        while step_index < len(steps) and steps[step_index][0] <= round_no:
            await apply(steps[step_index])
            step_index += 1
        for i, plan in enumerate(plans):
            topic = plan.topic
            publisher = (
                plan.publisher
                if plan.publisher is not None
                else (round_no + i) % n
            )
            if publisher in down_hosts:
                continue
            event = await cluster.publish(
                topic, publisher, f"drill-t{topic}-r{round_no}"
            )
            published[topic].add(event.id)
            publish_round[topic][event.id] = round_no
            if partition_active[topic] or round_no < heavy_burst_until[topic]:
                at_risk[topic].add(event.id)
        await asyncio.sleep(interval_s)
    while step_index < len(steps):  # trailing heals/respawns, if any
        await apply(steps[step_index])
        step_index += 1

    # Quiesce: everything not at risk must land on every live host —
    # except that a recovered host is not held to events whose
    # epidemic window overlapped its outage/catch-up (see `outages`).
    def blind(host_id: int, round_no: int) -> bool:
        return any(
            start <= round_no <= until
            for start, until in outages.get(host_id, ())
        )

    verdicts: List[TopicVerdict] = []
    for plan in plans:
        topic = plan.topic
        required = published[topic] - at_risk[topic]
        rounds_of = publish_round[topic]

        def settled(topic=topic, required=required, rounds_of=rounds_of) -> bool:
            return all(
                {
                    event_id
                    for event_id in required
                    if not blind(host_id, rounds_of[event_id])
                }
                <= {e.id for e in service.deliveries(topic)}
                for host_id, service in cluster.hosts.items()
                if not service.crashed
            )

        converged = await cluster.wait_until(settled, timeout=timeout)
        isolated = isolated_ever[topic]
        # At-risk events (published into a partition or a total loss
        # burst) have degraded guarantees by construction: they may die
        # with their TTL, and the suffix-only anti-entropy protocol
        # repairs them on some hosts but not others (docs/SYNC.md).
        # The Table 1 verdict therefore runs on every journal *minus*
        # the at-risk ids — on the events that had fair connectivity,
        # every host (including the once-isolated one) must agree.
        risky = at_risk[topic]
        checked = {
            hid: [e for e in events if e.id not in risky]
            for hid, events in cluster.deliveries(topic).items()
        }
        recovered = {
            hid
            for hid, service in cluster.hosts.items()
            if not service.crashed and service.topics[topic].restart_indices
        }

        def filtered_indices(hid: int) -> List[int]:
            journal = cluster.hosts[hid].topics[topic].deliveries
            return [
                sum(1 for e in journal[:index] if e.id not in risky)
                for index in cluster.hosts[hid].topics[topic].restart_indices
            ]

        report = check_survivors(
            deliveries=checked,
            survivors=set(cluster.live_ids()) - recovered,
            recovered=recovered,
            restart_indices={hid: filtered_indices(hid) for hid in recovered},
            broadcasts=cluster.broadcasts.get(topic),
        )
        verdicts.append(
            TopicVerdict(
                topic=topic,
                published=len(published[topic]),
                at_risk=len(at_risk[topic]),
                delivered_converged=converged,
                isolated_hosts=tuple(sorted(isolated)),
                recovered_hosts=tuple(sorted(recovered)),
                report=report,
            )
        )
    return ServiceDrillResult(
        n=n,
        rounds=total_rounds,
        scenario="",
        fault_log=fault_log,
        verdicts=verdicts,
    )


def run_service_drill(
    seed: int = 31,
    n: int = 8,
    scenario: Union[str, Path, Dict[str, Any], None] = None,
    round_interval: int = 25,
    timeout: float = 20.0,
) -> ServiceDrillResult:
    """Run the multi-topic drill end to end over real loopback UDP.

    Args:
        seed: Fabric + per-topic peer-sampling seed.
        n: Hosts (each runs every scenario topic over one socket).
        scenario: Path / JSON text / mapping; defaults to
            ``scenarios/multi_topic_drill.json``.
        round_interval: EpTO round interval, milliseconds.
        timeout: Post-workload convergence wait per topic, seconds.
    """
    source = scenario if scenario is not None else DEFAULT_SCENARIO
    plans = load_scenario(source)
    label = str(source) if isinstance(source, (str, Path)) else "<inline>"

    async def go(storage: Path) -> ServiceDrillResult:
        network = UdpNetwork(seed=seed)
        cluster = ServiceCluster(
            EpToConfig.for_system_size(n, round_interval=round_interval),
            network=network,
            storage_dir=storage,
            sync=SyncConfig(),
            expected_size=n,
            seed=seed,
        )
        for plan in plans:
            cluster.open_topic(plan.topic)
        cluster.add_hosts(n)
        await cluster.open_all()
        cluster.start_all()
        try:
            result = await _drive(cluster, plans, timeout)
        finally:
            await cluster.close_all()
        result.scenario = Path(label).name if label != "<inline>" else label
        return result

    storage = Path(tempfile.mkdtemp(prefix="epto-service-drill-"))
    try:
        return asyncio.run(go(storage))
    finally:
        shutil.rmtree(storage, ignore_errors=True)
