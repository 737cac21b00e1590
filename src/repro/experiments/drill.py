"""Fault-drill experiment: a scenario file driven end to end.

Runs a declarative :class:`~repro.faults.schedule.FaultSchedule`
(default: the standard drill; any JSON scenario file via the CLI's
``--fault-scenario``) against a journaled simulated cluster with
same-identity recovery: crashed nodes come back through
:func:`repro.storage.recovery.recover` — snapshot-free log replay,
broadcast sequence resumed from the durable record, re-deliveries
deduplicated — and the run is judged on the paper's Table 1 properties
over the continuous survivors.

With ``--sync`` the cluster additionally runs the anti-entropy
catch-up protocol (:mod:`repro.sync`, docs/SYNC.md): recovered nodes
pull the delivery-log suffix they missed from a peer, so the drill can
hold them to a much stronger bar — their full delivery sequence must
be **bit-identical** to the continuous survivors', even when the
outage outlived the TTL window. Without sync the same long-outage
scenario shows permanent divergence (``recovered_missing`` > 0), which
is exactly the regression the paired scenarios in ``scenarios/``
document.

Hostile scenarios (``ByzantineNodes`` / ``ScrambleState`` actions, see
docs/SECURITY.md) turn on content fingerprinting and an authenticity
scan: forged or equivocated deliveries among correct nodes fail the
verdict. With ``--auth`` every ball entry travels under an HMAC
(:mod:`repro.auth`), so the same hostile schedule must produce *zero*
forged/equivocated deliveries — the paired scenarios in ``scenarios/``
document both outcomes.

This is the CLI face of the robustness layer::

    epto-experiment drill
    epto-experiment drill --fault-scenario scenarios/long_outage.json --sync
    epto-experiment drill --fault-scenario scenarios/byzantine_drill.json --auth

The CLI exits nonzero when the drill's verdict fails (safety or
agreement violations among survivors, forged/equivocated deliveries in
a hostile run, or — sync runs only — a recovered node that failed to
converge), so CI can gate on it.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..auth import HmacAuthenticator, KeyRing
from ..faults.schedule import ByzantineNodes, FaultSchedule, ScrambleState
from ..faults.interpreter import FaultStats
from ..faults.sim_injector import SimFaultInjector
from ..metrics.checker import SpecReport, check_authenticity, check_run
from ..metrics.collector import DeliveryCollector
from ..metrics.trace import load_delivery_log
from ..sim.cluster import ClusterConfig, SimCluster
from ..sim.drift import UniformDrift
from ..sim.engine import Simulator
from ..sim.latency import FixedLatency
from ..sim.network import SimNetwork
from ..sync.config import SyncConfig
from ..workloads.broadcast import ProbabilisticWorkload
from .common import ExperimentSpec
from .scale import ScalePreset, get_scale


@dataclass(slots=True)
class DrillResult:
    """Outcome of one fault drill."""

    n: int
    schedule_len: int
    fault_stats: FaultStats
    fault_log: List[Tuple[int, str]]
    report: SpecReport
    survivors: int
    events_broadcast: int
    recoveries: int
    recovered_records: int
    recovery_dedups: int
    journal_dedups: int
    #: Whether the anti-entropy catch-up protocol ran.
    sync_enabled: bool = False
    #: Events all survivors delivered that some recovered node never
    #: did — permanent divergence when > 0 after the drain.
    recovered_missing: int = 0
    #: Whether every recovered node's full delivery sequence is
    #: bit-identical (same order keys, same order) to a continuous
    #: survivor's; ``None`` when nothing crashed or nobody survived.
    sequences_match: Optional[bool] = None
    #: Aggregated anti-entropy traffic (sum over every manager).
    sync_rounds: int = 0
    sync_sessions: int = 0
    sync_chunks: int = 0
    sync_repaired: int = 0
    sync_bytes_fetched: int = 0
    #: Whether ball entries travelled under HMAC (``--auth``).
    auth_enabled: bool = False
    #: Hostile node count (``ByzantineNodes`` actions in the schedule).
    byzantine_nodes: int = 0
    #: State-scrambled node count (``ScrambleState`` actions).
    scrambled: int = 0
    #: Content scan over every non-hostile node, scrambled ones
    #: included (hostile runs only).
    authenticity: Optional[SpecReport] = None
    #: Ball entries the fabric rejected at admission (auth runs only).
    dropped_bad_signature: int = 0
    dropped_unknown_key: int = 0
    dropped_unsigned: int = 0
    #: Whether every scrambled node's *durable* delivered set converged
    #: to the reference survivor's (order is then implied by total
    #: order); ``None`` when nothing was scrambled.
    scrambled_converged: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Safety held on the continuous survivors."""
        return self.report.safety_ok

    @property
    def exit_ok(self) -> bool:
        """The verdict the CLI exit code reflects.

        Safety must hold on the continuous survivors always. Hostile
        runs (fingerprinting on) additionally require zero forged and
        zero equivocated deliveries among correct nodes — with
        ``--auth`` that is the guarantee under test; without it the
        same schedule fails, which is the documented contrast. When the
        anti-entropy protocol ran, recovered nodes are additionally
        held to full convergence: no permanently missing events,
        sequences bit-identical to the survivors', and scrambled nodes'
        durable journals converged. (Without sync, recovered divergence
        after a TTL-outliving outage is the documented, inherent
        behaviour — reported, not failed.)
        """
        if not self.report.safety_ok:
            return False
        if self.authenticity is not None and not self.authenticity.ok:
            return False
        if self.sync_enabled:
            if self.recovered_missing > 0:
                return False
            if self.sequences_match is False:
                return False
            if self.scrambled_converged is False:
                return False
        return True

    def render(self) -> str:
        lines = [
            f"n={self.n} actions={self.schedule_len} "
            f"survivors={self.survivors} events={self.events_broadcast}",
            f"faults: crashes={self.fault_stats.crashes} "
            f"recoveries={self.fault_stats.recoveries} "
            f"partitions={self.fault_stats.partitions} "
            f"loss_bursts={self.fault_stats.loss_bursts}",
            f"recovery: respawns={self.recoveries} "
            f"log_records_replayed={self.recovered_records} "
            f"replay_dedups={self.recovery_dedups} "
            f"live_dedups={self.journal_dedups}",
        ]
        if self.byzantine_nodes or self.scrambled or self.auth_enabled:
            lines.append(
                f"hostile: byzantine={self.byzantine_nodes} "
                f"scrambled={self.scrambled} "
                f"auth={'on' if self.auth_enabled else 'off'}"
            )
        if self.auth_enabled:
            lines.append(
                f"auth drops: bad_signature={self.dropped_bad_signature} "
                f"unknown_key={self.dropped_unknown_key} "
                f"unsigned={self.dropped_unsigned}"
            )
        if self.authenticity is not None:
            scan = self.authenticity
            lines.append(
                f"authenticity={'OK' if scan.ok else 'VIOLATED'} "
                f"forged={len(scan.forged_deliveries)} "
                f"equivocated={len(scan.equivocated_events)} "
                f"deliveries={scan.checked_deliveries}"
            )
        if self.sync_enabled:
            lines.append(
                f"sync: rounds={self.sync_rounds} "
                f"sessions={self.sync_sessions} chunks={self.sync_chunks} "
                f"repaired={self.sync_repaired} "
                f"bytes={self.sync_bytes_fetched}"
            )
        if self.scrambled:
            verdict = (
                "n/a"
                if self.scrambled_converged is None
                else ("CONVERGED" if self.scrambled_converged else "DIVERGED")
            )
            lines.append(f"scrambled journals: {verdict}")
        if self.recoveries:
            verdict = (
                "n/a"
                if self.sequences_match is None
                else ("IDENTICAL" if self.sequences_match else "DIVERGED")
            )
            lines.append(
                f"recovered convergence: missing={self.recovered_missing} "
                f"sequences={verdict}"
            )
        lines += [
            f"safety: {'OK' if self.ok else 'VIOLATED'} "
            f"(order={len(self.report.order_violations)} "
            f"holes={len(self.report.holes)})",
            f"verdict: {'OK' if self.exit_ok else 'FAILED'}",
            "timeline:",
        ]
        lines += [f"  t={tick:>6} {message}" for tick, message in self.fault_log]
        return "\n".join(lines)


def run_drill(
    scale: ScalePreset | str | None = None,
    seed: int = 17,
    schedule: Optional[FaultSchedule] = None,
    storage_dir: Union[str, Path, None] = None,
    sync: bool = False,
    sync_config: Optional[SyncConfig] = None,
    auth: bool = False,
) -> DrillResult:
    """Run one fault scenario against a journaled simulated cluster.

    Args:
        scale: Size preset (drives the population).
        seed: Deterministic run seed.
        schedule: The scenario; :meth:`FaultSchedule.standard_drill`
            when omitted.
        storage_dir: Journal root; a temporary directory (removed after
            the run) when omitted.
        sync: Enable the anti-entropy catch-up protocol
            (:mod:`repro.sync`); recovered nodes are then required to
            converge bit-identically to the survivors (see
            :attr:`DrillResult.exit_ok`).
        sync_config: Override the drill's default sync parameters
            (implies ``sync=True`` when given).
        auth: Authenticate every ball entry with per-node HMAC keys
            (:mod:`repro.auth`, docs/SECURITY.md); hostile schedules
            must then produce zero forged/equivocated deliveries.
    """
    preset = scale if isinstance(scale, ScalePreset) else get_scale(scale)
    n = max(16, preset.sweep_n // 4)
    schedule = schedule if schedule is not None else FaultSchedule.standard_drill()
    spec = ExperimentSpec(name="drill", n=n, seed=seed, latency="fixed")
    config = spec.epto_config()
    if sync_config is not None:
        sync = True
    elif sync:
        # Probe fast relative to the drill's horizon so one recovery
        # converges well inside the drain window.
        sync_config = SyncConfig(interval_rounds=2.0)

    hostile_schedule = any(
        isinstance(action, (ByzantineNodes, ScrambleState)) for action in schedule
    )
    fingerprints = auth or hostile_schedule

    temp_root: Optional[str] = None
    if storage_dir is None:
        temp_root = tempfile.mkdtemp(prefix="epto-drill-")
        storage_dir = temp_root
    try:
        sim = Simulator(seed=seed)
        authenticator = (
            HmacAuthenticator(KeyRing(f"drill:{seed}")) if auth else None
        )
        network = SimNetwork(
            sim, latency=FixedLatency(ticks=2), authenticator=authenticator
        )
        collector = DeliveryCollector(fingerprints=fingerprints)
        cluster = SimCluster(
            sim,
            network,
            ClusterConfig(
                epto=config,
                drift=UniformDrift(spec.drift_fraction),
                expected_size=n,
            ),
            collector=collector,
            storage_dir=storage_dir,
            sync=sync_config if sync else None,
        )
        cluster.add_nodes(n)
        injector = SimFaultInjector(sim, cluster, schedule, recovery="same_id")
        injector.install()

        delta = config.round_interval
        active_rounds = int(schedule.horizon_rounds) + 4
        ProbabilisticWorkload(
            sim, cluster, rate=0.05, rounds=active_rounds, start=1
        )
        drain = spec.resolved_drain_rounds()
        sim.run(until=(active_rounds + drain) * delta)

        # Same-id respawns rejoin the alive set, but a recovered node is
        # not a *continuous* survivor — agreement is only promised to
        # processes that never went down; hostile nodes never qualify.
        byzantine_ids = set(injector.byzantine_ids)
        scrambled_ids = set(injector.scrambled_ids)
        survivors = injector.continuous_survivors() - byzantine_ids
        report = check_run(
            collector, correct_nodes=survivors, exclude_nodes=scrambled_ids
        )
        authenticity: Optional[SpecReport] = None
        if fingerprints:
            correct = set(collector.sequences()) - byzantine_ids
            authenticity = check_authenticity(collector, correct_nodes=correct)
        recoveries = [
            state for states in cluster.recoveries.values() for state in states
        ]
        recovered_missing, sequences_match = _recovered_convergence(
            collector, survivors, sorted(set(cluster.recoveries) - scrambled_ids)
        )
        scrambled_converged = _scrambled_convergence(
            cluster, survivors, sorted(scrambled_ids)
        )
        managers = list(cluster.sync_managers.values())
        return DrillResult(
            n=n,
            schedule_len=len(schedule),
            fault_stats=injector.stats,
            fault_log=list(injector.log),
            report=report,
            survivors=len(survivors),
            events_broadcast=collector.broadcast_count,
            recoveries=len(recoveries),
            recovered_records=sum(state.replayed for state in recoveries),
            recovery_dedups=sum(state.deduplicated for state in recoveries),
            journal_dedups=sum(
                journal.stats.deduplicated for journal in cluster.journals.values()
            ),
            sync_enabled=sync,
            recovered_missing=recovered_missing,
            sequences_match=sequences_match,
            sync_rounds=sum(m.stats.rounds for m in managers),
            sync_sessions=sum(m.stats.sessions_completed for m in managers),
            sync_chunks=sum(m.stats.chunks_received for m in managers),
            sync_repaired=sum(m.stats.events_repaired for m in managers),
            sync_bytes_fetched=sum(m.stats.bytes_fetched for m in managers),
            auth_enabled=auth,
            byzantine_nodes=len(byzantine_ids),
            scrambled=len(scrambled_ids),
            authenticity=authenticity,
            dropped_bad_signature=network.stats.dropped_bad_signature,
            dropped_unknown_key=network.stats.dropped_unknown_key,
            dropped_unsigned=network.stats.dropped_unsigned,
            scrambled_converged=scrambled_converged,
        )
    finally:
        if temp_root is not None:
            shutil.rmtree(temp_root, ignore_errors=True)


def _recovered_convergence(
    collector: DeliveryCollector,
    survivors: set,
    recovered_ids: List[int],
) -> Tuple[int, Optional[bool]]:
    """Compare recovered nodes' delivery sequences to the survivors'.

    Returns ``(missing, identical)``: the number of events every
    survivor delivered that some recovered node never did, and whether
    every recovered node's full order-key sequence is bit-identical to
    the reference survivor's. ``(0, None)`` when there is nothing to
    compare.
    """
    if not recovered_ids or not survivors:
        return 0, None
    sequences: Dict[int, tuple] = {
        node_id: tuple(keys) for node_id, keys in collector.sequences().items()
    }
    reference = sequences.get(min(survivors), ())
    reference_set = set(reference)
    missing = 0
    identical = True
    for node_id in recovered_ids:
        keys = sequences.get(node_id, ())
        missing += len(reference_set - set(keys))
        if keys != reference:
            identical = False
    return missing, identical


def _scrambled_convergence(
    cluster: SimCluster,
    survivors: Set[int],
    scrambled_ids: List[int],
) -> Optional[bool]:
    """Compare scrambled nodes' *durable* journals to a survivor's.

    A scrambled node's in-memory trace legitimately re-covers recovered
    ground (the journal rewind resets its dedupe watermark), so
    convergence is judged on the durable log instead: after recovery
    and anti-entropy repair, its delivered order-key set must equal the
    reference survivor's — which, under total order, makes the sorted
    delivered sequences bit-identical. ``None`` when there is nothing
    to compare.
    """
    if not scrambled_ids or not survivors:
        return None
    reference_id = min(survivors)
    reference = sorted(
        set(
            load_delivery_log(
                cluster.node_storage_dir(reference_id), node_id=reference_id
            ).sequence_of(reference_id)
        )
    )
    for node_id in scrambled_ids:
        keys = sorted(
            set(
                load_delivery_log(
                    cluster.node_storage_dir(node_id), node_id=node_id
                ).sequence_of(node_id)
            )
        )
        if keys != reference:
            return False
    return True
