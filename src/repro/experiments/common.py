"""Shared experiment harness for the §6 evaluation reproductions.

Builds a complete simulated deployment from a declarative
:class:`ExperimentSpec` — engine, network (latency/loss), cluster
(EpTO / baseline processes, uniform or Cyclon PSS), churn, workload —
runs it to quiescence, and returns an :class:`ExperimentResult` with
the delay samples, CDF, Table 1 specification report and network
statistics. Every figure driver in this package is a thin sweep over
this harness.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..broadcast.balls_bins import BallsBinsProcess
from ..broadcast.fifo import FifoProcess
from ..broadcast.pbcast import StabilityOrderedProcess
from ..core.config import EpToConfig
from ..core.errors import ConfigurationError
from ..core.params import DEFAULT_C, min_fanout, min_ttl
from ..metrics.cdf import DelaySummary, cdf_points
from ..metrics.checker import SpecReport, check_run
from ..metrics.collector import DeliveryCollector
from ..sim.churn import ChurnDriver
from ..sim.cluster import ClusterConfig, SimCluster
from ..sim.drift import NoDrift, UniformDrift
from ..sim.engine import Simulator
from ..sim.latency import (
    FixedLatency,
    LatencyModel,
    PlanetLabLatency,
    make_latency_model,
)
from ..sim.network import SimNetwork
from ..workloads.broadcast import ProbabilisticWorkload


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Declarative description of one simulation run.

    The defaults reproduce the paper's common setting: ``delta = 125``
    ticks, 1% uniform drift, PlanetLab-like latency, idealized PSS,
    global clock, and the theoretical ``K``/``TTL`` for the system
    size (overridable — Figure 6's "TTL as small as 5" point uses the
    override).
    """

    name: str
    n: int
    seed: int = 1
    clock: str = "global"
    c: float = DEFAULT_C
    fanout: Optional[int] = None
    ttl: Optional[int] = None
    round_interval: int = 125
    latency: str | LatencyModel = "planetlab"
    loss_rate: float = 0.0
    churn_rate: float = 0.0
    pss: str = "uniform"
    drift_fraction: float = 0.01
    broadcast_rate: float = 0.05
    broadcast_rounds: int = 8
    warmup_rounds: int = 0
    drain_rounds: Optional[int] = None
    process_kind: str = "epto"
    round_phase: str = "synchronized"
    #: ``"eager"`` ships payloads inside every ball; ``"lazy"`` ships
    #: id-only balls and pulls payloads on demand (docs/OVERLAY.md).
    mode: str = "eager"

    def resolved_fanout(self) -> int:
        """Configured fanout, or the Theorem 2 / Lemma 7 bound."""
        if self.fanout is not None:
            return self.fanout
        return min_fanout(self.n, churn_rate=self.churn_rate, loss_rate=self.loss_rate)

    def resolved_ttl(self) -> int:
        """Configured TTL, or the Lemma 3–6 bound for the clock type."""
        if self.ttl is not None:
            return self.ttl
        return min_ttl(self.n, c=self.c, clock=self.clock, latency_bounded_by_round=True)

    def resolved_drain_rounds(self) -> int:
        """Silent rounds appended so every event can stabilize.

        An event broadcast in the last workload round still needs
        ``TTL + 1`` rounds of aging plus slack for network latency (up
        to ~6 round durations in the PlanetLab tail) and drift.
        """
        if self.drain_rounds is not None:
            return self.drain_rounds
        return self.resolved_ttl() + 16

    def epto_config(self) -> EpToConfig:
        """Materialize the :class:`~repro.core.config.EpToConfig`."""
        return EpToConfig(
            fanout=self.resolved_fanout(),
            ttl=self.resolved_ttl(),
            round_interval=self.round_interval,
            clock=self.clock,
            mode=self.mode,
        )

    def with_overrides(self, **changes: object) -> "ExperimentSpec":
        """Copy with fields replaced (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(slots=True)
class ExperimentResult:
    """Everything a finished run produced."""

    spec: ExperimentSpec
    delays: List[int]
    summary: Optional[DelaySummary]
    cdf: List[Tuple[float, float]]
    report: SpecReport
    events_broadcast: int
    deliveries: int
    stable_nodes: int
    messages_sent: int
    messages_dropped: int
    sim_ticks: int
    wall_seconds: float

    @property
    def holes(self) -> int:
        """Agreement holes among stable nodes (paper: always zero)."""
        return len(self.report.holes)

    def as_row(self) -> Dict[str, object]:
        """Flatten headline numbers for report tables."""
        row: Dict[str, object] = {
            "name": self.spec.name,
            "n": self.spec.n,
            "events": self.events_broadcast,
            "deliveries": self.deliveries,
            "holes": self.holes,
            "safety": "OK" if self.report.safety_ok else "VIOLATED",
        }
        if self.summary is not None:
            row.update(
                {
                    "mean": round(self.summary.mean, 1),
                    "p50": round(self.summary.p50, 1),
                    "p95": round(self.summary.p95, 1),
                }
            )
        return row


def _build_latency(spec: ExperimentSpec) -> LatencyModel:
    if isinstance(spec.latency, str):
        return make_latency_model(spec.latency)
    return spec.latency


def _build_process_factory(spec: ExperimentSpec, config: EpToConfig):
    """Process factory for baseline kinds; ``None`` selects EpTO."""
    if spec.process_kind == "epto":
        return None
    if spec.process_kind == "ballsbins":
        cls = BallsBinsProcess
    elif spec.process_kind == "fifo":
        cls = FifoProcess
    elif spec.process_kind == "pbcast":
        cls = StabilityOrderedProcess
    else:
        raise ConfigurationError(f"unknown process kind {spec.process_kind!r}")

    def factory(*, node_id, pss, transport, on_deliver, time_source, rng):
        return cls(
            node_id=node_id,
            config=config,
            peer_sampler=pss,
            transport=transport,
            on_deliver=on_deliver,
            time_source=time_source,
            rng=rng,
        )

    return factory


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment to quiescence and collect all metrics.

    Timeline (in round intervals ``delta``):

    1. ``warmup_rounds`` — processes gossip with no workload (lets a
       Cyclon PSS mix its views before events start flowing);
    2. ``broadcast_rounds`` — the probabilistic workload fires; churn,
       if configured, is active during this window;
    3. ``drain_rounds`` — silence; churn stops, every in-flight event
       ages to stability and is delivered.

    The specification report is evaluated over the nodes that were
    alive from the start of the broadcast window to the end of the run
    (the paper's "processes that remained in the system long enough").
    """
    started = _wallclock.perf_counter()
    sim = Simulator(seed=spec.seed)
    network = SimNetwork(sim, latency=_build_latency(spec), loss_rate=spec.loss_rate)
    config = spec.epto_config()
    drift = UniformDrift(spec.drift_fraction) if spec.drift_fraction > 0 else NoDrift()
    cluster_config = ClusterConfig(
        epto=config,
        pss=spec.pss,
        drift=drift,
        expected_size=spec.n,
        round_phase=spec.round_phase,
    )
    collector = DeliveryCollector()
    cluster = SimCluster(
        sim,
        network,
        cluster_config,
        collector=collector,
        process_factory=_build_process_factory(spec, config),
    )
    cluster.add_nodes(spec.n)

    delta = spec.round_interval
    warmup_end = spec.warmup_rounds * delta
    broadcast_end = warmup_end + spec.broadcast_rounds * delta
    run_end = broadcast_end + spec.resolved_drain_rounds() * delta

    ProbabilisticWorkload(
        sim,
        cluster,
        rate=spec.broadcast_rate,
        rounds=spec.broadcast_rounds,
        start=warmup_end + 1,
    )
    if spec.churn_rate > 0.0:
        ChurnDriver(
            sim,
            cluster,
            rate=spec.churn_rate,
            start=warmup_end + 1,
            stop_after=broadcast_end,
        )

    sim.run(until=run_end)

    stable = collector.stable_nodes(since=warmup_end, until=run_end)
    report = check_run(collector, correct_nodes=stable)
    delays = collector.delivery_delays()
    summary = DelaySummary.from_samples(delays) if delays else None

    return ExperimentResult(
        spec=spec,
        delays=delays,
        summary=summary,
        cdf=cdf_points(delays),
        report=report,
        events_broadcast=collector.broadcast_count,
        deliveries=collector.delivery_count,
        stable_nodes=len(stable),
        messages_sent=network.stats.sent,
        messages_dropped=network.stats.dropped,
        sim_ticks=sim.now(),
        wall_seconds=_wallclock.perf_counter() - started,
    )


def run_sweep(specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
    """Run several specs sequentially (one figure's family of curves)."""
    return [run_experiment(spec) for spec in specs]
