"""End-to-end UDP network benchmark (ROADMAP: wire-speed hot path).

Everything else in ``benchmarks/perf`` measures the ordering logic or
serialization in isolation; this experiment measures the actual wire
path — real loopback datagrams, real event-loop wakeups — in two
parts:

1. **Fan-out throughput**: node 0 blasts encode-once ``send_many``
   rounds at a fresh sample of K of its n−1 peers every round — the
   traffic Algorithm 1 makes (``peers ← PSS.sample(K)``), not a
   repeated peer set — over the raw-socket fabric (plain ``sendto``)
   and over the asyncio datagram endpoints (``batch=False``). Both
   pay K syscalls per round; the ratio is what driving the sockets
   directly saves per datagram (recorded in the committed
   BENCH_core.json and gated by the CI regression check).
2. **Cluster scenarios**: full EpTO clusters over
   :class:`~repro.runtime.udp.UdpNetwork` at several sizes drive a
   broadcast workload to delivery completion — once clean and once
   under a :class:`~repro.faults.schedule.FaultSchedule` (the CLI's
   ``--fault-scenario``, e.g. ``scenarios/standard_drill.json``) —
   recording throughput, syscalls per round, bytes on wire, and the
   paper-style delivery-delay CDF (Figures 5–8 are exactly such CDFs,
   there under PlanetLab latency, here under loopback + injected
   faults).

CLI::

    epto-experiment net-bench
    epto-experiment net-bench --fault-scenario scenarios/standard_drill.json

The delivery verdict (every event delivered everywhere, total order
intact) gates the exit code; timing numbers never do — wall-clock
assertions belong in the committed benchmark JSON, not in CI.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import EpToConfig
from ..faults.schedule import FaultSchedule
from ..metrics.cdf import DelaySummary, cdf_points
from ..runtime.cluster import AsyncCluster
from ..runtime.udp import UdpNetwork
from .scale import ScalePreset, get_scale

#: Event payloads per fan-out blast datagram are tiny; what matters is
#: the per-datagram cost, so the blast uses a single-entry ball per
#: round. K and n are the paced e2e workloads' (n=32 gives K=16).
_BLAST_FANOUT = 16
_BLAST_PEERS = 31


@dataclass(slots=True)
class FanoutThroughput:
    """``send_many`` blast over raw sockets vs asyncio endpoints: same
    bytes, the same fresh peer sample every round."""

    datagrams: int
    raw_seconds: float
    raw_syscalls: int
    asyncio_seconds: float
    asyncio_syscalls: int
    bytes_per_datagram: int

    @property
    def raw_rate(self) -> float:
        """Datagrams per second through the raw-socket fabric."""
        return self.datagrams / self.raw_seconds

    @property
    def asyncio_rate(self) -> float:
        """Datagrams per second through the asyncio endpoints."""
        return self.datagrams / self.asyncio_seconds

    @property
    def speedup(self) -> float:
        """Raw-socket over asyncio-endpoint throughput."""
        return self.asyncio_seconds / self.raw_seconds


@dataclass(slots=True)
class ClusterRun:
    """One EpTO cluster driven to delivery completion over real UDP."""

    n: int
    scenario: str
    events: int
    delivered: bool
    ordered: bool
    seconds: float
    rounds: float
    datagrams_sent: int
    datagrams_delivered: int
    syscalls_send: int
    syscalls_recv: int
    bytes_sent: int
    bytes_received: int
    delays_ms: List[float] = field(repr=False)

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def syscalls_per_round(self) -> float:
        """Send syscalls per node-round: one per datagram, so K for
        the ball plus whatever else the round sent."""
        node_rounds = self.rounds * self.n
        return self.syscalls_send / node_rounds if node_rounds else 0.0

    @property
    def delay_summary(self) -> Optional[DelaySummary]:
        if not self.delays_ms:
            return None
        return DelaySummary.from_samples(self.delays_ms)

    def delay_cdf(self) -> List[Tuple[float, float]]:
        """Delivery-delay CDF (ms, cumulative %) — the Figures 5–8 curve."""
        return cdf_points(self.delays_ms)


@dataclass(slots=True)
class NetBenchResult:
    """Everything ``epto-experiment net-bench`` reports."""

    fanout: FanoutThroughput
    runs: List[ClusterRun]

    @property
    def exit_ok(self) -> bool:
        """Delivery and ordering must hold; timing never gates."""
        return all(run.delivered and run.ordered for run in self.runs)

    def render(self) -> str:
        f = self.fanout
        lines = [
            f"fan-out blast: {f.datagrams} datagrams x "
            f"{f.bytes_per_datagram} B, a fresh {_BLAST_FANOUT} of "
            f"{_BLAST_PEERS} peers every round",
            f"  raw sockets: "
            f"{f.raw_rate:,.0f} dgram/s, {f.raw_syscalls} syscalls",
            f"  asyncio endpoints: "
            f"{f.asyncio_rate:,.0f} dgram/s, {f.asyncio_syscalls} syscalls",
            f"  speedup: {f.speedup:.2f}x",
        ]
        for run in self.runs:
            lines.append(
                f"n={run.n} [{run.scenario}] events={run.events} "
                f"delivered={'yes' if run.delivered else 'NO'} "
                f"ordered={'yes' if run.ordered else 'NO'} "
                f"{run.seconds:.2f}s ({run.events_per_second:.1f} ev/s)"
            )
            lines.append(
                f"  wire: {run.datagrams_sent} dgrams out, "
                f"{run.bytes_sent} B sent / {run.bytes_received} B recv, "
                f"{run.syscalls_send} send + {run.syscalls_recv} recv "
                f"syscalls ({run.syscalls_per_round:.2f} send "
                f"syscalls/node-round)"
            )
            summary = run.delay_summary
            if summary is not None:
                lines.append(
                    f"  delay ms: p50={summary.p50:.1f} "
                    f"p95={summary.p95:.1f} p99={summary.p99:.1f} "
                    f"max={summary.maximum:.1f} ({summary.count} samples)"
                )
        verdict = "OK" if self.exit_ok else "FAILED"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Part 1: fan-out throughput
# ----------------------------------------------------------------------


async def _open_blast_net(batch, seed: int):
    """One fabric with node 0 and :data:`_BLAST_PEERS` warm peers."""
    from repro.core.event import Ball, Event

    network = UdpNetwork(seed=seed, batch=batch)
    peers = list(range(1, _BLAST_PEERS + 1))
    for nid in [0] + peers:
        network.register(nid, lambda src, msg: None)
    await network.open_all()
    ball = Ball.of([(Event(id=(0, 0), ts=1, source_id=0, payload="blast-x"), 4)])
    # Warm up the codec buffer outside the clock.
    network.send_many(0, peers, ball)
    return network, ball


#: Rounds per timing chunk in the fan-out blast. The two transports
#: alternate in chunks this small so host noise lands on both sides
#: equally -- on a shared box, back-to-back single-shot timings of each
#: side can differ 20% on machine noise alone.
_BLAST_CHUNK = 25

#: Paired passes per blast; each side keeps its best pass. A pass is a
#: full alternating sweep of the round budget, so "best" still compares
#: like with like -- it discards whole noisy sweeps, not lucky chunks.
_BLAST_PASSES = 3


async def _fanout_throughput(rounds: int, seed: int) -> FanoutThroughput:
    """Raw-socket fabric vs. the asyncio-endpoint transport
    (``batch=False``) under the fan-out EpTO makes: every round goes to
    a fresh :data:`_BLAST_FANOUT`-of-:data:`_BLAST_PEERS` sample, drawn
    before the clock starts and the same for both sides.

    Both fabrics run live at once and the timed send loops alternate in
    :data:`_BLAST_CHUNK`-round chunks (a paired measurement): a load
    spike on the host slows both sides, not whichever happened to be on
    the clock. The whole sweep repeats :data:`_BLAST_PASSES` times with
    a receive-queue drain between passes (a saturated loopback receive
    buffer puts the *sender* in the kernel's drop path, which is ~5x
    slower) and each side reports its best pass. Receive completion is
    otherwise irrelevant here -- the sender is the side on the clock.
    """
    r_net, r_ball = await _open_blast_net("auto", seed)
    a_net, a_ball = await _open_blast_net(False, seed)
    reps = max(1, rounds // _BLAST_CHUNK)
    rng = random.Random(seed)
    peers = range(1, _BLAST_PEERS + 1)
    samples = [
        [rng.sample(peers, _BLAST_FANOUT) for _ in range(_BLAST_CHUNK)]
        for _ in range(reps)
    ]
    r_elapsed = a_elapsed = float("inf")
    r_syscalls = a_syscalls = dgram_bytes = 0
    datagrams = reps * _BLAST_CHUNK * _BLAST_FANOUT
    for _ in range(_BLAST_PASSES):
        r_sys0 = r_net.stats.syscalls_send
        a_sys0 = a_net.stats.syscalls_send
        r_bytes0 = r_net.stats.bytes_sent
        r_pass = a_pass = 0.0
        for chunk in samples:
            start = time.perf_counter()
            for dsts in chunk:
                r_net.send_many(0, dsts, r_ball)
            r_pass += time.perf_counter() - start
            start = time.perf_counter()
            for dsts in chunk:
                a_net.send_many(0, dsts, a_ball)
            a_pass += time.perf_counter() - start
        r_elapsed = min(r_elapsed, r_pass)
        a_elapsed = min(a_elapsed, a_pass)
        # Per-pass counts are deterministic; record one pass's worth so
        # the reported syscalls line up with the reported datagrams.
        r_syscalls = r_net.stats.syscalls_send - r_sys0
        a_syscalls = a_net.stats.syscalls_send - a_sys0
        dgram_bytes = (r_net.stats.bytes_sent - r_bytes0) // max(1, datagrams)
        # Drain both fabrics' receive queues before the next pass.
        for _ in range(30):
            await asyncio.sleep(0.004)
    await r_net.close()
    await a_net.close()
    return FanoutThroughput(
        datagrams=datagrams,
        raw_seconds=r_elapsed,
        raw_syscalls=r_syscalls,
        asyncio_seconds=a_elapsed,
        asyncio_syscalls=a_syscalls,
        bytes_per_datagram=dgram_bytes,
    )


# ----------------------------------------------------------------------
# Part 2: cluster scenarios
# ----------------------------------------------------------------------


def _cluster_config(n: int) -> EpToConfig:
    """Miniature-but-honest EpTO parameters for a loopback cluster."""
    fanout = max(3, min(6, n // 3))
    return EpToConfig(
        fanout=fanout, ttl=2 * fanout, round_interval=20, clock="logical"
    )


async def _cluster_run(
    n: int,
    events: int,
    seed: int,
    schedule: Optional[FaultSchedule],
    scenario: str,
    timeout: float = 30.0,
) -> ClusterRun:
    config = _cluster_config(n)
    network = UdpNetwork(seed=seed)
    cluster = AsyncCluster(config, network=network, seed=seed)
    loop = asyncio.get_running_loop()
    broadcast_at: Dict[object, float] = {}
    delays_ms: List[float] = []

    def on_deliver(event) -> None:
        origin = broadcast_at.get(event.payload)
        if origin is not None:
            delays_ms.append((loop.time() - origin) * 1000.0)

    for _ in range(n):
        cluster.add_node(on_deliver=on_deliver)
    await network.open_all()
    cluster.start_all()

    injector_task = None
    if schedule is not None:
        from ..faults.runtime_injector import AsyncFaultInjector

        injector = AsyncFaultInjector(cluster, schedule, seed=seed)
        injector_task = asyncio.create_task(injector.run())

    start = time.perf_counter()
    interval_s = config.round_interval / 1000.0
    for i in range(events):
        payload = f"net-bench-{i}"
        broadcast_at[payload] = loop.time()
        cluster.nodes[i % n].broadcast(payload)
        # Spread the workload over rounds like a real broadcast source.
        await asyncio.sleep(interval_s / 2)
    delivered = await cluster.wait_for_deliveries(events, timeout=timeout)
    seconds = time.perf_counter() - start
    if injector_task is not None:
        await injector_task
    # Let in-flight timers and the last balls settle before teardown.
    await asyncio.sleep(2 * interval_s)
    sequences = cluster.delivery_payload_sequences()
    await cluster.stop_all()
    await network.close()

    live_orders = {
        tuple(seq) for node_id, seq in sequences.items() if len(seq) >= events
    }
    stats = network.stats
    return ClusterRun(
        n=n,
        scenario=scenario,
        events=events,
        delivered=delivered,
        ordered=len(live_orders) == 1,
        seconds=seconds,
        rounds=seconds / interval_s,
        datagrams_sent=stats.sent,
        datagrams_delivered=stats.delivered,
        syscalls_send=stats.syscalls_send,
        syscalls_recv=stats.syscalls_recv,
        bytes_sent=stats.bytes_sent,
        bytes_received=stats.bytes_received,
        delays_ms=delays_ms,
    )


def run_net_bench(
    scale: ScalePreset | str | None = None,
    seed: int = 23,
    schedule: Optional[FaultSchedule] = None,
    sizes: Optional[Sequence[int]] = None,
    events: Optional[int] = None,
    blast_rounds: int = 400,
) -> NetBenchResult:
    """Run the ``udp_e2e`` benchmark family end to end.

    Args:
        scale: Size preset; governs cluster sizes and workload volume.
        seed: Base seed for fabric faults and node randomness.
        schedule: Optional fault scenario driven against **every**
            cluster size *in addition to* the clean runs (the CLI's
            ``--fault-scenario``).
        sizes: Override the preset's cluster sizes.
        events: Override the preset's broadcasts per run.
        blast_rounds: Fan-out rounds in the throughput blast.
    """
    preset = get_scale(scale) if not isinstance(scale, ScalePreset) else scale
    sizes = tuple(sizes if sizes is not None else preset.net_bench_sizes)
    events = int(events if events is not None else preset.net_bench_events)

    async def go() -> NetBenchResult:
        fanout = await _fanout_throughput(blast_rounds, seed)
        runs: List[ClusterRun] = []
        for n in sizes:
            runs.append(
                await _cluster_run(n, events, seed, None, scenario="clean")
            )
            if schedule is not None:
                runs.append(
                    await _cluster_run(n, events, seed, schedule, scenario="faults")
                )
        return NetBenchResult(fanout=fanout, runs=runs)

    return asyncio.run(go())
