#!/usr/bin/env python
"""Perf-regression harness for the ordering/dissemination hot path.

Times three scenarios and writes the results to ``BENCH_core.json`` at
the repository root:

* ``ordering_round_loop`` — drives the live
  :class:`repro.core.ordering.OrderingComponent` through a
  deterministic schedule at n ∈ {256, 1024, 4096} events and records
  absolute round-loop throughput plus the seeded delivery metrics.
  (The seed implementation this path was originally benchmarked
  against has been retired; its semantics live on as Hypothesis
  properties in ``tests/core/test_ordering_properties.py``.)
* ``encode_fanout`` — micro-benchmark of the encode-once ball fan-out:
  serializing one ball per round versus once per peer at fanout K,
  plus the pooled-buffer variant (``codec.encode_into`` into a shared
  ``bytearray``, the allocation-free path ``UdpNetwork`` ships on)
  versus a fresh ``bytes`` per round.
* ``sim_macro`` — an end-to-end seeded :class:`repro.sim.cluster.SimCluster`
  run; its counters double as the determinism fixture (same seed ⇒
  identical metrics, asserted by ``tests/sim/test_bench_determinism.py``).
* ``sim_journaled`` — the same macro run with a durable
  :mod:`repro.storage` journal under every node, asserted bit-identical
  in round-loop metrics to the journal-free run (journaling must never
  perturb the protocol), with the journal overhead timed alongside.
* ``auth`` — HMAC sign/verify per event (:mod:`repro.auth`,
  docs/SECURITY.md) and the wire cost of authentication: the same ball
  encoded/decoded plain (codec kind 1) versus signed (kind 7).
* ``udp_e2e`` — the real loopback wire path
  (:mod:`repro.experiments.net_bench`): paired fan-out blast to a
  fresh peer sample per round, raw sockets vs asyncio endpoints, full
  EpTO clusters clean and under ``scenarios/standard_drill.json`` with
  delivery-delay CDFs, plus a tracemalloc allocation audit of the
  round loop.
* ``service_bench`` — the multi-topic broadcast service
  (:mod:`repro.experiments.service_bench`): T topics multiplexed over
  one socket/timer per host vs T independent single-topic clusters at
  equal payload volume; the ``speedup`` is datagrams saved by
  cross-topic envelope batching.
* ``lazy_bench`` — eager vs lazy-push dissemination
  (:mod:`repro.experiments.lazy_bench`): the identical seeded workload
  with full-payload balls versus id-only balls plus on-demand payload
  pull; the ``speedup`` is payload bytes-on-wire saved, gated with the
  delivery/agreement checks on both sides.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py              # full run
    PYTHONPATH=src python benchmarks/perf/run_bench.py --check --sizes 256

``--check`` is the CI smoke mode: one small size, one repeat, exit
non-zero only on crash or a metrics mismatch — never on timing, so a
slow shared runner cannot flake the build. Timing numbers in the JSON
are machine-dependent; the ``metrics`` blocks are not.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.analysis.profiling import Timing, speedup, time_callable  # noqa: E402
from workloads import (  # noqa: E402
    BALL_SIZE,
    TTL,
    build_codec_ball,
    build_ordering_schedule,
    new_ordering,
    ordering_metrics,
    run_round_loop,
)

DEFAULT_SIZES = (256, 1024, 4096)
FANOUT = 16
CODEC_ENTRIES = 120

# -- sim_flat scenario (paper-scale flat engine) -----------------------
FLAT_SIZES = (1024, 4096, 16384, 65536)
FLAT_CHECK_SIZES = (256,)
FLAT_EVENTS = 8
FLAT_ROUNDS = 30
FLAT_FANOUT = 8
FLAT_TTL = 12
FLAT_INTERVAL = 20
#: Largest n where the object engine is also run for the speedup and
#: sequence-equality cross-check (beyond this it is simply too slow).
FLAT_OBJECT_COMPARE_MAX = 4096
#: From this n upward the flat run records stats (delays/counts/hashes)
#: instead of full sequences — the configuration paper-scale runs use.
FLAT_STATS_THRESHOLD = 16384


def bench_ordering(n: int, seed: int, repeats: int) -> dict:
    """Round-loop timing of the live ordering component at *n* events.

    The retired seed implementation recorded 3-4x slowdowns over this
    path (see git history / docs/PERFORMANCE.md); with the baseline
    gone, the scenario tracks absolute throughput plus the seeded
    delivery ``metrics`` block that the determinism test pins.
    """
    schedule = build_ordering_schedule(n, seed)

    def run():
        component, delivered = new_ordering()
        run_round_loop(component, schedule)
        return ordering_metrics(component, delivered)

    timing = time_callable(run, label=f"ordering n={n}", repeats=repeats)
    metrics = timing.result
    if metrics["delivered"] <= 0:
        raise AssertionError(f"ordering delivered nothing at n={n}")
    return {
        "optimized": timing.as_dict(),
        "events_per_s": round(n / timing.best) if timing.best else None,
        "metrics": metrics,
    }


def bench_encode_fanout(seed: int, repeats: int) -> dict:
    """Serializing a ball once per round vs once per peer."""
    from repro.runtime import codec

    ball = build_codec_ball(CODEC_ENTRIES, seed)

    def per_peer():
        for _ in range(FANOUT):
            datagram = codec.encode(7, ball)
        return len(datagram)

    def encode_once():
        datagram = codec.encode(7, ball)
        for _ in range(FANOUT):
            pass  # same bytes handed to every peer
        return len(datagram)

    pool = bytearray()

    def encode_pooled():
        view = codec.encode_into(7, ball, pool)
        for _ in range(FANOUT):
            pass  # same pooled view handed to every peer
        return len(view)

    per_peer_t = time_callable(per_peer, label="encode per peer", repeats=repeats)
    once_t = time_callable(encode_once, label="encode once", repeats=repeats)
    pooled_t = time_callable(encode_pooled, label="encode pooled", repeats=repeats)
    if pooled_t.result != once_t.result:
        raise AssertionError(
            f"pooled encode produced {pooled_t.result} bytes, "
            f"fresh encode {once_t.result}"
        )
    return {
        "per_peer": per_peer_t.as_dict(),
        "encode_once": once_t.as_dict(),
        "encode_pooled": pooled_t.as_dict(),
        "speedup": round(speedup(per_peer_t, once_t), 2),
        "pooled_speedup": round(speedup(once_t, pooled_t), 2),
        "metrics": {
            "fanout": FANOUT,
            "entries": CODEC_ENTRIES,
            "datagram_bytes": once_t.result,
        },
    }


def _sim_macro_run(seed: int, storage_dir=None, storage_fsync: str = "never"):
    """One seeded macro cluster run; journaled when *storage_dir* is set."""
    from repro.core.config import EpToConfig
    from repro.sim.cluster import ClusterConfig, SimCluster
    from repro.sim.engine import Simulator
    from repro.sim.network import SimNetwork

    nodes, broadcasts = 24, 40
    sim = Simulator(seed=seed)
    network = SimNetwork(sim)
    config = ClusterConfig(
        epto=EpToConfig(fanout=4, ttl=12, round_interval=10),
        expected_size=nodes,
    )
    cluster = SimCluster(
        sim,
        network,
        config,
        storage_dir=storage_dir,
        storage_fsync=storage_fsync,
    )
    cluster.add_nodes(nodes)
    rng = sim.fork_rng("bench.broadcast")
    for i in range(broadcasts):
        sim.schedule_at(
            5 + i * 7,
            lambda: cluster.broadcast_from(cluster.random_alive(rng)),
        )
    sim.run(until=5 + broadcasts * 7 + 4 * 12 * 10)
    journal_records = sum(
        journal.stats.recorded + journal.stats.markers
        for journal in cluster.journals.values()
    )
    for journal in cluster.journals.values():
        journal.close()
    return {
        "broadcasts": cluster.collector.broadcast_count,
        "deliveries": cluster.collector.delivery_count,
        "messages_sent": network.stats.sent,
        "messages_delivered": network.stats.delivered,
    }, journal_records


def bench_sim_macro(seed: int, repeats: int) -> dict:
    """End-to-end simulated cluster run (seeded, fully deterministic)."""

    def run():
        metrics, _ = _sim_macro_run(seed)
        return metrics

    timing = time_callable(run, label="sim_macro", repeats=repeats)
    return {"timing": timing.as_dict(), "metrics": timing.result}


def bench_sim_journaled(seed: int, repeats: int, plain_metrics: dict) -> dict:
    """The macro run with a :mod:`repro.storage` journal under each node.

    Asserts the journaled run's protocol metrics are bit-identical to
    *plain_metrics* (the journal-free run): durable logging must
    observe the run, never steer it. The timing delta against
    ``sim_macro`` is the measured journal overhead.
    """
    import shutil
    import tempfile

    def run():
        root = tempfile.mkdtemp(prefix="epto-bench-journal-")
        try:
            return _sim_macro_run(seed, storage_dir=root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    timing = time_callable(run, label="sim_journaled", repeats=repeats)
    metrics, journal_records = timing.result
    if metrics != plain_metrics:
        raise AssertionError(
            f"journaling perturbed the run: journaled={metrics} "
            f"plain={plain_metrics}"
        )
    return {
        "timing": timing.as_dict(),
        "metrics": dict(metrics, journal_records=journal_records),
    }


def bench_auth(seed: int, repeats: int) -> dict:
    """Event authentication cost: sign/verify plus the signed-ball codec.

    Times HMAC signing and verification per event
    (:class:`repro.auth.authenticator.HmacAuthenticator` over the
    canonical event bytes), then the wire cost of authentication:
    encode/decode of the same :data:`CODEC_ENTRIES`-entry ball plain
    (codec kind 1) versus signed (kind 7, one 16-byte MAC per entry).
    The verify pass must accept every genuine signature and the signed
    round-trip must preserve ball and signatures bit-exactly — the
    harness aborts otherwise. ``overhead_factor`` entries are the
    slowdowns of the signed path over the plain one; ``metrics`` has
    the datagram growth.
    """
    from repro.auth import BallGuard, HmacAuthenticator, KeyRing, SignedBall
    from repro.runtime import codec

    authenticator = HmacAuthenticator(KeyRing(f"bench:{seed}"))
    ball = build_codec_ball(CODEC_ENTRIES, seed)
    events = list(ball.events.values())
    signatures = [authenticator.sign(event) for event in events]

    def sign_all():
        verdicts = 0
        for event in events:
            authenticator.sign(event)
            verdicts += 1
        return verdicts

    def verify_all():
        accepted = 0
        for event, signature in zip(events, signatures):
            if authenticator.verify(event, signature) == "ok":
                accepted += 1
        return accepted

    sign_t = time_callable(sign_all, label="auth sign", repeats=repeats)
    verify_t = time_callable(verify_all, label="auth verify", repeats=repeats)
    if verify_t.result != CODEC_ENTRIES:
        raise AssertionError(
            f"verify rejected genuine signatures: accepted "
            f"{verify_t.result}/{CODEC_ENTRIES}"
        )

    guard = BallGuard(authenticator)
    for event in events:
        guard.seal(event.source_id, ball)
    signed = guard.attach(ball)
    if any(signature is None for signature in signed.signatures):
        raise AssertionError("guard failed to sign every bench entry")

    def encode_plain():
        return len(codec.encode(7, ball))

    def encode_signed():
        return len(codec.encode(7, signed))

    plain_wire = codec.encode(7, ball)
    signed_wire = codec.encode(7, signed)

    def decode_plain():
        _, message = codec.decode(plain_wire)
        return len(message)

    def decode_signed():
        _, message = codec.decode(signed_wire)
        return len(message.entries)

    _, round_trip = codec.decode(signed_wire)
    if not isinstance(round_trip, SignedBall) or round_trip != signed:
        raise AssertionError("signed ball did not round-trip bit-exactly")

    encode_plain_t = time_callable(
        encode_plain, label="encode plain ball", repeats=repeats
    )
    encode_signed_t = time_callable(
        encode_signed, label="encode signed ball", repeats=repeats
    )
    decode_plain_t = time_callable(
        decode_plain, label="decode plain ball", repeats=repeats
    )
    decode_signed_t = time_callable(
        decode_signed, label="decode signed ball", repeats=repeats
    )
    return {
        "sign": sign_t.as_dict(),
        "verify": verify_t.as_dict(),
        "encode_plain": encode_plain_t.as_dict(),
        "encode_signed": encode_signed_t.as_dict(),
        "decode_plain": decode_plain_t.as_dict(),
        "decode_signed": decode_signed_t.as_dict(),
        "overhead_factor": {
            "encode": round(speedup(encode_signed_t, encode_plain_t), 2),
            "decode": round(speedup(decode_signed_t, decode_plain_t), 2),
        },
        "metrics": {
            "entries": CODEC_ENTRIES,
            "plain_bytes": len(plain_wire),
            "signed_bytes": len(signed_wire),
            "bytes_per_entry_overhead": round(
                (len(signed_wire) - len(plain_wire)) / CODEC_ENTRIES, 2
            ),
        },
    }


def _flat_cluster_config():
    from repro.core.config import EpToConfig
    from repro.sim import ClusterConfig, NoDrift

    return ClusterConfig(
        epto=EpToConfig(
            fanout=FLAT_FANOUT, ttl=FLAT_TTL, round_interval=FLAT_INTERVAL
        ),
        drift=NoDrift(),
    )


def _flat_schedule_broadcasts(sim, cluster, n: int) -> None:
    """The fixed sim_flat workload: FLAT_EVENTS broadcasts, rounds 1-4."""
    for i in range(FLAT_EVENTS):
        sim.schedule_at(
            (1 + i % 4) * FLAT_INTERVAL,
            lambda nd=(i * 37) % n: cluster.broadcast_from(nd),
        )


def _run_flat_once(n: int, seed: int, record: str):
    """One flat-engine run; returns (elapsed_s, metrics, sequences|None)."""
    import time as _time

    from repro.sim import FixedLatency
    from repro.sim.flat import FlatCluster, FlatEngine, FlatNetwork

    sim = FlatEngine(seed=seed)
    network = FlatNetwork(sim, latency=FixedLatency(1))
    cluster = FlatCluster(sim, network, _flat_cluster_config(), record=record)
    _flat_schedule_broadcasts(sim, cluster, n)
    cluster.add_nodes(n)
    start = _time.perf_counter()
    sim.run(until=FLAT_ROUNDS * FLAT_INTERVAL)
    elapsed = _time.perf_counter() - start
    expected = FLAT_EVENTS * n
    if cluster.delivered_total != expected:
        raise AssertionError(
            f"sim_flat n={n}: delivered {cluster.delivered_total}, "
            f"expected {expected} (every node must deliver every event)"
        )
    hashes = cluster.sequence_hashes()
    counts = cluster.delivery_counts()
    if len(set(hashes.values())) != 1 or len(set(counts.values())) != 1:
        raise AssertionError(
            f"sim_flat n={n}: nodes disagree on the delivered sequence"
        )
    metrics = {
        "delivered": cluster.delivered_total,
        "broadcasts": cluster.broadcast_count(),
        "messages_sent": network.stats.sent,
        "messages_delivered": network.stats.delivered,
        "record": record,
    }
    sequences = cluster.sequences() if record == "sequences" else None
    return elapsed, metrics, sequences


def _flat_child(conn, n: int, seed: int, record: str, send_sequences: bool):
    """Subprocess entry: isolated run so ru_maxrss is per-size, not
    the parent's accumulated high-water mark."""
    import resource
    import sys as _sys

    try:
        elapsed, metrics, sequences = _run_flat_once(n, seed, record)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if _sys.platform == "darwin":  # bytes there, KiB on Linux
            rss //= 1024
        metrics["peak_rss_kb"] = rss
        conn.send(("ok", elapsed, metrics, sequences if send_sequences else None))
    except Exception as exc:  # pragma: no cover - crash reporting path
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _run_flat_isolated(n: int, seed: int, record: str, send_sequences: bool):
    """Run one flat size in a child process; returns (elapsed, metrics,
    sequences)."""
    import multiprocessing

    parent, child = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_flat_child, args=(child, n, seed, record, send_sequences)
    )
    process.start()
    child.close()
    try:
        reply = parent.recv()
    finally:
        process.join()
        parent.close()
    if reply[0] != "ok":
        raise AssertionError(f"sim_flat child n={n} failed: {reply[1]}")
    return reply[1], reply[2], reply[3]


def _run_object_once(n: int, seed: int):
    """The identical workload on the object engine, for the cross-check."""
    import time as _time

    from repro.sim import FixedLatency, SimCluster, SimNetwork, Simulator

    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=FixedLatency(1))
    cluster = SimCluster(sim, network, _flat_cluster_config())
    _flat_schedule_broadcasts(sim, cluster, n)
    cluster.add_nodes(n)
    start = _time.perf_counter()
    sim.run(until=FLAT_ROUNDS * FLAT_INTERVAL)
    elapsed = _time.perf_counter() - start
    return elapsed, cluster.collector.sequences()


def bench_sim_flat(flat_sizes, seed: int, repeats: int) -> dict:
    """Paper-scale flat engine: rounds/sec + peak RSS per size, plus an
    object-engine cross-check (bit-identical sequences, speedup) at the
    sizes where the object engine is still tractable.

    Timing note: rounds/sec counts whole-cluster rounds, so it shrinks
    with n by design — compare per-size entries across commits, not
    across sizes. ``peak_rss_kb`` is the child process high-water mark
    (ru_maxrss), measured in an isolated subprocess per size.
    """
    sizes_out = {}
    comparison = {}
    for n in flat_sizes:
        record = "stats" if n >= FLAT_STATS_THRESHOLD else "sequences"
        compare = n <= FLAT_OBJECT_COMPARE_MAX
        runs = 1 if n >= FLAT_STATS_THRESHOLD else min(repeats, 2)
        best = None
        for _ in range(runs):
            elapsed, metrics, sequences = _run_flat_isolated(
                n, seed, record, send_sequences=compare
            )
            if best is None or elapsed < best[0]:
                best = (elapsed, metrics, sequences)
        elapsed, metrics, flat_sequences = best
        rss = metrics.pop("peak_rss_kb")
        sizes_out[f"n{n}"] = {
            "elapsed_s": round(elapsed, 4),
            "rounds_per_sec": round(FLAT_ROUNDS / elapsed, 3),
            "node_rounds_per_sec": round(FLAT_ROUNDS * n / elapsed, 1),
            "peak_rss_kb": rss,
            "metrics": metrics,
        }
        print(
            f"  n={n}: {elapsed:7.2f}s  "
            f"{FLAT_ROUNDS / elapsed:8.2f} rounds/s  rss {rss // 1024} MB",
            flush=True,
        )
        if compare:
            object_best = None
            object_sequences = None
            for _ in range(min(repeats, 2)):
                object_elapsed, object_sequences = _run_object_once(n, seed)
                if object_best is None or object_elapsed < object_best:
                    object_best = object_elapsed
            if object_sequences != flat_sequences:
                raise AssertionError(
                    f"sim_flat n={n}: flat and object engines diverged "
                    "(differential harness invariant broken)"
                )
            comparison[f"n{n}"] = {
                "object_s": round(object_best, 4),
                "flat_s": round(elapsed, 4),
                "speedup": round(object_best / elapsed, 2),
                "sequences_match": True,
            }
            print(
                f"         object {object_best:7.2f}s  "
                f"speedup {object_best / elapsed:.2f}x  sequences match",
                flush=True,
            )
    return {
        "config": {
            "fanout": FLAT_FANOUT,
            "ttl": FLAT_TTL,
            "round_interval": FLAT_INTERVAL,
            "events": FLAT_EVENTS,
            "rounds": FLAT_ROUNDS,
            "latency_ticks": 1,
            "stats_record_from_n": FLAT_STATS_THRESHOLD,
        },
        "sizes": sizes_out,
        "object_comparison": comparison,
        "rss_note": (
            "ru_maxrss of an isolated child process per size "
            "(KiB; process high-water mark)"
        ),
    }


# -- udp_e2e scenario (real loopback wire path) ------------------------
NET_SIZES = (8, 16)
NET_CHECK_SIZES = (6,)
NET_EVENTS = 6
NET_CHECK_EVENTS = 4
NET_BLAST_ROUNDS = 400
NET_CHECK_BLAST_ROUNDS = 100
#: Fan-out rounds driven under tracemalloc for the allocation audit.
ALLOC_AUDIT_ROUNDS = 300


def _alloc_audit(seed: int, rounds: int) -> dict:
    """tracemalloc audit of the fan-out round loop.

    Drives *rounds* encode-once ``send_many`` fan-outs on a raw-socket
    :class:`~repro.runtime.udp.UdpNetwork` with tracemalloc on and
    reports Python-heap churn per round plus the top allocation sites.
    The wire path is engineered to keep nothing at steady state
    (pooled encode buffer, one receive arena read through zero-copy
    views); this audit is the regression
    instrument for that property.
    """
    import asyncio
    import tracemalloc

    from repro.core.event import Ball, Event
    from repro.runtime.udp import UdpNetwork

    async def audit() -> dict:
        network = UdpNetwork(seed=seed)
        peers = list(range(1, 17))
        for nid in [0] + peers:
            network.register(nid, lambda src, msg: None)
        await network.open_all()
        ball = Ball.of([(Event(id=(0, 0), ts=1, source_id=0, payload="audit"), 4)])
        for _ in range(10):  # steady state before measuring
            network.send_many(0, peers, ball)
        tracemalloc.start(5)
        before = tracemalloc.take_snapshot()
        for _ in range(rounds):
            network.send_many(0, peers, ball)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        await network.close()

        diffs = after.compare_to(before, "lineno")
        grown = [
            d
            for d in diffs
            if d.size_diff > 0
            # The tracer's own bookkeeping is not wire-path churn.
            and not d.traceback[0].filename.endswith("tracemalloc.py")
        ]
        grown.sort(key=lambda d: d.size_diff, reverse=True)
        top = []
        for diff in grown[:8]:
            frame = diff.traceback[0]
            filename = frame.filename
            marker = f"{Path('src') / 'repro'}"
            if marker in filename:
                filename = "src/repro" + filename.split(marker, 1)[1]
            top.append(
                {
                    "site": f"{filename}:{frame.lineno}",
                    "kb": round(diff.size_diff / 1024, 2),
                    "blocks": diff.count_diff,
                }
            )
        total = sum(d.size_diff for d in grown)
        return {
            "rounds": rounds,
            "fanout": len(peers),
            "heap_growth_bytes": total,
            "bytes_per_round": round(total / rounds, 2),
            "top_sites": top,
        }

    return asyncio.run(audit())


def bench_udp_e2e(seed: int, check: bool) -> dict:
    """udp_e2e — the real loopback wire path, end to end.

    Wraps :func:`repro.experiments.net_bench.run_net_bench`: the paired
    raw-socket vs asyncio-endpoint fan-out blast, full EpTO clusters
    clean and under ``scenarios/standard_drill.json``, and the
    tracemalloc allocation audit of the round loop. Aborts if any cluster
    run misses delivery or total order — those are correctness gates;
    timing numbers are recorded, never asserted here (the committed
    ``speedup`` value is what ``check_regression.py`` pins).
    """
    from repro.experiments.net_bench import run_net_bench
    from repro.faults.schedule import FaultSchedule

    drill = FaultSchedule.from_json(
        (REPO_ROOT / "scenarios" / "standard_drill.json").read_text()
    )
    result = run_net_bench(
        seed=seed,
        schedule=drill,
        sizes=NET_CHECK_SIZES if check else NET_SIZES,
        events=NET_CHECK_EVENTS if check else NET_EVENTS,
        blast_rounds=NET_CHECK_BLAST_ROUNDS if check else NET_BLAST_ROUNDS,
    )
    if not result.exit_ok:
        failed = [
            f"n={run.n}[{run.scenario}]"
            for run in result.runs
            if not (run.delivered and run.ordered)
        ]
        raise AssertionError(f"udp_e2e delivery/order failed: {failed}")

    fanout = result.fanout
    runs_out = {}
    for run in result.runs:
        summary = run.delay_summary
        entry = {
            "events": run.events,
            "delivered": run.delivered,
            "ordered": run.ordered,
            "elapsed_s": round(run.seconds, 4),
            "events_per_sec": round(run.events_per_second, 2),
            "datagrams_sent": run.datagrams_sent,
            "syscalls_send": run.syscalls_send,
            "syscalls_recv": run.syscalls_recv,
            "send_syscalls_per_node_round": round(run.syscalls_per_round, 3),
            "bytes_sent": run.bytes_sent,
            "bytes_received": run.bytes_received,
        }
        if summary is not None:
            entry["delay_ms"] = {
                "p50": round(summary.p50, 2),
                "p95": round(summary.p95, 2),
                "p99": round(summary.p99, 2),
                "max": round(summary.maximum, 2),
                "samples": summary.count,
            }
            entry["delay_cdf"] = [
                [round(ms, 2), round(pct, 2)] for ms, pct in run.delay_cdf()
            ]
        runs_out[f"n{run.n}_{run.scenario}"] = entry

    return {
        "fanout_blast": {
            "datagrams": fanout.datagrams,
            "bytes_per_datagram": fanout.bytes_per_datagram,
            "raw_rate_dgram_s": round(fanout.raw_rate),
            "raw_syscalls": fanout.raw_syscalls,
            "asyncio_rate_dgram_s": round(fanout.asyncio_rate),
            "asyncio_syscalls": fanout.asyncio_syscalls,
            "speedup": round(fanout.speedup, 2),
        },
        "runs": runs_out,
        "allocation": _alloc_audit(
            seed, rounds=100 if check else ALLOC_AUDIT_ROUNDS
        ),
        "fault_scenario": "scenarios/standard_drill.json",
    }


def bench_service(seed: int, check: bool) -> dict:
    """service_bench — cross-topic batching on the real wire.

    Wraps :func:`repro.experiments.service_bench.run_service_bench`:
    T topics multiplexed over one socket and one round timer per host
    versus T independent single-topic clusters at equal payload volume.
    Aborts if either side misses delivery or per-topic total order; the
    committed ``speedup`` (datagrams separate / multiplexed) is what
    ``check_regression.py --require scenarios.service_bench`` pins.
    """
    from repro.experiments.service_bench import run_service_bench

    if check:
        result = run_service_bench(seed=seed, n=4, topics=2, events=3)
    else:
        result = run_service_bench(seed=seed)
    if not result.exit_ok:
        raise AssertionError(
            "service_bench delivery/order failed: "
            f"multiplexed={result.multiplexed.delivered}/"
            f"{result.multiplexed.ordered} "
            f"separate={result.separate.delivered}/{result.separate.ordered}"
        )
    return result.as_dict()


def bench_lazy(seed: int, check: bool) -> dict:
    """lazy_bench — eager vs lazy-push dissemination, identical workload.

    Wraps :func:`repro.experiments.lazy_bench.run_lazy_bench`: the same
    seeded broadcast workload once with full-payload balls and once
    with id-only balls plus on-demand payload pull (docs/OVERLAY.md).
    Aborts if either side misses delivery or total-order agreement; the
    committed ``speedup`` (payload bytes-on-wire, eager / lazy) is what
    ``check_regression.py --require scenarios.lazy_bench`` pins.
    """
    from repro.experiments.lazy_bench import run_lazy_bench

    if check:
        result = run_lazy_bench(
            seed=seed, n=16, fanout=4, rounds=3, payload_size=128
        )
    else:
        result = run_lazy_bench(seed=seed)
    if not result.exit_ok:
        raise AssertionError(
            "lazy_bench delivery/agreement/speedup failed: "
            f"eager delivered={result.eager.delivered} "
            f"holes={result.eager.holes} "
            f"lazy delivered={result.lazy.delivered} "
            f"holes={result.lazy.holes} "
            f"speedup={result.speedup:.2f}"
        )
    return result.as_dict()


FSYNC_EVENTS = 400
FSYNC_SEGMENT_BYTES = 16_384


def bench_fsync_policies(seed: int, repeats: int) -> dict:
    """Durability cost curve: journal appends under each fsync policy.

    Appends the same :data:`FSYNC_EVENTS` delivery records through a
    :class:`repro.storage.journal.DeliveryJournal` once per policy in
    :data:`repro.storage.log.FSYNC_POLICIES` — ``never`` (leave it to
    the OS), ``rotate`` (fsync at segment rotation; the small
    :data:`FSYNC_SEGMENT_BYTES` threshold makes rotation actually
    happen), ``always`` (fsync every append). Every policy must land
    the identical record count; only the timings differ. The spread is
    the price of the crash-recovery guarantees docs/STORAGE.md
    tabulates (and what anti-entropy sync reads back, docs/SYNC.md).
    """
    import shutil
    import tempfile

    from repro.core.event import Event
    from repro.storage.journal import DeliveryJournal
    from repro.storage.log import FSYNC_POLICIES

    def run(policy: str):
        root = tempfile.mkdtemp(prefix=f"epto-bench-fsync-{policy}-")
        try:
            journal = DeliveryJournal(
                root, fsync=policy, segment_max_bytes=FSYNC_SEGMENT_BYTES
            )
            recorded = 0
            for i in range(FSYNC_EVENTS):
                event = Event(
                    id=(i % 8, i // 8),
                    ts=seed + i,
                    source_id=i % 8,
                    payload={"n": i},
                )
                if journal.record_delivery(event):
                    recorded += 1
            segments = journal.log.stats.segments_created
            journal.close()
            return {"recorded": recorded, "segments": segments}
        finally:
            shutil.rmtree(root, ignore_errors=True)

    timings = {}
    metrics = None
    for policy in FSYNC_POLICIES:
        timing = time_callable(
            lambda policy=policy: run(policy),
            label=f"fsync[{policy}]",
            repeats=repeats,
        )
        timings[policy] = timing
        if metrics is None:
            metrics = timing.result
        elif timing.result != metrics:
            raise AssertionError(
                f"fsync policy {policy!r} changed the journal contents: "
                f"{timing.result} != {metrics}"
            )
    baseline = timings["never"]
    return {
        **{policy: timing.as_dict() for policy, timing in timings.items()},
        "cost_vs_never": {
            policy: round(speedup(timings[policy], baseline), 2)
            for policy in FSYNC_POLICIES
            if policy != "never"
        },
        "metrics": dict(metrics, events=FSYNC_EVENTS),
    }


def run_all(sizes, seed: int, repeats: int, flat_sizes, check: bool = False) -> dict:
    results = {
        "schema": 1,
        "seed": seed,
        "repeats": repeats,
        "config": {"ttl": TTL, "ball_size": BALL_SIZE},
        "scenarios": {
            "ordering_round_loop": {},
            "encode_fanout": None,
            "sim_macro": None,
            "sim_journaled": None,
            "sim_flat": None,
            "fsync_policies": None,
            "auth": None,
            "udp_e2e": None,
            "service_bench": None,
            "lazy_bench": None,
        },
    }
    for n in sizes:
        print(f"ordering_round_loop n={n} ...", flush=True)
        entry = bench_ordering(n, seed, repeats)
        results["scenarios"]["ordering_round_loop"][f"n{n}"] = entry
        print(
            f"  round loop {entry['optimized']['best_s'] * 1e3:8.2f} ms   "
            f"{entry['events_per_s']:,} events/s"
        )
    print("encode_fanout ...", flush=True)
    results["scenarios"]["encode_fanout"] = bench_encode_fanout(seed, repeats)
    print(
        f"  speedup {results['scenarios']['encode_fanout']['speedup']:.2f}x   "
        f"pooled {results['scenarios']['encode_fanout']['pooled_speedup']:.2f}x"
    )
    print("sim_macro ...", flush=True)
    results["scenarios"]["sim_macro"] = bench_sim_macro(seed, repeats)
    print(f"  {results['scenarios']['sim_macro']['metrics']}")
    print("sim_journaled ...", flush=True)
    results["scenarios"]["sim_journaled"] = bench_sim_journaled(
        seed, repeats, results["scenarios"]["sim_macro"]["metrics"]
    )
    print(f"  {results['scenarios']['sim_journaled']['metrics']}")
    print("sim_flat ...", flush=True)
    results["scenarios"]["sim_flat"] = bench_sim_flat(flat_sizes, seed, repeats)
    print("fsync_policies ...", flush=True)
    results["scenarios"]["fsync_policies"] = bench_fsync_policies(seed, repeats)
    print(f"  cost_vs_never {results['scenarios']['fsync_policies']['cost_vs_never']}")
    print("auth ...", flush=True)
    results["scenarios"]["auth"] = bench_auth(seed, repeats)
    print(
        f"  overhead {results['scenarios']['auth']['overhead_factor']}   "
        f"{results['scenarios']['auth']['metrics']}"
    )
    print("udp_e2e ...", flush=True)
    udp = bench_udp_e2e(seed, check)
    results["scenarios"]["udp_e2e"] = udp
    blast = udp["fanout_blast"]
    print(
        f"  blast raw sockets "
        f"{blast['raw_rate_dgram_s']:,} dgram/s vs "
        f"{blast['asyncio_rate_dgram_s']:,} asyncio endpoints "
        f"(speedup {blast['speedup']:.2f}x)   "
        f"alloc {udp['allocation']['bytes_per_round']} B/round"
    )
    print("service_bench ...", flush=True)
    svc = bench_service(seed, check)
    results["scenarios"]["service_bench"] = svc
    print(
        f"  {svc['topics']} topics x {svc['n']} hosts: "
        f"{svc['multiplexed']['datagrams']} datagrams multiplexed vs "
        f"{svc['separate']['datagrams']} separate "
        f"(speedup {svc['speedup']:.2f}x, "
        f"{svc['multiplexed']['frames_per_datagram']:.2f} frames/dgram)"
    )
    print("lazy_bench ...", flush=True)
    lazy = bench_lazy(seed, check)
    results["scenarios"]["lazy_bench"] = lazy
    print(
        f"  n={lazy['n']} K={lazy['fanout']}: "
        f"{lazy['eager']['payload_bytes']:,} payload B eager vs "
        f"{lazy['lazy']['payload_bytes']:,} lazy "
        f"(speedup {lazy['speedup']:.2f}x, "
        f"p95 delay penalty {lazy['delay_penalty']:.2f}x)"
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=None,
        help="comma-separated event counts (default: 256,1024,4096; --check: 256)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (default 3; --check: 1)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI smoke mode: small, single repeat, fail on crash not timing",
    )
    parser.add_argument(
        "--flat-sizes",
        default=None,
        help=(
            "comma-separated node counts for sim_flat "
            "(default: 1024,4096,16384,65536; --check: 256)"
        ),
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_core.json"),
        help="where to write the results JSON",
    )
    args = parser.parse_args(argv)

    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    else:
        sizes = (256,) if args.check else DEFAULT_SIZES
    repeats = args.repeats if args.repeats is not None else (1 if args.check else 3)
    if args.flat_sizes:
        flat_sizes = tuple(int(s) for s in args.flat_sizes.split(","))
    else:
        flat_sizes = FLAT_CHECK_SIZES if args.check else FLAT_SIZES

    results = run_all(sizes, args.seed, repeats, flat_sizes, check=args.check)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
