#!/usr/bin/env python
"""Perf-regression harness for the ordering/dissemination hot path.

Times seven scenarios and writes the results to ``BENCH_core.json`` at
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
* ``sim_flat`` — the flat engine at paper-scale n: rounds/s and peak
  RSS per size, cross-checked against the object engine (identical
  delivery sequences, ``speedup``) where that one is still tractable.
* ``fsync_policies`` — journal appends under each fsync policy, the
  durability cost curve.
* ``auth`` — HMAC sign/verify per event (:mod:`repro.auth`,
  docs/SECURITY.md) and the wire cost of authentication: the same ball
  encoded/decoded plain (codec kind 1) versus signed (kind 7).

Wire cost on real sockets at sustained load is measured by
``benchmarks/e2e``, not here.

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


def run_all(sizes, seed: int, repeats: int, flat_sizes) -> dict:
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

    results = run_all(sizes, args.seed, repeats, flat_sizes)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
