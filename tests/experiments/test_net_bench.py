"""Tests for the udp_e2e end-to-end network benchmark
(:mod:`repro.experiments.net_bench`).

The benchmark is the measurement instrument the committed
BENCH_core.json numbers come from, so these tests pin its *semantics*
— delivery/order gating, syscall accounting, CDF shape, fault-scenario
plumbing — never its timings (a loaded CI runner must not flake the
build).
"""

from __future__ import annotations

import pytest

from repro.experiments.net_bench import (
    ClusterRun,
    FanoutThroughput,
    NetBenchResult,
    _BLAST_CHUNK,
    _BLAST_FANOUT,
    _BLAST_PEERS,
    _cluster_config,
    run_net_bench,
)
from repro.experiments.registry import get_experiment
from repro.faults.schedule import FaultSchedule, LossBurst

BLAST_ROUNDS = 2 * _BLAST_CHUNK  # two paired chunks: fast but real


@pytest.fixture(scope="module")
def clean_result() -> NetBenchResult:
    """One small clean run shared by the read-only assertions."""
    return run_net_bench(
        seed=5, sizes=(5,), events=3, blast_rounds=BLAST_ROUNDS
    )


class TestFanoutBlast:
    def test_records_both_sides(self, clean_result) -> None:
        fanout = clean_result.fanout
        assert fanout.datagrams == BLAST_ROUNDS * _BLAST_FANOUT
        assert fanout.raw_seconds > 0
        assert fanout.asyncio_seconds > 0
        assert fanout.speedup == pytest.approx(
            fanout.asyncio_seconds / fanout.raw_seconds
        )
        assert fanout.bytes_per_datagram > 0

    def test_syscall_accounting(self, clean_result) -> None:
        fanout = clean_result.fanout
        # Either side: one sendto per datagram, exactly.
        assert fanout.asyncio_syscalls == fanout.datagrams
        assert fanout.raw_syscalls == fanout.datagrams

    def test_every_round_draws_a_fresh_sample(self, monkeypatch) -> None:
        """The blast sends what EpTO sends: K of the n-1 peers, drawn
        anew each round and the same on both sides."""
        from repro.runtime.udp import UdpNetwork

        seen = {}
        real = UdpNetwork.send_many

        def recording(network, src, dsts, message):
            seen.setdefault(id(network), []).append(tuple(dsts))
            return real(network, src, dsts, message)

        monkeypatch.setattr(UdpNetwork, "send_many", recording)
        run_net_bench(seed=5, sizes=(), events=0, blast_rounds=_BLAST_CHUNK)
        raw, reference = (calls[1:] for calls in seen.values())  # [0]: warm-up
        assert raw == reference
        one_pass = raw[:_BLAST_CHUNK]
        assert all(len(set(dsts)) == _BLAST_FANOUT for dsts in one_pass)
        assert all(set(dsts) <= set(range(1, _BLAST_PEERS + 1)) for dsts in one_pass)
        assert len(set(one_pass)) == _BLAST_CHUNK  # no round repeats another


class TestClusterRuns:
    def test_clean_run_delivers_and_orders(self, clean_result) -> None:
        (run,) = clean_result.runs
        assert run.scenario == "clean"
        assert run.n == 5
        assert run.delivered and run.ordered
        assert clean_result.exit_ok

    def test_wire_accounting(self, clean_result) -> None:
        (run,) = clean_result.runs
        assert run.datagrams_sent > 0
        assert run.syscalls_send > 0
        assert run.bytes_sent > 0
        # Loopback without injected faults loses nothing.
        assert run.bytes_received == run.bytes_sent
        # One sendto per datagram, one recv_into per datagram.
        assert run.syscalls_send == run.datagrams_sent
        assert run.syscalls_recv == run.datagrams_delivered

    def test_delay_cdf_shape(self, clean_result) -> None:
        (run,) = clean_result.runs
        assert run.delays_ms, "every broadcast must yield delay samples"
        cdf = run.delay_cdf()
        values = [ms for ms, _ in cdf]
        percents = [pct for _, pct in cdf]
        assert values == sorted(values)
        assert percents == sorted(percents)
        assert percents[-1] == pytest.approx(100.0)
        summary = run.delay_summary
        assert summary is not None
        assert summary.p50 <= summary.p95 <= summary.maximum

    def test_render_mentions_verdict_and_speedup(self, clean_result) -> None:
        text = clean_result.render()
        assert "verdict: OK" in text
        assert "speedup" in text
        assert "n=5 [clean]" in text


class TestFaultScenario:
    def test_schedule_adds_fault_runs(self) -> None:
        schedule = FaultSchedule(
            [LossBurst(at_round=1.0, rate=0.3, duration=2.0)]
        )
        result = run_net_bench(
            seed=5,
            sizes=(5,),
            events=3,
            blast_rounds=BLAST_ROUNDS,
            schedule=schedule,
        )
        assert [run.scenario for run in result.runs] == ["clean", "faults"]
        assert all(run.delivered and run.ordered for run in result.runs)
        assert result.exit_ok


class TestConfigAndRegistry:
    def test_cluster_config_scales_fanout(self) -> None:
        assert _cluster_config(5).fanout == 3  # floor
        assert _cluster_config(16).fanout == 5
        assert _cluster_config(100).fanout == 6  # cap
        for n in (5, 16, 100):
            config = _cluster_config(n)
            assert config.ttl == 2 * config.fanout

    def test_registered_with_fault_plumbing(self) -> None:
        entry = get_experiment("net-bench")
        assert entry.runner is run_net_bench
        assert entry.takes_faults
        assert entry.takes_scale

    def test_exit_ok_gates_on_order_not_timing(self) -> None:
        fanout = FanoutThroughput(
            datagrams=1,
            raw_seconds=999.0,  # terrible timing must not gate
            raw_syscalls=1,
            asyncio_seconds=1.0,
            asyncio_syscalls=1,
            bytes_per_datagram=1,
        )
        good = ClusterRun(
            n=2, scenario="clean", events=1, delivered=True, ordered=True,
            seconds=1.0, rounds=1.0, datagrams_sent=1, datagrams_delivered=1,
            syscalls_send=1, syscalls_recv=1, bytes_sent=1, bytes_received=1,
            delays_ms=[1.0],
        )
        bad = ClusterRun(
            n=2, scenario="clean", events=1, delivered=True, ordered=False,
            seconds=1.0, rounds=1.0, datagrams_sent=1, datagrams_delivered=1,
            syscalls_send=1, syscalls_recv=1, bytes_sent=1, bytes_received=1,
            delays_ms=[1.0],
        )
        assert NetBenchResult(fanout, [good]).exit_ok
        assert not NetBenchResult(fanout, [bad]).exit_ok
        assert "verdict: FAILED" in NetBenchResult(fanout, [bad]).render()
