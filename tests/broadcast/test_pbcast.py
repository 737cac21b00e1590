"""Tests for the Pbcast-style stability-only baseline (repro.broadcast.pbcast)."""

from __future__ import annotations

from repro.broadcast.pbcast import StabilityOrderedProcess
from repro.core import EpToConfig
from repro.core.event import Ball
from repro.experiments.common import ExperimentSpec, run_experiment
from repro.sim import NoDrift

from ..conftest import RecordingTransport, StaticPeerSampler, make_event


def build_process(ttl=2, fanout=2):
    config = EpToConfig(fanout=fanout, ttl=ttl, clock="logical")
    delivered: list = []
    process = StabilityOrderedProcess(
        node_id=0,
        config=config,
        peer_sampler=StaticPeerSampler([1, 2]),
        transport=RecordingTransport(),
        on_deliver=delivered.append,
    )
    return process, delivered


class TestStabilityDelivery:
    def test_delivers_after_stability_delay(self):
        process, delivered = build_process(ttl=2)
        process.on_ball(Ball.of([(make_event(src=1, ts=5), 0)]))
        process.on_round()
        process.on_round()
        assert delivered == []
        process.on_round()  # aged past TTL
        assert len(delivered) == 1

    def test_stable_batch_delivered_in_timestamp_order(self):
        process, delivered = build_process(ttl=1)
        ball = Ball.of(
            [
                (make_event(src=2, ts=9), 0),
                (make_event(src=1, ts=3), 0),
            ]
        )
        process.on_ball(ball)
        for _ in range(3):
            process.on_round()
        assert [e.ts for e in delivered] == [3, 9]

    def test_no_min_queued_guard_by_design(self):
        # A stable late event is delivered even though an earlier,
        # still-aging event is pending — the rule EpTO forbids.
        process, delivered = build_process(ttl=2)
        process.on_ball(Ball.of([(make_event(src=2, ts=10), 1)]))
        process.on_round()  # received: ts=10 at ttl 2
        process.on_ball(Ball.of([(make_event(src=1, ts=1), 0)]))
        process.on_round()  # ts=10 ages to 3 > TTL; ts=1 only at ttl 1
        assert [e.ts for e in delivered] == [10]
        assert process.pending_count == 1

    def test_no_late_discard_by_design(self):
        # A late-arriving earlier event is STILL delivered after it
        # stabilizes — out of order, which is exactly the failure mode
        # the ordering-guard ablation measures.
        process, delivered = build_process(ttl=1)
        process.on_ball(Ball.of([(make_event(src=2, ts=10), 0)]))
        for _ in range(3):
            process.on_round()
        assert [e.ts for e in delivered] == [10]
        process.on_ball(Ball.of([(make_event(src=1, ts=1), 0)]))
        for _ in range(3):
            process.on_round()
        assert [e.ts for e in delivered] == [10, 1]  # order violation

    def test_duplicates_not_redelivered(self):
        process, delivered = build_process(ttl=1)
        ball = Ball.of([(make_event(src=1, ts=1), 0)])
        process.on_ball(ball)
        for _ in range(3):
            process.on_round()
        assert len(delivered) == 1
        process.on_ball(ball)
        for _ in range(3):
            process.on_round()
        assert len(delivered) == 1


class TestVersusEpto:
    def test_order_holds_under_synchrony(self):
        """Under Pbcast's own assumptions (latency below the round
        duration, no drift) stability-only delivery is totally ordered."""
        from repro.sim.latency import FixedLatency

        spec = ExperimentSpec(
            name="pbcast-sync",
            n=16,
            seed=21,
            process_kind="pbcast",
            latency=FixedLatency(10),
            drift_fraction=0.0,
            broadcast_rate=0.2,
            broadcast_rounds=3,
        )
        result = run_experiment(spec)
        assert result.deliveries > 0
        assert not result.report.order_violations

    def test_order_can_break_under_asynchrony_where_epto_holds(self):
        """Same adversarial conditions (heavy-tailed latency far above
        the round duration): EpTO keeps total order, the Pbcast-style
        rule does not — the paper's §7 distinction."""
        from repro.sim.latency import PlanetLabLatency

        violations = {"epto": 0, "pbcast": 0}
        for kind in violations:
            for seed in range(5):
                spec = ExperimentSpec(
                    name=f"async-{kind}-{seed}",
                    n=24,
                    seed=30 + seed,
                    process_kind=kind,
                    latency=PlanetLabLatency(),
                    ttl=4,  # tight stability delay vs ~3x-delta tails
                    broadcast_rate=0.2,
                    broadcast_rounds=4,
                )
                result = run_experiment(spec)
                violations[kind] += len(result.report.order_violations)
        assert violations["epto"] == 0
        assert violations["pbcast"] > 0
