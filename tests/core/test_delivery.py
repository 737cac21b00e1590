"""Unit tests for the delivery extensions (repro.core.delivery, §8.2/§8.4)."""

from __future__ import annotations

import pytest

from repro.core.delivery import (
    DeliveryLog,
    StabilityEstimator,
    TaggedEvent,
)
from repro.core.errors import ConfigurationError

from ..conftest import make_event


class TestStabilityEstimator:
    def test_zero_rounds_means_unstable(self):
        est = StabilityEstimator(n=100, fanout=10)
        assert est.probability_stable(0) == 0.0
        assert est.coverage_after(0) == pytest.approx(1 / 100)

    def test_monotone_in_rounds(self):
        est = StabilityEstimator(n=100, fanout=10)
        probs = [est.probability_stable(t) for t in range(15)]
        coverage = [est.coverage_after(t) for t in range(15)]
        assert probs == sorted(probs)
        assert coverage == sorted(coverage)

    def test_converges_to_one(self):
        est = StabilityEstimator(n=50, fanout=8)
        assert est.probability_stable(30) > 0.999
        assert est.coverage_after(30) == pytest.approx(1.0, abs=1e-6)

    def test_negative_rounds_clamped(self):
        est = StabilityEstimator(n=10, fanout=3)
        assert est.probability_stable(-1) == 0.0
        assert est.coverage_after(-5) == 0.0

    def test_beyond_horizon_clamped(self):
        est = StabilityEstimator(n=10, fanout=3, max_rounds=5)
        assert est.probability_stable(100) == est.probability_stable(5)

    def test_larger_fanout_stabilizes_faster(self):
        slow = StabilityEstimator(n=200, fanout=2)
        fast = StabilityEstimator(n=200, fanout=20)
        assert fast.probability_stable(5) > slow.probability_stable(5)

    def test_estimate_record(self):
        est = StabilityEstimator(n=100, fanout=10)
        event = make_event()
        estimate = est.estimate(event, 8)
        assert estimate.event is event
        assert estimate.ttl == 8
        assert 0.0 <= estimate.probability_stable <= 1.0
        assert 0.0 <= estimate.expected_coverage <= 1.0

    def test_estimate_all_sorted_by_stability(self):
        est = StabilityEstimator(n=100, fanout=10)
        pending = [(make_event(seq=i), i) for i in range(6)]
        estimates = est.estimate_all(pending)
        probs = [e.probability_stable for e in estimates]
        assert probs == sorted(probs, reverse=True)

    @pytest.mark.parametrize("n,fanout", [(1, 3), (10, 0)])
    def test_rejects_bad_parameters(self, n, fanout):
        with pytest.raises(ConfigurationError):
            StabilityEstimator(n=n, fanout=fanout)


class TestDeliveryLog:
    def test_records_ordered_stream(self):
        log = DeliveryLog()
        log.on_deliver(make_event(payload="a"))
        log.on_deliver(make_event(seq=1, payload="b"))
        assert log.payloads == ["a", "b"]
        assert len(log) == 2

    def test_records_tagged_stream_separately(self):
        log = DeliveryLog()
        log.on_out_of_order(make_event(payload="late"))
        assert len(log) == 0
        assert len(log.tagged) == 1
        assert isinstance(log.tagged[0], TaggedEvent)
        assert not log.tagged[0].in_order
