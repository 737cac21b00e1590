"""Unit tests for latency models (repro.sim.latency, paper Figure 5)."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.latency import (
    EmpiricalLatency,
    FixedLatency,
    LogNormalLatency,
    PlanetLabLatency,
    UniformLatency,
    make_latency_model,
)


@pytest.fixture
def rng():
    return random.Random(55)


class TestFixedLatency:
    def test_constant(self, rng):
        model = FixedLatency(17)
        assert {model.sample(rng, 0, 1) for _ in range(10)} == {17}

    def test_rejects_below_one(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(0)


class TestUniformLatency:
    def test_within_bounds(self, rng):
        model = UniformLatency(5, 20)
        samples = [model.sample(rng, 0, 1) for _ in range(500)]
        assert min(samples) >= 5
        assert max(samples) <= 20
        assert len(set(samples)) > 10

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(20, 5)


class TestLogNormalLatency:
    def test_always_at_least_one(self, rng):
        model = LogNormalLatency(mu=0.0, sigma=1.0)
        assert min(model.sample(rng, 0, 1) for _ in range(1000)) >= 1

    def test_cap_enforced(self, rng):
        model = LogNormalLatency(mu=6.0, sigma=1.0, cap=100)
        assert max(model.sample(rng, 0, 1) for _ in range(1000)) <= 100

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError):
            LogNormalLatency(mu=1.0, sigma=0.0)


class TestEmpiricalLatency:
    def test_resamples_from_trace(self, rng):
        model = EmpiricalLatency([10, 20, 30])
        samples = {model.sample(rng, 0, 1) for _ in range(200)}
        assert samples == {10, 20, 30}

    def test_cleans_nonpositive_samples(self, rng):
        model = EmpiricalLatency([0, -5, 10])
        assert set(model.trace) == {1, 10}

    def test_rejects_empty_trace(self):
        with pytest.raises(ConfigurationError):
            EmpiricalLatency([])


class TestPlanetLabLatency:
    """The synthetic trace must match the paper's published statistics
    (Figure 5: mean ~157, std ~119, p5/p50/p95 = 15/125/366)."""

    @pytest.fixture(scope="class")
    def samples(self):
        model = PlanetLabLatency()
        rng = random.Random(5)
        return [model.sample(rng, 0, 1) for _ in range(40000)]

    def test_mean(self, samples):
        assert statistics.fmean(samples) == pytest.approx(157, rel=0.10)

    def test_std(self, samples):
        assert statistics.pstdev(samples) == pytest.approx(119, rel=0.12)

    def test_median(self, samples):
        assert statistics.median(samples) == pytest.approx(125, rel=0.10)

    def test_p5(self, samples):
        ordered = sorted(samples)
        p5 = ordered[int(0.05 * len(ordered))]
        assert 10 <= p5 <= 30  # paper: 15

    def test_p95(self, samples):
        ordered = sorted(samples)
        p95 = ordered[int(0.95 * len(ordered))]
        assert p95 == pytest.approx(366, rel=0.12)

    def test_heavy_tail_exists(self, samples):
        # Paper: "some processes have a very large latency, up to six
        # times the round duration (125)" -- i.e. beyond 700 ticks.
        assert max(samples) > 600

    def test_capped(self, samples):
        assert max(samples) <= PlanetLabLatency.CAP


class TestFactory:
    def test_builds_by_name(self):
        assert isinstance(make_latency_model("fixed", ticks=5), FixedLatency)
        assert isinstance(make_latency_model("planetlab"), PlanetLabLatency)
        assert isinstance(
            make_latency_model("empirical", samples=[1, 2]), EmpiricalLatency
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_latency_model("quantum")
