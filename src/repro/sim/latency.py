"""End-to-end latency models (paper §6, Figure 5).

The paper draws message latencies from a sample of 226 geographically
dispersed PlanetLab nodes (Figure 5): mean ≈ 157 ticks, standard
deviation ≈ 119, and 5th/50th/95th percentiles of 15, 125 and 366
ticks. We do not have the raw trace, so :class:`PlanetLabLatency`
synthesizes an equivalent distribution — a mixture of a small
low-latency component (nearby nodes) and a log-normal body with a heavy
tail — whose parameters were fitted to those published statistics. The
simulation consumes only latency *samples*, so matching the summary
statistics preserves the behaviour the experiments exercise (most links
comfortably below the round duration ``delta = 125``, a tail up to
several times ``delta``).

All models return integer tick latencies ``>= 1`` (a message can never
arrive at the tick it was sent, keeping causality trivially visible in
traces).
"""

from __future__ import annotations

import math
import random
from typing import Protocol, Sequence, runtime_checkable

from ..core.errors import ConfigurationError


@runtime_checkable
class LatencyModel(Protocol):
    """Samples one-way message latencies in ticks."""

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        """Latency in ticks for one message from *src* to *dst*."""
        ...


class FixedLatency:
    """Constant latency — handy for deterministic unit tests."""

    def __init__(self, ticks: int) -> None:
        if ticks < 1:
            raise ConfigurationError(f"latency must be >= 1 tick, got {ticks}")
        self.ticks = ticks

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        return self.ticks


class UniformLatency:
    """Uniformly distributed latency over ``[low, high]`` ticks."""

    def __init__(self, low: int, high: int) -> None:
        if not 1 <= low <= high:
            raise ConfigurationError(f"need 1 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        return rng.randint(self.low, self.high)


class LogNormalLatency:
    """Log-normally distributed latency, the classic WAN heavy tail.

    Args:
        mu: Location parameter (log-scale).
        sigma: Shape parameter (log-scale).
        cap: Optional hard upper bound in ticks, to keep pathological
            samples from stalling a simulation.
    """

    def __init__(self, mu: float, sigma: float, cap: int | None = None) -> None:
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be > 0, got {sigma}")
        if cap is not None and cap < 1:
            raise ConfigurationError(f"cap must be >= 1, got {cap}")
        self.mu = mu
        self.sigma = sigma
        self.cap = cap

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        value = int(round(rng.lognormvariate(self.mu, self.sigma)))
        if self.cap is not None and value > self.cap:
            value = self.cap
        return max(1, value)


class EmpiricalLatency:
    """Resamples latencies uniformly from a supplied trace.

    Use this when an actual latency trace is available; the Figure 5
    reproduction uses :class:`PlanetLabLatency` instead because the
    paper's trace is not published.
    """

    def __init__(self, samples: Sequence[int]) -> None:
        if not samples:
            raise ConfigurationError("empirical latency needs at least one sample")
        cleaned = [max(1, int(s)) for s in samples]
        self._samples = cleaned

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        return rng.choice(self._samples)

    @property
    def trace(self) -> Sequence[int]:
        """The (cleaned) backing samples."""
        return tuple(self._samples)


class PlanetLabLatency:
    """Synthetic stand-in for the paper's PlanetLab trace (Figure 5).

    A two-component mixture:

    * with probability ``P_NEAR`` (10%), a short uniform latency in
      ``[5, 30]`` ticks — the nearby-node mass that puts the 5th
      percentile at ≈ 15 ticks;
    * otherwise, a log-normal body ``LogNormal(MU, SIGMA)`` fitted so
      the mixture matches the published median (≈ 125), 95th percentile
      (≈ 366), mean (≈ 157) and standard deviation (≈ 119).

    Samples are capped at ``CAP`` (800 ticks, the figure's x-axis
    limit) — about 6.4x the round duration, matching the paper's "up
    to six times the round duration in the worst case".
    """

    #: Fitted constants (see class docstring; validated by the Figure 5
    #: benchmark and tests/sim/test_latency.py).
    P_NEAR = 0.10
    NEAR_LOW = 5
    NEAR_HIGH = 30
    MU = 4.915
    SIGMA = 0.62
    CAP = 800

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        if rng.random() < self.P_NEAR:
            return rng.randint(self.NEAR_LOW, self.NEAR_HIGH)
        value = int(round(rng.lognormvariate(self.MU, self.SIGMA)))
        return max(1, min(self.CAP, value))

    def percentiles(self, rng: random.Random, points: Sequence[float], draws: int = 20000) -> list[float]:
        """Monte-Carlo percentile estimates (used by tests/benchmarks)."""
        samples = sorted(self.sample(rng, 0, 1) for _ in range(draws))
        result = []
        for p in points:
            idx = min(len(samples) - 1, max(0, int(p / 100.0 * len(samples))))
            result.append(float(samples[idx]))
        return result


def make_latency_model(name: str, **kwargs: object) -> LatencyModel:
    """Build a latency model by name.

    Recognized names: ``fixed``, ``uniform``, ``lognormal``,
    ``empirical``, ``planetlab``.
    """
    factories = {
        "fixed": FixedLatency,
        "uniform": UniformLatency,
        "lognormal": LogNormalLatency,
        "empirical": EmpiricalLatency,
        "planetlab": PlanetLabLatency,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown latency model {name!r}; choose from {sorted(factories)}"
        ) from None
    return factory(**kwargs)  # type: ignore[arg-type]
