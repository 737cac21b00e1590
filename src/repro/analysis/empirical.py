"""Empirical hole-probability estimation (paper §8.1).

The paper observes that Theorem 2's bounds "are very loose, and as a
result our bounds for the Probabilistic Agreement property are also
very loose", leaving "way too many balls in the system"; tightening
them is flagged as future work. This module provides the measurement
side of that program: fast Monte-Carlo estimation of the *actual*
per-process miss probability of the balls-and-bins gossip for given
``(n, K, rounds)``, directly comparable with the Figure 3 analytic
bound.

The estimator simulates only the dissemination layer (no engine, no
ordering) so tens of thousands of trials run in seconds, and reports a
Wilson confidence interval — when zero misses are observed, the upper
Wilson limit still yields a useful "at most" statement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence

from ..core.errors import ConfigurationError
from .ballsbins import simulate_gossip_coverage


@dataclass(frozen=True, slots=True)
class HoleEstimate:
    """Monte-Carlo estimate of the per-process miss probability.

    Attributes:
        n: System size.
        fanout: Gossip fanout ``K``.
        rounds: Relay rounds (the TTL).
        trials: Number of simulated disseminations.
        misses: Total (process, event) misses observed.
        exposures: Total (process, event) opportunities
            (``trials * (n - 1)``; the source always has its event).
    """

    n: int
    fanout: int
    rounds: int
    trials: int
    misses: int
    exposures: int

    @property
    def miss_rate(self) -> float:
        """Point estimate of P[a fixed process misses an event]."""
        return self.misses / self.exposures if self.exposures else 0.0

    def wilson_upper(self, z: float = 2.576) -> float:
        """Upper Wilson confidence limit (default 99%).

        Meaningful even at zero observed misses: it bounds how large
        the true miss probability could plausibly be given the sample.
        """
        if self.exposures == 0:
            return 1.0
        n = float(self.exposures)
        p = self.miss_rate
        denom = 1.0 + z * z / n
        center = p + z * z / (2.0 * n)
        margin = z * math.sqrt((p * (1.0 - p) + z * z / (4.0 * n)) / n)
        return min(1.0, (center + margin) / denom)


def estimate_hole_probability(
    n: int,
    fanout: int,
    rounds: int,
    trials: int = 200,
    seed: int = 0,
) -> HoleEstimate:
    """Monte-Carlo the gossip protocol and count per-process misses.

    Each trial runs Theorem 2's protocol once (one source, *rounds*
    relay rounds, *fanout* balls per informed process per round) and
    counts how many of the other ``n - 1`` processes never received a
    ball.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least 1 trial, got {trials}")
    rng = random.Random(f"empirical:{seed}:{n}:{fanout}:{rounds}")
    misses = 0
    for _ in range(trials):
        coverage = simulate_gossip_coverage(n, fanout, rounds, rng)
        misses += n - coverage[-1]
    return HoleEstimate(
        n=n,
        fanout=fanout,
        rounds=rounds,
        trials=trials,
        misses=misses,
        exposures=trials * (n - 1),
    )


def ttl_sweep(
    n: int,
    fanout: int,
    ttls: Sequence[int],
    trials: int = 200,
    seed: int = 0,
) -> List[HoleEstimate]:
    """Estimate the miss probability for each TTL in *ttls*.

    The empirical counterpart of the paper's §6 observation that the
    theoretical TTL can be relaxed "to much lower values": the returned
    curve shows where misses actually start appearing.
    """
    return [
        estimate_hole_probability(n, fanout, ttl, trials=trials, seed=seed + ttl)
        for ttl in ttls
    ]


def smallest_reliable_ttl(
    n: int,
    fanout: int,
    max_ttl: int,
    trials: int = 100,
    seed: int = 0,
) -> int:
    """Smallest TTL with zero observed misses across all trials.

    Returns ``max_ttl + 1`` when even the largest TTL misses. A direct
    empirical answer to "how much slack does Lemma 3 leave?" (§8.1).
    """
    for ttl in range(1, max_ttl + 1):
        estimate = estimate_hole_probability(n, fanout, ttl, trials=trials, seed=seed)
        if estimate.misses == 0:
            return ttl
    return max_ttl + 1
