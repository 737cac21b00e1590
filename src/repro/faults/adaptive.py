"""Adaptive parameters: recompute K/TTL from observed churn and loss.

The paper's Lemma 7 inflates the fanout by ``(n / (n - alpha)) /
(1 - eps)`` for churn ``alpha`` processes per round and loss rate
``eps`` — but a deployment rarely *knows* its churn and loss a priori.
This module closes the loop: measure the run you actually had
(:meth:`ObservedConditions.from_run` reads the network and churn
counters every substrate already keeps), then re-derive the Theorem 2 /
Lemma 7 parameters for the conditions observed
(:func:`lemma7_parameters`, :func:`adapt_config`). Operators — or a
supervisor acting on their behalf — can roll the adapted config out on
the next restart, turning the static bounds into a feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.config import EpToConfig
from ..core.errors import ConfigurationError
from ..core.params import DEFAULT_C, DerivedParameters, derive_parameters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.cluster import AsyncCluster

#: Observed rates are clamped below this before entering the Lemma 7
#: formulas, which diverge as churn or loss approach 1. A measured rate
#: this high means the system is effectively unusable and no parameter
#: choice will save it; the clamp keeps the helper total so monitoring
#: pipelines never crash on a catastrophic sample.
MAX_RATE = 0.9


@dataclass(frozen=True, slots=True)
class ObservedConditions:
    """Churn and loss as actually measured over a run (or window).

    Attributes:
        population: System size ``n`` the measurement applies to.
        churn_rate: Fraction of the population replaced per round
            (``alpha / n``).
        loss_rate: Fraction of sent messages lost (``epsilon``); count
            loss bursts in if you want parameters that survive them.
        rounds: Rounds the window spanned (0 = unknown; informational).
    """

    population: int
    churn_rate: float
    loss_rate: float
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ConfigurationError(
                f"population must be >= 2, got {self.population}"
            )
        for name in ("churn_rate", "loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def from_run(
        cls,
        population: int,
        rounds: int,
        network_stats: object | None = None,
        churn_stats: object | None = None,
        include_bursts: bool = True,
    ) -> "ObservedConditions":
        """Build from the counters the substrates keep.

        Args:
            population: Current (or average) system size.
            rounds: Rounds the counters cover; must be >= 1 when
                *churn_stats* is given.
            network_stats: Any stats object with ``sent`` and
                ``dropped_loss`` (``NetworkStats``, ``AsyncNetworkStats``
                or ``UdpStats``); ``dropped_burst`` is added when
                *include_bursts* and the field exists.
            churn_stats: Any stats object with ``removed`` (e.g.
                :class:`repro.sim.churn.ChurnStats` or
                :class:`repro.faults.interpreter.FaultStats` via its
                ``crashes`` field).
        """
        loss = 0.0
        if network_stats is not None:
            sent = getattr(network_stats, "sent", 0)
            if sent > 0:
                lost = getattr(network_stats, "dropped_loss", 0)
                if include_bursts:
                    lost += getattr(network_stats, "dropped_burst", 0)
                loss = lost / sent
        churn = 0.0
        if churn_stats is not None:
            if rounds < 1:
                raise ConfigurationError(
                    "rounds must be >= 1 to derive a churn rate"
                )
            removed = getattr(churn_stats, "removed", None)
            if removed is None:
                removed = getattr(churn_stats, "crashes", 0)
            churn = removed / (rounds * population)
        return cls(
            population=population,
            churn_rate=min(churn, MAX_RATE),
            loss_rate=min(loss, MAX_RATE),
            rounds=rounds,
        )


def lemma7_parameters(
    observed: ObservedConditions,
    c: float = DEFAULT_C,
    clock: str = "logical",
    drift_ratio: float = 1.0,
    latency_bounded_by_round: bool = False,
) -> DerivedParameters:
    """Theorem 2 / Lemma 7 parameters for the *observed* conditions.

    A thin, intention-revealing wrapper over
    :func:`repro.core.params.derive_parameters` that feeds it measured
    churn ``alpha/n`` and loss ``epsilon`` instead of guesses.
    """
    return derive_parameters(
        n=observed.population,
        c=c,
        clock=clock,
        churn_rate=min(observed.churn_rate, MAX_RATE),
        loss_rate=min(observed.loss_rate, MAX_RATE),
        drift_ratio=drift_ratio,
        latency_bounded_by_round=latency_bounded_by_round,
    )


def adapt_config(
    config: EpToConfig,
    observed: ObservedConditions,
    c: float = DEFAULT_C,
    drift_ratio: float = 1.0,
    latency_bounded_by_round: bool = False,
) -> EpToConfig:
    """Return *config* with fanout/TTL recomputed for *observed*.

    Fanout and TTL only ever ratchet **up** relative to *config* — the
    operator's configured values are treated as the floor, so adapting
    to a benign window never weakens a deliberately conservative
    deployment. Everything else (round interval, clock, extensions) is
    preserved.
    """
    derived = lemma7_parameters(
        observed,
        c=c,
        clock=config.clock,
        drift_ratio=drift_ratio,
        latency_bounded_by_round=latency_bounded_by_round,
    )
    return config.with_overrides(
        fanout=max(config.fanout, derived.fanout),
        ttl=max(config.ttl, derived.ttl),
    )


@dataclass(slots=True)
class _CrashTally:
    """Duck-typed churn_stats for :meth:`ObservedConditions.from_run`."""

    crashes: int = 0


def supervisor_adaptation(
    c: float = DEFAULT_C,
    include_bursts: bool = True,
) -> "Callable[[AsyncCluster], EpToConfig]":
    """An adaptation callback for :class:`repro.faults.supervisor.NodeSupervisor`.

    Closes the Lemma 7 loop at the moment it matters: each time the
    supervisor is about to resurrect a node, the returned callback
    measures the cluster the restart will rejoin — population, rounds
    elapsed (the deepest round counter any live process reached),
    message loss from the fabric's counters, and churn from the corpse
    count — and re-derives fanout/TTL via :func:`adapt_config`. The
    replacement then comes up under parameters sized for the churn and
    loss actually observed, not the ones guessed at deployment time;
    fanout/TTL only ever ratchet up from the configured floor.

    Usage::

        supervisor = NodeSupervisor(cluster, adapt=supervisor_adaptation())
    """

    def adapt(cluster: "AsyncCluster") -> EpToConfig:
        population = max(2, len(cluster.nodes))
        rounds = max(
            [1]
            + [
                node.process.dissemination.stats.rounds
                for node in cluster.nodes.values()
            ]
        )
        crashed = sum(1 for node in cluster.nodes.values() if node.crashed)
        observed = ObservedConditions.from_run(
            population=population,
            rounds=rounds,
            network_stats=getattr(cluster.network, "stats", None),
            churn_stats=_CrashTally(crashes=crashed),
            include_bursts=include_bursts,
        )
        return adapt_config(cluster.config, observed, c=c)

    return adapt
