"""EpTO core: the paper's primary contribution.

Public surface of the algorithm itself — events, stability oracles,
the dissemination and ordering components, parameter derivation, and
the wired :class:`EpToProcess`.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".clock": (
            "GlobalClockOracle", "LogicalClockOracle", "StabilityOracle",
            "make_oracle",
        ),
        ".config": ("EpToConfig",),
        ".delivery": (
            "DeliveryLog", "StabilityEstimate", "StabilityEstimator",
            "TaggedEvent",
        ),
        ".dissemination": ("DisseminationComponent", "DisseminationStats"),
        ".errors": (
            "ConfigurationError", "MembershipError", "OrderingInvariantError",
            "ReproError", "SimulationError", "TransportError",
        ),
        ".event": (
            "Ball", "Event", "EventId", "EventIdGenerator", "EventRecord",
            "OrderKey",
        ),
        ".interfaces": ("PeerSampler", "Transport"),
        ".ordering": ("OrderingComponent", "OrderingStats"),
        ".params": (
            "DEFAULT_C", "DerivedParameters", "derive_parameters",
            "min_fanout", "min_ttl",
        ),
        ".process": ("EpToProcess",),
    },
)
