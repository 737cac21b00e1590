"""EpTO core: the paper's primary contribution.

Public surface of the algorithm itself — events, stability oracles,
the dissemination and ordering components, parameter derivation, and
the wired :class:`EpToProcess`.
"""

from .clock import GlobalClockOracle, LogicalClockOracle, StabilityOracle, make_oracle
from .config import EpToConfig
from .delivery import (
    DeliveryLog,
    StabilityEstimate,
    StabilityEstimator,
    TaggedEvent,
)
from .dissemination import DisseminationComponent, DisseminationStats
from .errors import (
    ConfigurationError,
    MembershipError,
    OrderingInvariantError,
    ReproError,
    SimulationError,
    TransportError,
)
from .event import Ball, Event, EventId, EventIdGenerator, EventRecord, OrderKey
from .interfaces import PeerSampler, Transport
from .ordering import OrderingComponent, OrderingStats
from .params import (
    DEFAULT_C,
    DerivedParameters,
    derive_parameters,
    min_fanout,
    min_ttl,
)
from .process import EpToProcess

__all__ = [
    "Ball",
    "ConfigurationError",
    "DEFAULT_C",
    "DeliveryLog",
    "DerivedParameters",
    "DisseminationComponent",
    "DisseminationStats",
    "EpToConfig",
    "EpToProcess",
    "Event",
    "EventId",
    "EventIdGenerator",
    "EventRecord",
    "GlobalClockOracle",
    "LogicalClockOracle",
    "MembershipError",
    "OrderKey",
    "OrderingComponent",
    "OrderingInvariantError",
    "OrderingStats",
    "PeerSampler",
    "ReproError",
    "SimulationError",
    "StabilityEstimate",
    "StabilityEstimator",
    "StabilityOracle",
    "TaggedEvent",
    "Transport",
    "TransportError",
    "derive_parameters",
    "make_oracle",
    "min_fanout",
    "min_ttl",
]
