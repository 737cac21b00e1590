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
from .event import (
    Ball,
    BallEntry,
    Event,
    EventId,
    EventIdGenerator,
    EventRecord,
    MapBall,
    OrderKey,
    SharedBall,
    ball_event_ids,
    make_ball,
)
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
    "BallEntry",
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
    "MapBall",
    "MembershipError",
    "OrderKey",
    "OrderingComponent",
    "OrderingInvariantError",
    "OrderingStats",
    "PeerSampler",
    "ReproError",
    "SharedBall",
    "SimulationError",
    "StabilityEstimate",
    "StabilityEstimator",
    "StabilityOracle",
    "TaggedEvent",
    "Transport",
    "TransportError",
    "ball_event_ids",
    "derive_parameters",
    "make_ball",
    "make_oracle",
    "min_fanout",
    "min_ttl",
]
