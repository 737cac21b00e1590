"""Asyncio runtime: the paper §8.5 "real system implementation".

Runs the unmodified EpTO core on real timers and an asynchronous
in-process message fabric (latency and loss injectable), demonstrating
that nothing in :mod:`repro.core` depends on the simulator.
"""

from .cluster import AsyncCluster
from .codec import MAX_DATAGRAM, CodecError, decode, encode
from .node import AsyncEpToNode
from .transport import AsyncNetwork, AsyncNetworkStats
from .udp import UdpNetwork, UdpStats

__all__ = [
    "AsyncCluster",
    "AsyncEpToNode",
    "AsyncNetwork",
    "AsyncNetworkStats",
    "CodecError",
    "MAX_DATAGRAM",
    "UdpNetwork",
    "UdpStats",
    "decode",
    "encode",
]
