"""Asyncio runtime: the paper §8.5 "real system implementation".

Runs the unmodified EpTO core on real timers and an asynchronous
in-process message fabric (latency and loss injectable), demonstrating
that nothing in :mod:`repro.core` depends on the simulator.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".cluster": ("AsyncCluster",),
        ".codec": ("MAX_DATAGRAM", "CodecError", "decode", "encode"),
        ".node": ("AsyncEpToNode",),
        ".transport": ("AsyncNetwork", "AsyncNetworkStats"),
        ".udp": ("UdpNetwork", "UdpStats"),
    },
)
