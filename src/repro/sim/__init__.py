"""Discrete-event simulation substrate (paper §6's simulator)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".churn": ("ChurnDriver", "ChurnStats"),
        ".cluster": ("ClusterConfig", "GossipProcess", "SimCluster"),
        ".drift": ("BoundedDrift", "DriftModel", "NoDrift", "UniformDrift"),
        ".engine": ("Handle", "PeriodicTask", "Simulator"),
        ".flat": ("FlatCluster", "FlatEngine", "FlatHandle", "FlatNetwork"),
        ".latency": (
            "EmpiricalLatency", "FixedLatency", "LatencyModel",
            "LogNormalLatency", "PlanetLabLatency", "UniformLatency",
            "make_latency_model",
        ),
        ".network": ("MessageHandler", "NetworkStats", "SimNetwork"),
    },
)
