"""Discrete-event simulation substrate (paper §6's simulator)."""

from .churn import ChurnDriver, ChurnStats
from .cluster import ClusterConfig, GossipProcess, SimCluster
from .drift import BoundedDrift, DriftModel, NoDrift, UniformDrift
from .engine import Handle, PeriodicTask, Simulator
from .flat import FlatCluster, FlatEngine, FlatHandle, FlatNetwork
from .latency import (
    EmpiricalLatency,
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    PlanetLabLatency,
    UniformLatency,
    make_latency_model,
)
from .network import MessageHandler, NetworkStats, SimNetwork

__all__ = [
    "BoundedDrift",
    "ChurnDriver",
    "ChurnStats",
    "ClusterConfig",
    "DriftModel",
    "EmpiricalLatency",
    "FixedLatency",
    "FlatCluster",
    "FlatEngine",
    "FlatHandle",
    "FlatNetwork",
    "GossipProcess",
    "Handle",
    "LatencyModel",
    "LogNormalLatency",
    "MessageHandler",
    "NetworkStats",
    "NoDrift",
    "PeriodicTask",
    "PlanetLabLatency",
    "SimCluster",
    "SimNetwork",
    "Simulator",
    "UniformDrift",
    "UniformLatency",
    "make_latency_model",
]
