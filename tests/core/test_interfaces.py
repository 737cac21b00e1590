"""Protocol conformance: every pluggable implementation satisfies its
declared interface (structural, via runtime_checkable protocols).

These tests pin the plug-in architecture itself: a new transport, PSS
or oracle that passes these checks will work with the core without
modification.
"""

from __future__ import annotations

import random

import pytest

from repro.core.clock import (
    GlobalClockOracle,
    LogicalClockOracle,
    StabilityOracle,
)
from repro.core.interfaces import PeerSampler, Transport
from repro.pss.base import MembershipDirectory
from repro.pss.cyclon import CyclonPss
from repro.pss.uniform import UniformViewPss
from repro.runtime.transport import AsyncNetwork
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork

from ..conftest import ManualOracle, RecordingTransport, StaticPeerSampler


class TestTransportConformance:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SimNetwork(Simulator()),
            AsyncNetwork,
            RecordingTransport,
        ],
        ids=["SimNetwork", "AsyncNetwork", "RecordingTransport"],
    )
    def test_satisfies_transport_protocol(self, factory):
        assert isinstance(factory(), Transport)


class TestPeerSamplerConformance:
    def test_uniform_view(self):
        directory = MembershipDirectory()
        pss = UniformViewPss(0, directory, random.Random(0))
        assert isinstance(pss, PeerSampler)

    def test_cyclon(self):
        pss = CyclonPss(0, 4, 2, send=lambda d, m: None, rng=random.Random(0))
        assert isinstance(pss, PeerSampler)

    def test_static_test_double(self):
        assert isinstance(StaticPeerSampler([1]), PeerSampler)


class TestOracleConformance:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: GlobalClockOracle(1, lambda: 0),
            lambda: LogicalClockOracle(1),
            lambda: ManualOracle(1),
        ],
        ids=["global", "logical", "manual"],
    )
    def test_satisfies_oracle_protocol(self, factory):
        assert isinstance(factory(), StabilityOracle)


class TestClusterHostableProcesses:
    def test_all_process_kinds_expose_hosting_surface(self):
        """Everything the cluster can host shares broadcast/on_ball/
        on_round — the contract `SimCluster.process_factory` relies on."""
        from repro.broadcast.balls_bins import BallsBinsProcess
        from repro.broadcast.fifo import FifoProcess
        from repro.broadcast.pbcast import StabilityOrderedProcess
        from repro.core.process import EpToProcess

        for cls in (EpToProcess, BallsBinsProcess, FifoProcess,
                    StabilityOrderedProcess):
            for method in ("broadcast", "on_ball", "on_round"):
                assert callable(getattr(cls, method)), (cls, method)
