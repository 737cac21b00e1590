"""Unit tests for the stability oracles (repro.core.clock, Alg. 3 & 4)."""

from __future__ import annotations

import pytest

from repro.core.clock import GlobalClockOracle, LogicalClockOracle, make_oracle
from repro.core.errors import ConfigurationError


class TestGlobalClockOracle:
    def test_reads_time_source(self):
        time = {"now": 100}
        oracle = GlobalClockOracle(ttl=3, time_source=lambda: time["now"])
        assert oracle.get_clock() == 100
        time["now"] = 250
        assert oracle.get_clock() == 250

    def test_update_clock_is_noop(self):
        oracle = GlobalClockOracle(ttl=3, time_source=lambda: 5)
        oracle.update_clock(10_000)
        assert oracle.get_clock() == 5  # unchanged

    def test_rejects_bad_ttl(self):
        with pytest.raises(ConfigurationError):
            GlobalClockOracle(ttl=0, time_source=lambda: 0)


class TestLogicalClockOracle:
    def test_get_clock_increments(self):
        oracle = LogicalClockOracle(ttl=2)
        assert oracle.get_clock() == 1
        assert oracle.get_clock() == 2
        assert oracle.logical_clock == 2

    def test_update_clock_takes_max(self):
        oracle = LogicalClockOracle(ttl=2)
        oracle.update_clock(10)
        assert oracle.logical_clock == 10
        oracle.update_clock(4)  # behind: ignored
        assert oracle.logical_clock == 10

    def test_broadcast_after_update_advances(self):
        # A broadcast after observing ts=7 must carry ts > 7 (Lamport).
        oracle = LogicalClockOracle(ttl=2)
        oracle.update_clock(7)
        assert oracle.get_clock() == 8



class TestMakeOracle:
    def test_builds_global(self):
        oracle = make_oracle("global", ttl=4, time_source=lambda: 1)
        assert isinstance(oracle, GlobalClockOracle)
        assert oracle.ttl == 4

    def test_builds_logical(self):
        oracle = make_oracle("logical", ttl=4)
        assert isinstance(oracle, LogicalClockOracle)

    def test_global_requires_time_source(self):
        with pytest.raises(ConfigurationError):
            make_oracle("global", ttl=4)

    def test_unknown_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            make_oracle("vector", ttl=4)
