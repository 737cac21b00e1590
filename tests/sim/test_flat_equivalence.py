"""Differential harness: flat engine must be bit-identical to the object engine.

The flat engine re-implements the entire simulated EpTO stack in indexed
arrays for speed; its only correctness argument is this file.  Every test
runs the *same* seeded scenario on both engines via
:mod:`repro.analysis.differential` and requires identical per-node
delivery sequences, identical global (node, event, tick) delivery logs
and identical network counters.

The explicit matrix below covers 46 seeded scenarios across clocks,
round phases, latency models, loss/duplication, churn, five fault
schedules (including crash/respawn under both recovery modes) and one
256-node run at the paper's fan-out, where every node must also
deliver every event in one order.  CI can
trim the per-group seed count with ``EPTO_DIFF_SEEDS=<k>`` (the
``flat-equivalence`` job runs with ``EPTO_DIFF_SEEDS=2``); locally the
full matrix runs by default.  One more scenario pins a reproducer the
random walk found.  A hypothesis test then samples the scenario space
at random (``EPTO_DIFF_EXAMPLES`` scenarios, 15 by default, 50 in CI)
— because :class:`DifferentialScenario` is a flat value object, any
divergence shrinks to a minimal pasteable reproducer automatically.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.differential import (
    DifferentialScenario,
    assert_engines_equivalent,
    run_differential,
    run_flat_engine,
)


def _seeds(count: int, base: int) -> range:
    """A per-group seed range, trimmed by ``EPTO_DIFF_SEEDS`` if set."""
    cap = int(os.environ.get("EPTO_DIFF_SEEDS", "0"))
    if cap > 0:
        count = min(count, cap)
    return range(base, base + count)


#: 256 nodes, K=8, TTL=12, one-tick links, no drift: about eight
#: broadcasts in rounds 1-4, delivered everywhere well inside 30 rounds.
PAPER_FANOUT = dict(
    n=256, fanout=8, ttl=12, drift_fraction=0.0, latency=("fixed", 1),
    broadcast_rate=0.008, broadcast_rounds=4, run_rounds=30,
)


def _matrix() -> list:
    """46 scenarios: (group, overrides) x seeds, ids stable across runs."""
    groups = [
        # name, seed count, seed base, scenario overrides
        ("baseline", 8, 100, {}),
        ("logical", 4, 200, {"clock": "logical"}),
        ("staggered", 4, 300, {"round_phase": "staggered"}),
        (
            "lossy-planetlab",
            4,
            400,
            {
                "latency": ("planetlab",),
                "loss_rate": 0.05,
                "duplicate_rate": 0.02,
            },
        ),
        (
            "nodrift-fixed",
            3,
            500,
            {"drift_fraction": 0.0, "latency": ("fixed", 3)},
        ),
        ("tight", 3, 600, {"n": 16, "fanout": 2, "ttl": 5}),
        ("wide", 2, 700, {"n": 40, "fanout": 6, "ttl": 10}),
        ("churn", 3, 800, {"churn_rate": 0.02}),
        ("fault-loss-burst", 3, 900, {"faults": "loss_burst"}),
        ("fault-crash-fresh", 3, 1000, {"faults": "crash"}),
        (
            "fault-crash-same-id",
            3,
            1100,
            {"faults": "crash", "recovery": "same_id"},
        ),
        ("fault-partition", 2, 1200, {"faults": "partition"}),
        (
            "fault-mixed-churn",
            3,
            1300,
            {"faults": "mixed", "churn_rate": 0.015, "loss_rate": 0.02},
        ),
        ("paper-fanout-n256", 1, 1400, PAPER_FANOUT),
    ]
    cases = []
    for name, count, base, overrides in groups:
        for seed in _seeds(count, base):
            scenario = DifferentialScenario(seed=seed, **overrides)
            cases.append(pytest.param(scenario, id=f"{name}-s{seed}"))
    return cases


@pytest.mark.parametrize("scenario", _matrix())
def test_engines_bit_identical(scenario: DifferentialScenario) -> None:
    assert_engines_equivalent(scenario)


#: Under the global clock a round whose entries all reach the TTL still
#: ships its empty live map. A receiver may hold a received map as its
#: pending ball; its next broadcast must write into a copy, never into
#: the map the sender's other receivers hold. An engine that kept such
#: a map past the receiver's round and then wrote into it sent 84
#: messages here against the object engine's 62.
EMPTY_BALL_HELD = DifferentialScenario(
    seed=0, n=8, fanout=2, ttl=4, round_interval=20, clock="global",
    round_phase="synchronized", drift_fraction=0.0, latency=("fixed", 2),
    broadcast_rate=0.05, broadcast_rounds=8,
)


def test_a_held_empty_ball_is_never_written() -> None:
    assert_engines_equivalent(EMPTY_BALL_HELD)


def test_paper_fanout_run_delivers_every_event_everywhere() -> None:
    run = run_flat_engine(DifferentialScenario(seed=1400, **PAPER_FANOUT))
    assert run.broadcasts > 0
    assert len(run.sequences) == PAPER_FANOUT["n"]
    assert {len(seq) for seq in run.sequences.values()} == {run.broadcasts}
    assert len(set(run.sequences.values())) == 1


def test_full_matrix_spans_required_coverage() -> None:
    """The acceptance floor: >=40 seeds and >=2 fault scenarios.

    Guarded against ``EPTO_DIFF_SEEDS`` trimming so the check reflects
    what a full local run exercises, not the CI subset.
    """
    saved = os.environ.pop("EPTO_DIFF_SEEDS", None)
    try:
        scenarios = [case.values[0] for case in _matrix()]
    finally:
        if saved is not None:
            os.environ["EPTO_DIFF_SEEDS"] = saved
    assert len({s.seed for s in scenarios}) >= 40
    fault_kinds = {s.faults for s in scenarios if s.faults != "none"}
    assert len(fault_kinds) >= 2


def test_divergence_report_is_actionable() -> None:
    """compare_runs output names the node and index of a planted diff."""
    scenario = DifferentialScenario(seed=41)
    from repro.analysis.differential import compare_runs, run_object_engine

    reference = run_object_engine(scenario)
    # Tamper with one node's sequence to simulate an engine bug.
    node = sorted(reference.sequences)[0]
    broken = dict(reference.sequences)
    broken[node] = tuple(reversed(broken[node]))
    candidate = type(reference)(
        sequences=broken,
        deliveries=reference.deliveries,
        network=reference.network,
        broadcasts=reference.broadcasts,
    )
    problems = compare_runs(reference, candidate)
    assert problems, "a tampered run must be reported as divergent"
    assert any(f"node {node}" in p for p in problems)


def test_clean_scenario_reports_no_problems() -> None:
    assert run_differential(DifferentialScenario(seed=42)) == []


_SCENARIOS = st.builds(
    DifferentialScenario,
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=8, max_value=28),
    fanout=st.integers(min_value=2, max_value=5),
    ttl=st.integers(min_value=4, max_value=10),
    clock=st.sampled_from(["global", "logical"]),
    round_phase=st.sampled_from(["synchronized", "staggered"]),
    drift_fraction=st.sampled_from([0.0, 0.01, 0.05]),
    latency=st.sampled_from(
        [("fixed", 2), ("uniform", 1, 15), ("planetlab",)]
    ),
    loss_rate=st.sampled_from([0.0, 0.05, 0.15]),
    duplicate_rate=st.sampled_from([0.0, 0.02]),
    broadcast_rate=st.sampled_from([0.05, 0.1, 0.2]),
    churn_rate=st.sampled_from([0.0, 0.0, 0.02]),
    faults=st.sampled_from(
        ["none", "loss_burst", "crash", "partition", "mixed"]
    ),
    recovery=st.sampled_from(["fresh", "same_id"]),
)


@settings(
    max_examples=int(os.environ.get("EPTO_DIFF_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=_SCENARIOS)
def test_random_scenarios_agree(scenario: DifferentialScenario) -> None:
    """Random-walk the scenario space; hypothesis shrinks any divergence."""
    assert_engines_equivalent(scenario)
