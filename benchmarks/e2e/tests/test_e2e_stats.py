"""Percentiles, the open-loop pacer, operation accounting, the order gate."""

from __future__ import annotations

import asyncio

import pytest

import stats as st


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0]
    assert st.percentile(values, 0) == 10.0
    assert st.percentile(values, 100) == 40.0
    assert st.percentile(values, 50) == 25.0
    with pytest.raises(ValueError):
        st.percentile([], 50)


@pytest.mark.parametrize(
    "samples, expected",
    [
        (5, 50.0),
        (20, 50.0),  # exactly 10 beyond the median
        (99, 50.0),  # 9.9 beyond p90
        (100, 90.0),
        (999, 90.0),  # 9.99 beyond p99
        (1000, 99.0),  # exactly 10 beyond p99
        (2400, 99.0),  # 24 beyond p99, 2.4 beyond p99.9
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(samples, expected):
    assert st.highest_supported_percentile(samples) == expected


class FakeClock:
    """A clock that only moves when someone sleeps or stalls it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        assert delay > 0
        self.now += delay


def test_open_loop_times_from_due_time_when_the_loop_stalls():
    clock = FakeClock()
    fired = []

    async def fire(index, due, late):
        fired.append((index, due, late, clock.now))
        if index == 1:
            clock.now += 0.35  # the loop stalls for 3.5 periods

    asyncio.run(st.run_open_loop(6, 10.0, 100.0, clock, clock.sleep, fire))
    dues = [due for _, due, _, _ in fired]
    assert dues == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4, 100.5])
    # Operations 2..4 fell due during the stall: fired back to back the
    # moment it ends, each timed from its own due time.
    assert [at for _, _, _, at in fired[2:5]] == pytest.approx([100.45] * 3)
    assert [late for _, _, late, _ in fired[2:5]] == pytest.approx([0.25, 0.15, 0.05])
    # The schedule recovers: the last operation is on time again.
    assert fired[5][2] == pytest.approx(0.0)
    assert fired[5][3] == pytest.approx(100.5)


def _published(count, refused=()):
    return [
        st.Published(
            index=k,
            due=float(k),
            event_id=None if k in refused else ("src", k),
            payload=f"p{k}",
            measured=True,
        )
        for k in range(count)
    ]


def _deliveries(nodes, count, delay=0.5, skip=()):
    return {
        node: [
            st.Delivery(("src", k), k + delay, f"p{k}")
            for k in range(count)
            if (node, k) not in skip
        ]
        for node in nodes
    }


def test_accounting_counts_pairs_of_live_nodes_only():
    # Node 2 crashed and stayed down: it is not live at drain, so its
    # pairs are not operations at all.
    result = st.account_operations(
        _published(4), _deliveries([0, 1], 4), live_nodes=[0, 1], deadline_s=5.0
    )
    assert (result.attempted, result.failed) == (8, 0)
    assert result.latencies == pytest.approx([0.5] * 8)


def test_accounting_of_a_respawned_node():
    deliveries = _deliveries([0, 1], 4)
    # Node 1 was down while events 1 and 2 were due and got them late,
    # through anti-entropy, before the drain ended at t=20.
    deliveries[1][1].at = 9.0
    deliveries[1][2].at = 9.1
    result = st.account_operations(
        _published(4),
        deliveries,
        live_nodes=[0, 1],
        deadline_s=5.0,
        recovered_nodes=[1],
        recovered_deadline=20.0,
    )
    assert (result.attempted, result.failed) == (8, 0)
    # Its pairs count, its outage does not pollute the latencies.
    assert len(result.latencies) == 4
    late = st.account_operations(
        _published(4),
        deliveries,
        live_nodes=[0, 1],
        deadline_s=5.0,
        recovered_nodes=[1],
        recovered_deadline=9.05,
    )
    assert late.failed == 1
    assert "after the drain ended" in late.first_failure


def test_accounting_fails_refused_missing_late_and_corrupt():
    deliveries = _deliveries([0, 1], 4, skip={(1, 3)})
    deliveries[0][2].at = 2 + 6.0  # past due + 5 s
    deliveries[1][0].payload = "forged"
    result = st.account_operations(
        _published(5, refused={4}), deliveries, live_nodes=[0, 1], deadline_s=5.0
    )
    # 5 publishes x 2 nodes; the refused publish fails both its pairs.
    assert result.attempted == 10
    assert result.failed == 2 + 1 + 1 + 1
    assert len(result.latencies) == 5


def test_unmeasured_publishes_are_not_operations():
    published = _published(3)
    published[0].measured = False
    result = st.account_operations(
        published, _deliveries([0], 3), live_nodes=[0], deadline_s=5.0
    )
    assert result.attempted == 2


def test_total_order_holds():
    sequences = {0: ["a", "b", "c"], 1: ["a", "b", "c"]}
    assert st.check_total_order(sequences, expected=["c", "a", "b"]) is None


def test_total_order_names_the_first_divergence():
    text = st.check_total_order({0: ["a", "b", "c"], 1: ["a", "c", "b"]})
    assert "node 1 delivered event c at position 1" in text


def test_total_order_rejects_duplicates_and_holes():
    assert "twice" in st.check_total_order({0: ["a", "b", "a"]})
    assert "stopped after 2" in st.check_total_order({0: ["a", "b", "c"], 1: ["a", "b"]})
    assert "never delivered" in st.check_total_order(
        {0: ["a"], 1: ["a"]}, expected=["a", "b"]
    )


def test_redelivery_after_a_restart_is_not_a_duplicate():
    # Node 1 restarted at index 2 and saw "b" again before going on.
    sequences = {0: ["a", "b", "c", "d"], 1: ["a", "b", "b", "c", "d"]}
    assert st.check_total_order(sequences, restart_indices={1: [2]}) is None
    # Without the restart the same history is a safety violation.
    assert "twice" in st.check_total_order(sequences)
    # A duplicate *within* one incarnation stays a violation.
    broken = {0: ["a", "b", "c"], 1: ["a", "b", "c", "c"]}
    assert "twice" in st.check_total_order(broken, restart_indices={1: [2]})
