"""Property-based tests (hypothesis) for the Cyclon view under a lossy
network pumped to quiescence.

Where ``test_cyclon_properties.py`` drops a shuffle's two messages by
schedule, this file lets every message cascade and survive with
probability ``1 - loss``, over a denser bootstrap, with a crash. The
structural invariants that must survive any schedule:

* no view ever contains its owner, duplicates, or unknown nodes, or
  exceeds its capacity;
* ``sample(k)`` never returns the owner or duplicates;
* loss and crashes never corrupt state (maintenance keeps working).
"""

from __future__ import annotations

import random
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.pss.cyclon import CyclonPss, CyclonRequest

NODES = 8
VIEW_SIZE = 4

#: Bound on cascaded deliveries per step.
MAX_PUMPED = 400


@st.composite
def schedules(draw):
    """([(actor, loss_seed)], crash_at, crash_node, loss)."""
    steps = draw(st.integers(min_value=1, max_value=40))
    schedule = [
        (
            draw(st.integers(min_value=0, max_value=NODES - 1)),
            draw(st.integers(min_value=0, max_value=2**16)),
        )
        for _ in range(steps)
    ]
    crash_at = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=steps - 1))
    )
    crash_node = draw(st.integers(min_value=0, max_value=NODES - 1))
    loss = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return schedule, crash_at, crash_node, loss


def run_universe(schedule, crash_at, crash_node, loss):
    outbox: List[tuple] = []
    nodes: Dict[int, CyclonPss] = {
        node_id: CyclonPss(
            node_id=node_id,
            view_size=VIEW_SIZE,
            shuffle_size=2,
            send=lambda dst, msg, nid=node_id: outbox.append((nid, dst, msg)),
            rng=random.Random(node_id),
        )
        for node_id in range(NODES)
    }
    for node_id in range(NODES):
        nodes[node_id].bootstrap(
            [(node_id + 1) % NODES, (node_id + 3) % NODES, (node_id + 5) % NODES]
        )

    for step, (actor, loss_seed) in enumerate(schedule):
        if crash_at == step:
            nodes.pop(crash_node, None)
        if actor not in nodes:
            continue
        nodes[actor].shuffle()
        # Pump the message queue to quiescence, each message surviving
        # the network with prob 1 - loss.
        coin = random.Random(loss_seed)
        pumped = 0
        while outbox and pumped < MAX_PUMPED:
            pumped += 1
            src, dst, message = outbox.pop(0)
            if coin.random() < loss or dst not in nodes:
                continue
            if isinstance(message, CyclonRequest):
                nodes[dst].handle_request(src, message)
            else:
                nodes[dst].handle_response(src, message)
        outbox.clear()
    return nodes


@settings(max_examples=120, deadline=None)
@given(schedules())
def test_view_structural_invariants(batch):
    nodes = run_universe(*batch)
    for node in nodes.values():
        view = node.view_snapshot()
        assert node.node_id not in view
        assert len(view) == len(set(view))
        assert len(view) <= VIEW_SIZE
        assert all(0 <= peer < NODES for peer in view)


@settings(max_examples=120, deadline=None)
@given(schedules())
def test_sample_never_self_never_duplicates(batch):
    nodes = run_universe(*batch)
    for node in nodes.values():
        for k in (1, 3, NODES):
            sample = node.sample(k)
            assert len(sample) <= k
            assert node.node_id not in sample
            assert len(sample) == len(set(sample))


@settings(max_examples=80, deadline=None)
@given(schedules())
def test_maintenance_survives_any_schedule(batch):
    """After any loss/crash schedule, every survivor can still run its
    maintenance tick without raising (no corrupted pending state)."""
    nodes = run_universe(*batch)
    for node in nodes.values():
        node.shuffle()  # must not raise
