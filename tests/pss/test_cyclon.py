"""Unit and convergence tests for the Cyclon PSS (repro.pss.cyclon, [28])."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core.errors import ConfigurationError
from repro.pss.cyclon import CyclonPss, CyclonRequest, CyclonResponse


class Fabric:
    """Instant in-memory message fabric wiring Cyclon nodes together."""

    def __init__(self) -> None:
        self.nodes: Dict[int, CyclonPss] = {}
        self.dropped: List[Tuple[int, int]] = []
        self.loss_targets: set[int] = set()

    def make_node(self, node_id: int, view_size=6, shuffle_size=3, seed=0):
        node = CyclonPss(
            node_id=node_id,
            view_size=view_size,
            shuffle_size=shuffle_size,
            send=lambda dst, msg, node_id=node_id: self.deliver(node_id, dst, msg),
            rng=random.Random(f"{seed}:{node_id}"),
        )
        self.nodes[node_id] = node
        return node

    def deliver(self, src: int, dst: int, message) -> None:
        node = self.nodes.get(dst)
        if node is None or dst in self.loss_targets:
            self.dropped.append((src, dst))
            return
        if isinstance(message, CyclonRequest):
            node.handle_request(src, message)
        elif isinstance(message, CyclonResponse):
            node.handle_response(src, message)


def build_ring(count=10, view_size=5, shuffle_size=3) -> Fabric:
    """Bootstrap nodes in a ring (each initially knows its successor)."""
    fabric = Fabric()
    for i in range(count):
        fabric.make_node(i, view_size=view_size, shuffle_size=shuffle_size)
    for i in range(count):
        fabric.nodes[i].bootstrap([(i + 1) % count])
    return fabric


class TestValidation:
    def test_rejects_bad_view_size(self):
        with pytest.raises(ConfigurationError):
            CyclonPss(0, view_size=0, shuffle_size=1, send=lambda *a: None,
                      rng=random.Random(0))

    def test_rejects_shuffle_above_view(self):
        with pytest.raises(ConfigurationError):
            CyclonPss(0, view_size=3, shuffle_size=4, send=lambda *a: None,
                      rng=random.Random(0))


class TestBootstrap:
    def test_bootstrap_fills_view(self):
        fabric = Fabric()
        node = fabric.make_node(0, view_size=4)
        node.bootstrap([1, 2, 3, 4, 5, 6])
        assert node.view_fill == 4  # capped at view size

    def test_bootstrap_skips_self(self):
        fabric = Fabric()
        node = fabric.make_node(0)
        node.bootstrap([0, 1])
        assert 0 not in node.view_snapshot()


class TestViewInvariants:
    def test_view_never_contains_self(self):
        fabric = build_ring(8)
        for _ in range(100):
            for node in fabric.nodes.values():
                node.shuffle()
        for node in fabric.nodes.values():
            assert node.node_id not in node.view_snapshot()

    def test_view_never_exceeds_capacity(self):
        fabric = build_ring(8, view_size=4, shuffle_size=2)
        for _ in range(100):
            for node in fabric.nodes.values():
                node.shuffle()
        for node in fabric.nodes.values():
            assert node.view_fill <= 4

    def test_no_duplicate_entries(self):
        fabric = build_ring(8)
        for _ in range(100):
            for node in fabric.nodes.values():
                node.shuffle()
        for node in fabric.nodes.values():
            view = node.view_snapshot()
            assert len(view) == len(set(view))


class TestShuffleSemantics:
    def test_oldest_peer_removed_on_shuffle(self):
        fabric = Fabric()
        node = fabric.make_node(0, view_size=3, shuffle_size=2)
        fabric.make_node(1)
        fabric.make_node(2)
        node.bootstrap([1, 2])
        # Make peer 1 the oldest artificially.
        node._view[1] = 10
        node.shuffle()
        # 1 was removed when the request was sent (it may return via
        # the response, but with a fresh age if so).
        assert node._pending == {} or 1 not in node._pending

    def test_shuffle_counts(self):
        fabric = build_ring(4)
        for node in fabric.nodes.values():
            node.shuffle()
        assert all(n.shuffles_started == 1 for n in fabric.nodes.values())
        assert sum(n.shuffles_answered for n in fabric.nodes.values()) == 4
        assert all(n.view_fill > 0 for n in fabric.nodes.values())

    def test_empty_view_shuffle_is_noop(self):
        fabric = Fabric()
        node = fabric.make_node(0)
        node.shuffle()
        assert node.shuffles_started == 0

    def test_lost_request_still_ages_out_dead_peer(self):
        # The oldest peer is removed optimistically; if it is dead the
        # view self-heals instead of pinning the dead entry forever.
        fabric = Fabric()
        node = fabric.make_node(0, view_size=3, shuffle_size=2)
        fabric.make_node(2)
        node.bootstrap([2])
        node._view[99] = 50  # dead peer, very old
        node.shuffle()
        assert 99 not in node.view_snapshot()


class TestConvergence:
    def test_ring_converges_to_mixed_views(self):
        """Starting from a ring, shuffling should spread knowledge:
        eventually views reference peers far beyond the successor."""
        fabric = build_ring(16, view_size=5, shuffle_size=3)
        for _ in range(60):
            for node in fabric.nodes.values():
                node.shuffle()
        distinct_known = set()
        for node in fabric.nodes.values():
            distinct_known.update(node.view_snapshot())
        assert len(distinct_known) == 16  # everyone is known by someone
        # Views are no longer just successors.
        non_successor = sum(
            1
            for node in fabric.nodes.values()
            for peer in node.view_snapshot()
            if peer != (node.node_id + 1) % 16
        )
        assert non_successor > 16

    def test_sample_draws_from_view(self):
        fabric = build_ring(10)
        node = fabric.nodes[0]
        for _ in range(20):
            for n in fabric.nodes.values():
                n.shuffle()
        sample = node.sample(3)
        assert set(sample) <= set(node.view_snapshot())
        assert len(sample) == min(3, node.view_fill)

    def test_sample_more_than_view_returns_all(self):
        fabric = Fabric()
        node = fabric.make_node(0, view_size=4)
        node.bootstrap([1, 2])
        assert sorted(node.sample(10)) == [1, 2]

    def test_dead_nodes_eventually_purged(self):
        fabric = build_ring(10, view_size=4, shuffle_size=2)
        for _ in range(30):
            for node in fabric.nodes.values():
                node.shuffle()
        # Kill node 0: its entries should vanish from all views.
        dead = fabric.nodes.pop(0)
        for _ in range(120):
            for node in fabric.nodes.values():
                node.shuffle()
        holders = [
            node.node_id
            for node in fabric.nodes.values()
            if 0 in node.view_snapshot()
        ]
        assert holders == []
