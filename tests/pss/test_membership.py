"""Unit tests for the membership directory (repro.pss.base)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pss.base import MembershipDirectory


@pytest.fixture
def rng():
    return random.Random(13)


class TestDirectory:
    def test_add_and_contains(self):
        directory = MembershipDirectory()
        directory.add(1)
        directory.add(2)
        assert 1 in directory
        assert 3 not in directory
        assert len(directory) == 2

    def test_add_is_idempotent(self):
        directory = MembershipDirectory()
        directory.add(1)
        directory.add(1)
        assert len(directory) == 1

    def test_remove(self):
        directory = MembershipDirectory()
        for i in range(5):
            directory.add(i)
        directory.remove(2)
        assert 2 not in directory
        assert len(directory) == 4
        assert set(directory.alive_ids()) == {0, 1, 3, 4}

    def test_remove_unknown_is_noop(self):
        directory = MembershipDirectory()
        directory.add(1)
        directory.remove(9)
        assert len(directory) == 1

    def test_remove_last_element(self):
        directory = MembershipDirectory()
        directory.add(1)
        directory.remove(1)
        assert len(directory) == 0

    def test_swap_remove_keeps_index_consistent(self):
        directory = MembershipDirectory()
        for i in range(10):
            directory.add(i)
        directory.remove(0)  # head: swap with tail
        directory.remove(9)  # the swapped element
        assert set(directory.alive_ids()) == set(range(1, 9))
        # Every remaining element can still be removed cleanly.
        for i in range(1, 9):
            directory.remove(i)
        assert len(directory) == 0


class TestSampling:
    def test_sample_excludes_requested_id(self, rng):
        directory = MembershipDirectory()
        for i in range(10):
            directory.add(i)
        for _ in range(50):
            assert 3 not in directory.sample(rng, 5, exclude=3)

    def test_sample_returns_distinct_ids(self, rng):
        directory = MembershipDirectory()
        for i in range(20):
            directory.add(i)
        sample = directory.sample(rng, 10)
        assert len(sample) == len(set(sample)) == 10

    def test_sample_truncates_to_population(self, rng):
        directory = MembershipDirectory()
        for i in range(3):
            directory.add(i)
        assert len(directory.sample(rng, 10)) == 3
        assert len(directory.sample(rng, 10, exclude=0)) == 2

    def test_sample_from_empty(self, rng):
        directory = MembershipDirectory()
        assert directory.sample(rng, 5) == []

    def test_sampling_is_roughly_uniform(self, rng):
        directory = MembershipDirectory()
        for i in range(10):
            directory.add(i)
        counts = {i: 0 for i in range(10)}
        for _ in range(5000):
            for nid in directory.sample(rng, 3):
                counts[nid] += 1
        # Expected 1500 each; allow generous slack.
        assert all(1200 < c < 1800 for c in counts.values())

    def test_dense_request_uses_shuffle_path(self, rng):
        directory = MembershipDirectory()
        for i in range(6):
            directory.add(i)
        # k * 3 >= n forces the shuffle fallback.
        sample = directory.sample(rng, 5, exclude=0)
        assert len(sample) == 5
        assert 0 not in sample


def _oracle_sample(directory, rng, k, exclude=None):
    """``MembershipDirectory.sample`` spelled with
    ``Random.randrange``/``Random.shuffle``: the reference its inlined
    draws must reproduce draw for draw."""
    population = directory._alive
    n = len(population)
    if exclude is not None and exclude in directory._index:
        n -= 1
    k = min(k, n)
    if k <= 0:
        return []
    chosen = []
    seen = set() if exclude is None else {exclude}
    if k * 3 < n:
        while len(chosen) < k:
            candidate = population[rng.randrange(len(population))]
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        return chosen
    pool = [nid for nid in population if nid not in seen]
    rng.shuffle(pool)
    return pool[:k]


#: Sizes where the bit count of ``_randbelow`` changes (2^j - 1, 2^j,
#: 2^j + 1), so its rejection loop rejects nothing or nearly half.
_EDGE_SIZES = sorted(
    {2**j + d for j in range(13) for d in (-1, 0, 1) if 0 <= 2**j + d <= 5000}
)


class TestDrawIdentity:
    """The sampler's rng is a :class:`random.Random`. Both branches draw
    each index with ``Random._randbelow``'s loop over ``getrandbits``,
    inlined, so they return the ids the ``randrange``/``shuffle``
    spelling above returns and leave the rng in the same state."""

    @staticmethod
    def _check(size, removed, k, exclude, seed):
        directory = MembershipDirectory()
        for node in range(size):
            directory.add(node)
        for node in removed:
            directory.remove(node)  # swap-removes reorder the live list
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert directory.sample(ours, k, exclude) == _oracle_sample(
                directory, theirs, k, exclude
            )
            assert ours.getstate() == theirs.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        size=st.one_of(
            st.sampled_from(_EDGE_SIZES), st.integers(min_value=0, max_value=5000)
        ),
        k=st.integers(min_value=-1, max_value=5001),
        exclude=st.sampled_from(["present", "absent", None]),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_same_ids_and_same_rng_state_as_randrange_and_shuffle(
        self, size, k, exclude, data, seed
    ):
        removed = data.draw(
            st.lists(st.integers(min_value=0, max_value=max(size - 1, 0)), max_size=4)
        )
        if exclude == "present":
            live = [node for node in range(size) if node not in removed]
            if not live:
                return
            exclude = data.draw(st.sampled_from(live))
        elif exclude == "absent":
            exclude = size + 7
        self._check(size, removed, k, exclude, seed)

    @pytest.mark.parametrize("size", _EDGE_SIZES)
    @pytest.mark.parametrize("exclude", [0, -1, None])
    def test_both_branches_at_every_bit_boundary(self, size, exclude):
        sparse = max(0, (size - 2) // 3)  # k * 3 < n
        dense = max(1, size - 1)  # k * 3 >= n
        for k in {sparse, dense, 1, 19}:
            self._check(size, [], k, exclude, seed=size)
