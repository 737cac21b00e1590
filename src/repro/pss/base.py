"""Ground-truth membership for the peer sampling services (paper §2).

EpTO assumes "a peer sampling service (PSS) providing a uniform random
sample of other processes". Two implementations are provided:

* :class:`repro.pss.uniform.UniformViewPss` — an idealized PSS with a
  perfect, instantly updated global view (the paper's default
  evaluation setting);
* :class:`repro.pss.cyclon.CyclonPss` — the Cyclon shuffling protocol
  [28], a realistic gossip-based PSS whose views lag behind churn
  (paper Figure 9).

Both satisfy the minimal :class:`repro.core.interfaces.PeerSampler`
protocol the EpTO core consumes. This module holds what they share:
the :class:`MembershipDirectory` the uniform view samples from and
Cyclon bootstraps from.
"""

from __future__ import annotations

from typing import Sequence


class MembershipDirectory:
    """Ground-truth membership shared by idealized components.

    The simulated cluster keeps this directory exact (nodes are added
    and removed synchronously with churn); the idealized
    :class:`~repro.pss.uniform.UniformViewPss` samples from it, whereas
    Cyclon maintains its own, possibly stale, per-node views.
    """

    def __init__(self) -> None:
        self._alive: list[int] = []
        self._index: dict[int, int] = {}

    def add(self, node_id: int) -> None:
        """Register a live node (O(1))."""
        if node_id in self._index:
            return
        self._index[node_id] = len(self._alive)
        self._alive.append(node_id)

    def remove(self, node_id: int) -> None:
        """Remove a node via swap-with-last (O(1))."""
        idx = self._index.pop(node_id, None)
        if idx is None:
            return
        last = self._alive.pop()
        if last != node_id:
            self._alive[idx] = last
            self._index[last] = idx

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index

    def __len__(self) -> int:
        return len(self._alive)

    def alive_ids(self) -> Sequence[int]:
        """Snapshot of live node ids."""
        return tuple(self._alive)

    def sample(self, rng, k: int, exclude: int | None = None) -> list[int]:
        """Up to *k* distinct random live ids, excluding *exclude*.

        Uses rejection sampling against the O(1)-indexable live list,
        which is fast when ``k`` is much smaller than the population,
        and a Fisher–Yates shuffle of the candidates otherwise.

        *rng* is a :class:`random.Random`. Every index is drawn with
        CPython's ``Random._randbelow`` loop over ``rng.getrandbits``,
        inlined: the sparse branch returns what
        ``population[rng.randrange(len(population))]`` draws would, the
        dense one what ``rng.shuffle`` of the candidates would, and both
        leave *rng* in the same state.
        """
        population = self._alive
        size = len(population)
        n = size
        if exclude is not None and exclude in self._index:
            n -= 1
        k = min(k, n)
        if k <= 0:
            return []
        getrandbits = rng.getrandbits
        if k * 3 < n:
            nbits = size.bit_length()
            chosen: list[int] = []
            seen: set[int] = set() if exclude is None else {exclude}
            while k:
                r = getrandbits(nbits)
                if r < size:
                    candidate = population[r]
                    if candidate not in seen:
                        seen.add(candidate)
                        chosen.append(candidate)
                        k -= 1
            return chosen
        # Dense request (k close to the population size): shuffle every
        # candidate, as ``Random.shuffle`` does, and keep the first k.
        pool = [nid for nid in population if nid != exclude]
        for i in reversed(range(1, len(pool))):
            nbits = (i + 1).bit_length()
            j = getrandbits(nbits)
            while j > i:
                j = getrandbits(nbits)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
