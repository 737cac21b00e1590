"""Logical-clock runs pinned across the carrier-only rule.

Under the logical clock a round whose cut keeps no entry below the TTL
bound sends nothing (``DisseminationComponent._cut``): the one entry it
would ship is a clock carrier every receiver with that bound drops
unread. The rule may change what travels, never what is delivered, so
each seeded object-engine run below must reproduce the per-node
delivery sequences the run read before the rule (``SEQUENCES``, a
digest of every node's sequence) with fewer messages on the wire
(``BEFORE`` is the count before the rule, ``SENT`` the count now).

The runs cover 2 % loss and drift (``UniformDrift(0.1)``) at n=128,
on uniform latency with synchronized rounds and on PlanetLab latency
with staggered ones. The rule draws the round's peers anyway, so the
sampler's stream is the one the runs had; the loss stream is drawn
only per message sent, so which copies are lost may change while the
sequences do not.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.differential import DifferentialScenario, run_object_engine

LOGICAL = dict(
    n=128, fanout=6, ttl=16, clock="logical", drift_fraction=0.1,
    loss_rate=0.02, broadcast_rate=0.02, broadcast_rounds=10,
)
STAGGERED = dict(LOGICAL, round_phase="staggered", latency=("planetlab",))

#: seed: (scenario, digest of the per-node delivery sequences, messages
#: sent before the rule, messages sent now).
PINNED = {
    1: (LOGICAL, "5ef59c2bb2069617", 14046, 12144),
    2: (LOGICAL, "ec46e2f9708cdf66", 14574, 12582),
    3: (LOGICAL, "4bb314b46faeb51c", 12804, 11352),
    4: (STAGGERED, "c259532739bc63e4", 38976, 37932),
    5: (STAGGERED, "dad87fd201b82c04", 38790, 37908),
    6: (STAGGERED, "3b7c084885385cad", 41364, 41244),
}


def sequences_digest(sequences) -> str:
    """A digest of every node's delivery sequence, stable across runs
    and hash seeds (event ids are tuples of ints)."""
    text = repr(sorted(sequences.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_a_round_with_nothing_live_changes_no_delivery(seed):
    overrides, digest, before, sent = PINNED[seed]
    run = run_object_engine(DifferentialScenario(seed=seed, **overrides))
    assert run.broadcasts > 0
    assert sequences_digest(run.sequences) == digest
    assert run.network[0] == sent
    assert sent < before
