"""Hostile-node behaviors: the Byzantine half of the fault layer.

Where :mod:`repro.faults.schedule` models *benign* failures (crash,
loss, partition, line corruption), this module models the adversary of
Malkhi et al. (*On Diffusing Updates in a Byzantine Environment*):
compromised **relays** that keep running the protocol but mutate the
traffic passing through them. A :class:`ByzantineRouter` is installed
on a network fabric (``network.set_adversary(router)``); every ball a
hostile node sends is routed through :meth:`ByzantineRouter.transform`
*per destination*, which is what makes equivocation — different lies to
different peers — expressible at all.

Four behaviors (:data:`repro.faults.schedule.BYZANTINE_BEHAVIORS`):

* ``equivocate`` — relayed entries keep their ``(source, seq)`` id but
  the payload diverges per destination. Without authentication,
  correct nodes accept whichever copy arrives first and end up
  disagreeing on the *content* of an agreed position — the violation
  :func:`repro.metrics.check_authenticity` detects. With auth, the
  mutated copies fail their source's MAC and are dropped at admission.
* ``garble_relay`` — relayed entries get garbage payloads and a
  shifted timestamp (diverging the order key too). Same auth fate.
* ``ttl_inflate`` — previously relayed entries are re-injected with
  their TTL rewound to zero, resurrecting events that already left the
  TTL window. The MAC still verifies (the TTL is deliberately outside
  the canonical bytes — docs/SECURITY.md); safety instead rests on the
  ordering layer's delivered/known dedupe absorbing re-sightings.
* ``replay`` — previously relayed entries are re-sent verbatim. Valid
  MACs again; absorbed the same way.

The split is the point: the drill demonstrates which attacks
authentication stops (forgery, equivocation, garbling) and which it
provably does not (replay, TTL games), per the threat model in
docs/SECURITY.md.

The module also hosts the state-scrambling helpers behind the
:class:`repro.faults.schedule.ScrambleState` action: forged-event
builders (events fabricated under *other* nodes' identities — under
auth these are unsigned-at-source and die at admission) and
:func:`scramble_journal`, which corrupts a node's on-disk delivery log
the way a real torn-and-flipped disk would.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Sequence, Tuple

from ..core.errors import FaultInjectionError
from ..core.event import Ball, Event
from ..storage.recovery import LOG_SUBDIR

#: How many relayed entries the router remembers for replay/resurrection.
DEFAULT_STASH_SIZE = 64

#: One ball entry as the router handles it: ``(event, ttl)``.
Entry = Tuple[Event, int]


@dataclass(slots=True)
class ByzantineStats:
    """Counters of hostile mutations actually performed."""

    equivocated: int = 0
    garbled: int = 0
    replayed: int = 0
    ttl_inflated: int = 0

    @property
    def total(self) -> int:
        """Every hostile mutation across all behaviors."""
        return self.equivocated + self.garbled + self.replayed + self.ttl_inflated


class ByzantineRouter:
    """Per-fabric adversary: transforms balls sent by hostile nodes.

    One router serves a whole fabric; behaviors are enabled per node
    (several can be active on the same node at once, each with its own
    firing rate), which is how a schedule layers equivocation on top
    of replay in one window. The router only ever touches entries a
    hostile node *relays* (``event.source_id != sender``): a node
    mangling its own events would be indistinguishable from a buggy
    application, and — holding its own key — could sign the mangled
    result anyway. The interesting adversary is the one auth is
    designed against: the relay that cannot forge other sources' MACs.

    Determinism: all randomness comes from the injected *rng*, so a
    seeded drill replays bit-identically.
    """

    def __init__(
        self,
        rng: random.Random | None = None,
        stash_size: int = DEFAULT_STASH_SIZE,
    ) -> None:
        self._rng = rng if rng is not None else random.Random(0)
        self.stats = ByzantineStats()
        # node id -> behavior name -> firing rate.
        self._active: Dict[int, Dict[str, float]] = {}
        self._stash: Deque[Entry] = deque(maxlen=stash_size)
        self._garble_counter = 0

    # ------------------------------------------------------------------
    # Activation (driven by the fault injectors)
    # ------------------------------------------------------------------

    def enable(self, nodes: Iterable[int], behavior: str, rate: float = 1.0) -> None:
        """Switch *behavior* on for *nodes* with per-send firing *rate*."""
        for node_id in nodes:
            self._active.setdefault(int(node_id), {})[behavior] = float(rate)

    def disable(self, nodes: Iterable[int], behavior: str | None = None) -> None:
        """Switch *behavior* (or every behavior, if ``None``) off."""
        for node_id in nodes:
            behaviors = self._active.get(int(node_id))
            if behaviors is None:
                continue
            if behavior is None:
                behaviors.clear()
            else:
                behaviors.pop(behavior, None)
            if not behaviors:
                del self._active[int(node_id)]

    def is_hostile(self, node_id: int) -> bool:
        """Whether any behavior is currently active for *node_id*."""
        return bool(self._active.get(node_id))

    @property
    def hostile_ids(self) -> Tuple[int, ...]:
        """Ids of every currently hostile node."""
        return tuple(sorted(self._active))

    # ------------------------------------------------------------------
    # The transform (called by the fabrics, per destination)
    # ------------------------------------------------------------------

    def transform(self, sender: int, dst: int, ball: Ball) -> Ball:
        """Hostile version of *ball* as *sender* ships it to *dst*: a
        new ball (*ball* itself is never mutated) that names each id at
        most once."""
        behaviors = self._active.get(sender)
        if not behaviors:
            return ball
        entries: List[Entry] = list(zip(ball.events.values(), ball.ttls.values()))
        self._remember_relayed(sender, entries)
        for behavior, rate in behaviors.items():
            if rate < 1.0 and self._rng.random() >= rate:
                continue
            if behavior == "equivocate":
                entries = self._equivocate(sender, dst, entries)
            elif behavior == "garble_relay":
                entries = self._garble(sender, entries)
            elif behavior == "ttl_inflate":
                entries = self._ttl_inflate(sender, entries)
            elif behavior == "replay":
                entries = self._replay(sender, entries)
        return Ball.of(entries)

    def _remember_relayed(self, sender: int, entries: Sequence[Entry]) -> None:
        for entry in entries:
            if entry[0].source_id != sender:
                self._stash.append(entry)

    def _equivocate(self, sender: int, dst: int, entries: List[Entry]) -> List[Entry]:
        # Same (source, seq) and timestamp, divergent payload per
        # destination parity: two halves of the cluster accept two
        # different "contents" for the same agreed position.
        out: List[Entry] = []
        for event, ttl in entries:
            if event.source_id == sender:
                out.append((event, ttl))
                continue
            forged = Event(
                id=event.id,
                ts=event.ts,
                source_id=event.source_id,
                payload={"equivocated_by": sender, "variant": dst & 1},
            )
            out.append((forged, ttl))
            self.stats.equivocated += 1
        return out

    def _garble(self, sender: int, entries: List[Entry]) -> List[Entry]:
        # Garbage payload plus a small timestamp shift: the order key
        # itself diverges between the genuine and the garbled copy.
        out: List[Entry] = []
        for event, ttl in entries:
            if event.source_id == sender:
                out.append((event, ttl))
                continue
            self._garble_counter += 1
            forged = Event(
                id=event.id,
                ts=event.ts + 1,
                source_id=event.source_id,
                payload={"garbled_by": sender, "n": self._garble_counter},
            )
            out.append((forged, ttl))
            self.stats.garbled += 1
        return out

    def _ttl_inflate(self, sender: int, entries: List[Entry]) -> List[Entry]:
        # Resurrect the oldest stashed relayed entry with its TTL
        # rewound to zero — to receivers it looks freshly broadcast,
        # long after the genuine copies left the TTL window. An id the
        # ball already names is skipped: a ball names an id once.
        if not self._stash:
            return entries
        stale = self._stash.popleft()[0]
        if _names(entries, stale.id):
            return entries
        self.stats.ttl_inflated += 1
        return entries + [(stale, 0)]

    def _replay(self, sender: int, entries: List[Entry]) -> List[Entry]:
        # Re-send a previously relayed entry verbatim (valid MAC and
        # TTL): pure duplicate pressure on the receivers' dedupe. An id
        # the ball already names is skipped, as above.
        if not self._stash:
            return entries
        replayed = self._rng.choice(self._stash)
        if _names(entries, replayed[0].id):
            return entries
        self.stats.replayed += 1
        return entries + [replayed]


def _names(entries: Sequence[Entry], event_id) -> bool:
    """Whether *entries* hold an entry for *event_id*."""
    return any(event.id == event_id for event, _ in entries)


# ----------------------------------------------------------------------
# State scrambling (the ScrambleState action's toolbox)
# ----------------------------------------------------------------------


def forged_events(
    impersonate: Sequence[int],
    count: int,
    ts: int,
    base_seq: int = 1_000_000,
) -> Tuple[Event, ...]:
    """Fabricate *count* events under the identities in *impersonate*.

    The forgeries round-robin over the impersonated sources with huge
    sequence numbers (far above anything genuinely issued) so they are
    trivially attributable in a post-mortem — and, under auth, carry no
    signature their claimed sources ever produced.
    """
    if not impersonate:
        raise FaultInjectionError("forged_events needs at least one identity")
    events = []
    for k in range(count):
        source = int(impersonate[k % len(impersonate)])
        seq = base_seq + k
        events.append(
            Event(
                id=(source, seq),
                ts=int(ts),
                source_id=source,
                payload={"scrambled": True, "k": k},
            )
        )
    return tuple(events)


def garbage_ball(events: Iterable[Event], ttl: int = 0) -> Ball:
    """Wrap forged *events* as a freshly-broadcast-looking ball."""
    return Ball.of((event, ttl) for event in events)


def scramble_journal(directory: Path, rng: random.Random) -> List[str]:
    """Corrupt the on-disk delivery log under *directory* in place.

    Three layers of damage to the newest segment, modeling arbitrary
    state corruption rather than a clean crash: random byte flips in
    the middle (CRC framing makes the reader stop at the last valid
    record before the flip), truncation of the tail (a torn write),
    and garbage bytes appended after it (a partially recycled block).
    Returns a human-readable list of what was done, for fault logs.

    The log's own recovery contract does the rest: the next open
    repairs the torn tail and the node restarts from the surviving
    prefix — the "arbitrary corrupted state" a self-stabilizing
    protocol must converge out of.
    """
    directory = Path(directory)
    log_dir = directory / LOG_SUBDIR
    segments = sorted(log_dir.glob("seg-*.log")) if log_dir.is_dir() else []
    if not segments:
        return [f"no log segments under {log_dir}"]
    target = segments[-1]
    data = bytearray(target.read_bytes())
    actions: List[str] = []
    if len(data) > 16:
        # Byte flips somewhere past the first record's header.
        for _ in range(3):
            position = rng.randrange(len(data) // 2, len(data))
            data[position] ^= 0xFF
        actions.append(f"flipped 3 bytes in {target.name}")
        # Torn tail: drop a random fraction of the end.
        keep = rng.randrange(len(data) // 2, len(data))
        del data[keep:]
        actions.append(f"truncated {target.name} to {keep} bytes")
    # Recycled-block garbage after the torn tail.
    data += bytes(rng.randrange(256) for _ in range(rng.randrange(8, 32)))
    actions.append(f"appended garbage tail to {target.name}")
    target.write_bytes(bytes(data))
    return actions
