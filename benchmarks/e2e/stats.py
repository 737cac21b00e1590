"""Pure helpers of the end-to-end benchmark: percentiles, the open-loop
pacer, operation accounting and the total-order safety gate.

Nothing here imports ``repro``: the helpers work on plain lists and
dicts so the self-tests can drive them with fake clocks and hand-made
histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Percentiles a latency report may quote, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is quoted only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) of an ascending sequence, linearly
    interpolated between the two closest ranks."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} is outside 0..100")
    position = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def highest_supported_percentile(sample_count: int) -> float:
    """The highest rung of :data:`PERCENTILE_LADDER` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; the median when even
    the second rung is not supported."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        # round() absorbs the float error of 1000 * 0.01 = 9.99999...
        beyond = round(sample_count * (100.0 - q) / 100.0, 9)
        if beyond >= MIN_SAMPLES_BEYOND:
            best = q
    return best


async def run_open_loop(
    count: int,
    rate: float,
    start: float,
    clock: Callable[[], float],
    sleep: Callable[[float], Awaitable[Any]],
    fire: Callable[[int, float, float], Awaitable[Any]],
) -> None:
    """Fire operation *k* at ``start + k / rate``, whatever happened to
    the earlier ones.

    An open loop: the schedule never waits for the system. When the
    loop stalls, the operations that fell due meanwhile are fired back
    to back and each is handed its own due time, so the caller times
    latency from when the operation *should* have been sent. ``fire``
    receives ``(k, due, late)`` with ``late = clock() - due >= 0``.
    """
    for k in range(count):
        due = start + k / rate
        delay = due - clock()
        if delay > 0.0:
            await sleep(delay)
        await fire(k, due, max(0.0, clock() - due))


@dataclass
class Published:
    """One scheduled publish."""

    index: int
    due: float
    #: the issued event id, ``None`` when the publish was refused.
    event_id: Optional[Hashable]
    payload: Any
    #: whether the publish was due inside the measured window.
    measured: bool
    #: ordering stream the event belongs to (the topic; 0 otherwise).
    stream: int = 0


@dataclass
class Delivery:
    """One delivery observed at one node."""

    event_id: Hashable
    at: float
    payload: Any


@dataclass
class Accounting:
    """Outcome of :func:`account_operations`."""

    attempted: int = 0
    failed: int = 0
    #: due → delivery, seconds, one per successful measured pair of a
    #: node that was never down.
    latencies: List[float] = field(default_factory=list)
    first_failure: Optional[str] = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason


def account_operations(
    published: Iterable[Published],
    deliveries: Dict[Hashable, List[Delivery]],
    live_nodes: Iterable[Hashable],
    deadline_s: float,
    recovered_nodes: Iterable[Hashable] = (),
    recovered_deadline: float = math.inf,
) -> Accounting:
    """Count operations and failures over the measured publishes.

    An operation is one (measured publish, node live at drain) pair. It
    fails when the node has not delivered the event, with the published
    payload, by ``due + deadline_s``; a refused publish fails all its
    pairs. Nodes in *recovered_nodes* were down for part of the run:
    their deadline is the absolute time *recovered_deadline* (the end
    of drain) and their delays stay out of :attr:`Accounting.latencies`
    — an outage is not a delivery delay. Crashed nodes are simply
    absent from *live_nodes*.
    """
    live = list(live_nodes)
    recovered = set(recovered_nodes)
    first_seen: Dict[Hashable, Dict[Hashable, Delivery]] = {}
    for node in live:
        seen: Dict[Hashable, Delivery] = {}
        for delivery in deliveries.get(node, ()):
            seen.setdefault(delivery.event_id, delivery)
        first_seen[node] = seen
    result = Accounting()
    for publish in published:
        if not publish.measured:
            continue
        for node in live:
            result.attempted += 1
            if publish.event_id is None:
                result.fail(f"publish {publish.index} was refused")
                continue
            delivery = first_seen[node].get(publish.event_id)
            if delivery is None:
                result.fail(
                    f"node {node} never delivered event {publish.event_id} "
                    f"(publish {publish.index})"
                )
                continue
            if delivery.payload != publish.payload:
                result.fail(
                    f"node {node} delivered event {publish.event_id} with a "
                    f"payload that was not published"
                )
                continue
            if node in recovered:
                if delivery.at > recovered_deadline:
                    result.fail(
                        f"recovered node {node} delivered event "
                        f"{publish.event_id} after the drain ended"
                    )
                continue
            delay = delivery.at - publish.due
            if delay > deadline_s:
                result.fail(
                    f"node {node} delivered event {publish.event_id} "
                    f"{delay:.3f} s after it was due (limit {deadline_s:.3f} s)"
                )
                continue
            result.latencies.append(delay)
    return result


def check_total_order(
    sequences: Dict[Hashable, Sequence[Hashable]],
    restart_indices: Optional[Dict[Hashable, Sequence[int]]] = None,
    expected: Optional[Sequence[Hashable]] = None,
) -> Optional[str]:
    """EpTO's safety over the drained histories; ``None`` when it holds.

    Every node's delivered sequence must be free of duplicates and
    identical to every other node's. A node with *restart_indices*
    recovered from a crash: re-deliveries after a restart index of
    events already delivered before it are dropped first (the journal
    makes them invisible to the application), then the same rule
    applies. With *expected* (the published ids), every sequence must
    also hold exactly those events. The returned text names the node
    and the event that diverged first.
    """
    restart_indices = restart_indices or {}
    cleaned: Dict[Hashable, List[Hashable]] = {}
    for node, sequence in sequences.items():
        restarts = set(restart_indices.get(node, ()))
        seen: set = set()
        before_restart: set = set()
        out: List[Hashable] = []
        for position, event_id in enumerate(sequence):
            if position in restarts:
                before_restart = set(seen)
            if event_id in seen:
                if event_id in before_restart:
                    continue
                return (
                    f"node {node} delivered event {event_id} twice "
                    f"(second time at position {position})"
                )
            seen.add(event_id)
            out.append(event_id)
        cleaned[node] = out
    if not cleaned:
        return None
    nodes = sorted(cleaned, key=repr)
    reference_node = nodes[0]
    reference = cleaned[reference_node]
    for node in nodes[1:]:
        sequence = cleaned[node]
        for position, (mine, theirs) in enumerate(zip(sequence, reference)):
            if mine != theirs:
                return (
                    f"order violation: node {node} delivered event {mine} at "
                    f"position {position} where node {reference_node} "
                    f"delivered {theirs}"
                )
        if len(sequence) != len(reference):
            shorter, longer = (
                (node, reference_node)
                if len(sequence) < len(reference)
                else (reference_node, node)
            )
            position = min(len(sequence), len(reference))
            missing = cleaned[longer][position]
            return (
                f"node {shorter} stopped after {position} events; node "
                f"{longer} went on to deliver event {missing}"
            )
    if expected is not None:
        want = set(expected)
        got = set(reference)
        if want != got:
            odd = sorted(want ^ got, key=repr)[0]
            kind = "never delivered" if odd in want else "was never published"
            return f"event {odd} {kind} (checked at node {reference_node})"
    return None


def summarize_latencies(latencies: List[float]) -> Tuple[float, float, float]:
    """``(p50_ms, p99_ms, highest supported percentile)`` of delays
    given in seconds."""
    ordered = sorted(latencies)
    return (
        percentile(ordered, 50.0) * 1000.0,
        percentile(ordered, 99.0) * 1000.0,
        highest_supported_percentile(len(ordered)),
    )
