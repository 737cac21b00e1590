"""Specification checker: the paper's Table 1 over a finished run.

The one module that knows what Table 1 means. A run is judged over one
*history* shape — per node, the delivered ``(event id, order key,
fingerprint)`` triples in delivery order — by one copy of each check:

* **Integrity** — every process delivered each event at most once, and
  only previously broadcast events;
* **Total Order** — every process's sequence is strictly increasing in
  the order key ``(ts, src, seq)``, so any two processes order their
  common events alike (paper Figure 1b is the canonical violation);
* **Validity** — every correct process delivered its own broadcasts;
* **Agreement** — one pass over the correct processes yields every
  missed ``(node, event)`` pair, an event some correct process
  delivered and this one did not. A *hole* (paper Figure 1a) is a miss
  below the node's last delivered key: allowed with arbitrarily low
  probability, and counted (the paper observed none);
* **Authenticity** (hostile-world extension, docs/SECURITY.md) — every
  delivered content is what its source broadcast, and no id is
  delivered with two contents.

Two adapters build the history from the two inputs that exist:
:func:`check_run` from a :class:`~repro.metrics.collector.DeliveryCollector`
(simulator drills, experiments, examples) and :func:`check_survivors`
from per-node :class:`~repro.core.event.Event` journals (the asyncio
runtime, the service, ``service-drill``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.event import Event, EventId, OrderKey
from .collector import DeliveryCollector, event_fingerprint

#: Per node, its deliveries in delivery order as ``(event id, order
#: key, fingerprint)``; the fingerprint is ``None`` when content is not
#: checked.
History = Dict[int, List[Tuple[EventId, OrderKey, Optional[int]]]]
#: Per broadcast id, ``(order key, source, fingerprint)`` as broadcast.
Genuine = Dict[EventId, Tuple[OrderKey, int, Optional[int]]]


@dataclass(slots=True)
class SpecReport:
    """Outcome of checking one run against the Table 1 specification.

    ``integrity_violations``, ``order_violations`` and
    ``validity_violations`` must be empty for any legal EpTO run
    (deterministic guarantees). ``missed`` lists every ``(node, event)``
    pair a correct process lacks; its subset ``holes`` may be non-empty
    with arbitrarily low probability (probabilistic agreement), and the
    rest lie past a node's last delivery, which quiescence drains.
    ``forged_deliveries`` (content unlike the genuine broadcast, or an
    id never broadcast) and ``equivocated_events`` (an id delivered
    with two or more contents) are filled only for fingerprinted
    deliveries.

    ``checked_nodes`` counts the processes whose deliveries were
    judged; ``checked_events`` counts the distinct events delivered by
    at least one correct process, which is what agreement covers;
    ``checked_deliveries`` counts the deliveries content-checked.
    """

    integrity_violations: List[str] = field(default_factory=list)
    order_violations: List[str] = field(default_factory=list)
    validity_violations: List[str] = field(default_factory=list)
    missed: List[Tuple[int, EventId]] = field(default_factory=list)
    holes: List[Tuple[int, EventId]] = field(default_factory=list)
    forged_deliveries: List[str] = field(default_factory=list)
    equivocated_events: List[str] = field(default_factory=list)
    checked_nodes: int = 0
    checked_events: int = 0
    checked_deliveries: int = 0

    @property
    def safety_ok(self) -> bool:
        """Deterministic safety: integrity + total order + validity."""
        return not (
            self.integrity_violations
            or self.order_violations
            or self.validity_violations
        )

    @property
    def agreement_ok(self) -> bool:
        """Probabilistic agreement held exactly (zero holes)."""
        return not self.holes

    @property
    def ok(self) -> bool:
        """Every check held: safety, no missed event at all (judge after
        quiescence) and no forged or equivocated content."""
        return self.safety_ok and not (
            self.missed or self.forged_deliveries or self.equivocated_events
        )

    def summary(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"safety={'OK' if self.safety_ok else 'VIOLATED'} "
            f"holes={len(self.holes)} missed={len(self.missed)} "
            f"forged={len(self.forged_deliveries)} "
            f"equivocated={len(self.equivocated_events)} "
            f"nodes={self.checked_nodes} events={self.checked_events}"
        )


def check_total_order(sequences: Mapping[int, Sequence[OrderKey]]) -> List[str]:
    """Total order: common events appear in the same relative order.

    Because EpTO's delivery order is the deterministic key order
    ``(ts, src, seq)``, it suffices to check that every process's
    sequence is strictly increasing in the key — two strictly
    increasing sequences over the same key space can never order a
    common pair differently. This turns the quadratic pairwise check
    into a linear one; the pairwise semantics (paper Figure 1b) are
    exercised directly in the test suite against adversarial sequences
    via :func:`check_pairwise_order`.
    """
    violations: List[str] = []
    for node_id, seq in sequences.items():
        for earlier, later in zip(seq, seq[1:]):
            if earlier >= later:
                violations.append(
                    f"node {node_id} delivered {later} after {earlier} "
                    f"(non-increasing order keys)"
                )
    return violations


def check_pairwise_order(
    seq_p: Sequence[OrderKey], seq_q: Sequence[OrderKey]
) -> List[Tuple[OrderKey, OrderKey]]:
    """Direct Figure 1 check between two delivery sequences.

    Returns the conflicting pairs, each normalized so the smaller order
    key comes first — the exact condition violated in paper Figure 1b.
    Quadratic in the common-event count; intended for tests and small
    diagnostics rather than full runs.
    """
    pos_p = {key: idx for idx, key in enumerate(seq_p)}
    common = [key for key in seq_q if key in pos_p]
    conflicts: List[Tuple[OrderKey, OrderKey]] = []
    pos_q = {key: idx for idx, key in enumerate(seq_q)}
    for i, first in enumerate(common):
        for second in common[i + 1 :]:
            p_order = pos_p[first] < pos_p[second]
            q_order = pos_q[first] < pos_q[second]
            if p_order != q_order:
                low, high = sorted((first, second))
                conflicts.append((low, high))
    return conflicts


def _integrity_and_order(report: SpecReport, history: History) -> None:
    """Each event at most once per node, in strictly increasing keys."""
    for node_id, deliveries in history.items():
        seen: Set[EventId] = set()
        for event_id, _, _ in deliveries:
            if event_id in seen:
                report.integrity_violations.append(
                    f"node {node_id} delivered event {event_id} twice"
                )
            seen.add(event_id)
    report.order_violations += check_total_order(
        {node_id: [key for _, key, _ in d] for node_id, d in history.items()}
    )


def _content(report: SpecReport, history: History, genuine: Genuine) -> None:
    """Integrity's broadcast test and the authenticity scan, in one pass.

    A delivered id that was never broadcast violates integrity (and is a
    forged delivery when fingerprinted); a fingerprint unlike the one
    its source broadcast is forged content; an id delivered with two or
    more fingerprints across the scanned nodes is equivocated.
    """
    sightings: Dict[EventId, Set[int]] = {}
    for node_id, deliveries in history.items():
        for event_id, _, fingerprint in deliveries:
            expected = genuine.get(event_id)
            if expected is None:
                message = f"node {node_id} delivered never-broadcast event {event_id}"
                report.integrity_violations.append(message)
                if fingerprint is not None:
                    report.forged_deliveries.append(message)
            if fingerprint is None:
                continue
            report.checked_deliveries += 1
            if expected is not None and fingerprint != expected[2]:
                report.forged_deliveries.append(
                    f"node {node_id} delivered forged content for event {event_id}"
                )
            sightings.setdefault(event_id, set()).add(fingerprint)
    for event_id, fingerprints in sorted(sightings.items()):
        if len(fingerprints) > 1:
            report.equivocated_events.append(
                f"event {event_id} delivered with {len(fingerprints)} "
                f"distinct contents across correct nodes"
            )


def _agreement(
    report: SpecReport, history: History, correct: Set[int], genuine: Genuine
) -> Dict[int, Set[EventId]]:
    """Every miss among the *correct* nodes, and the holes among them.

    The events covered are those some correct node delivered — one that
    vanished entirely violates nothing, since agreement is conditional
    on *some* process delivering. An event is placed by its broadcast
    key (by its first sighting when never broadcast). Returns each
    correct node's delivered ids.
    """
    nodes = sorted(correct)
    delivered = {n: {event_id for event_id, _, _ in history[n]} for n in nodes}
    keys: Dict[EventId, OrderKey] = {}
    for node_id in nodes:
        for event_id, key, _ in history[node_id]:
            if event_id not in keys:
                keys[event_id] = genuine[event_id][0] if event_id in genuine else key
    ordered = sorted(keys, key=keys.__getitem__)
    report.checked_events = len(ordered)
    for node_id in nodes:
        last = max((key for _, key, _ in history[node_id]), default=None)
        for event_id in ordered:
            if event_id not in delivered[node_id]:
                report.missed.append((node_id, event_id))
                if last is not None and keys[event_id] < last:
                    report.holes.append((node_id, event_id))
    return delivered


def _history(collector: DeliveryCollector, excluded: Set[int]) -> History:
    """The collector's deliveries per node, minus *excluded* nodes."""
    records: Dict[int, list] = {}
    for record in collector.deliveries():
        if record.node_id not in excluded:
            records.setdefault(record.node_id, []).append(record)
    return {
        node_id: [
            (record.event_id, key, record.fingerprint)
            for record, key in zip(node_records, collector.sequence_of(node_id))
        ]
        for node_id, node_records in records.items()
    }


def _genuine(collector: DeliveryCollector) -> Genuine:
    return {
        record.event.id: (
            record.event.order_key,
            record.event.source_id,
            collector.genuine_fingerprint(record.event.id),
        )
        for record in collector.broadcasts()
    }


def check_run(
    collector: DeliveryCollector,
    correct_nodes: Set[int] | Sequence[int] | None = None,
    exclude_nodes: Iterable[int] = (),
) -> SpecReport:
    """Full Table 1 check of a recorded run.

    Every delivering process is held to integrity and total order, and
    to authenticity when the collector fingerprints
    (``DeliveryCollector(fingerprints=True)``).

    Args:
        collector: The run's recorded broadcasts and deliveries.
        correct_nodes: Processes expected to satisfy validity and
            agreement; defaults to every process that delivered at
            least one event (i.e. the whole system when there is no
            churn).
        exclude_nodes: Processes dropped from every scan (integrity and
            order included) — state-scrambled nodes whose convergence
            is judged on their durable journal instead of the
            in-memory trace.
    """
    excluded = set(exclude_nodes)
    history = _history(collector, excluded)
    correct = set(history if correct_nodes is None else correct_nodes) - excluded
    for node_id in correct:
        history.setdefault(node_id, [])
    genuine = _genuine(collector)
    report = SpecReport(checked_nodes=len(history))
    _integrity_and_order(report, history)
    _content(report, history, genuine)
    delivered = _agreement(report, history, correct, genuine)
    report.validity_violations = [
        f"correct node {source} never delivered its own event {event_id}"
        for event_id, (_, source, _) in genuine.items()
        if source in delivered and event_id not in delivered[source]
    ]
    return report


def check_authenticity(
    collector: DeliveryCollector,
    correct_nodes: Optional[Iterable[int]] = None,
) -> SpecReport:
    """The content scan of :func:`check_run` alone, over *correct_nodes*.

    Requires ``DeliveryCollector(fingerprints=True)``: every delivery's
    canonical-bytes fingerprint is compared against the fingerprint its
    claimed source recorded at broadcast time, and mutually against
    other checked nodes' sightings of the same id. *correct_nodes*
    restricts the scan (hostile nodes' own deliveries carry no
    guarantees) without dropping a node from it for any other reason;
    ``None`` checks every node. Only the integrity, forged and
    equivocated lists are filled.
    """
    nodes = set(collector.sequences())
    excluded = set() if correct_nodes is None else nodes - set(correct_nodes)
    history = _history(collector, excluded)
    report = SpecReport(checked_nodes=len(history))
    _content(report, history, _genuine(collector))
    return report


def check_survivors(
    deliveries: Mapping[int, Sequence[Event]],
    survivors: Iterable[int],
    recovered: Iterable[int] = (),
    restart_indices: Mapping[int, Sequence[int]] | None = None,
    byzantine: Iterable[int] = (),
    broadcasts: Optional[Mapping[EventId, Event]] = None,
) -> SpecReport:
    """Table 1 check of per-node event journals after a fault scenario.

    Args:
        deliveries: Per-node delivered events in delivery order (the
            :attr:`AsyncCluster.deliveries` journal, or any equivalent).
        survivors: Nodes that were continuously alive; held to
            integrity and total order over their whole journal, and to
            agreement: every event one of them delivered, all of them
            must have delivered (evaluate after quiescence).
        recovered: Nodes that crashed and were resurrected under the
            same id; held to integrity and total order on their
            post-restart suffix only, and exempt from agreement for
            events that flew while they were dead.
        restart_indices: Per-node journal indices where each respawn
            began (:attr:`AsyncCluster.restart_indices`); a recovered
            node's suffix starts at its last restart index (0 when
            absent).
        byzantine: Hostile nodes — removed from *survivors* and
            *recovered* before checking; their journals carry no
            guarantees and must not pollute the agreement union.
        broadcasts: Genuine events by id, as broadcast by their
            sources. When given, every delivery in a survivor's or
            recovered node's whole journal is also content-checked, as
            :func:`check_run` does on a fingerprinting collector.

    Returns:
        A :class:`SpecReport`; assert on ``report.ok``.
    """
    hostile = set(byzantine)
    survivors = set(survivors) - hostile
    recovered = set(recovered) - survivors - hostile
    content = broadcasts is not None
    journals: History = {
        node_id: [
            (event.id, event.order_key, event_fingerprint(event) if content else None)
            for event in deliveries.get(node_id, ())
        ]
        for node_id in sorted(survivors | recovered)
    }
    starts = {
        node_id: ((restart_indices or {}).get(node_id) or [0])[-1]
        for node_id in recovered
    }
    suffixes = {n: journal[starts.get(n, 0):] for n, journal in journals.items()}
    report = SpecReport(checked_nodes=len(journals))
    _integrity_and_order(report, suffixes)
    genuine: Genuine = {}
    if content:
        genuine = {
            event_id: (event.order_key, event.source_id, event_fingerprint(event))
            for event_id, event in broadcasts.items()
        }
        _content(report, journals, genuine)
    _agreement(report, journals, survivors, genuine)
    return report
