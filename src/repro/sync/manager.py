"""Per-node anti-entropy driver: digest probes and pull sessions.

One :class:`SyncManager` runs beside each journaled EpTO process. It is
transport- and scheduler-agnostic: the hosting fabric calls
:meth:`SyncManager.on_round` once per round interval and routes every
incoming sync message to :meth:`SyncManager.on_message`; the manager
talks back through an injected ``send(dst, message)`` callable. The
simulator drives it from a :class:`~repro.sim.engine.PeriodicTask`
(fully deterministic), the asyncio runtime from a round timer.

State machine (one session at a time, deliberately):

```
IDLE --interval elapsed--> PROBING --answer: peer ahead--> PULLING
 ^                            |  |                            |
 |<--answer: peer not ahead---+  +--timeout: new peer probe   |
 |<------- chunks applied, confirmation probe sent -----------+
```

* **IDLE → PROBING**: every ``interval_rounds`` the manager samples one
  peer from the peer-sampling service and sends a digest probe.
* **PROBING**: an answering digest that shows the peer ahead opens a
  pull session; one that does not marks the node caught up. No answer
  within the timeout re-probes a freshly sampled peer (the previous
  one may be down — that is the very situation anti-entropy exists
  for).
* **PULLING**: cursor-paginated ``SYNC_REQUEST``/``SYNC_CHUNK`` loop
  with per-request timeout, exponential backoff and bounded retries;
  checksum failures count as losses and re-request the same cursor.
  After the final chunk the manager sends a confirmation probe to the
  same peer, so progress the peer made *during* the session is caught
  immediately.

Push-pull: a node receiving a probe answers with its own digest *and*
checks the prober's digest against its own journal — if the prober is
ahead, the responder starts its own pull session. A single probe
therefore repairs whichever side is behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TYPE_CHECKING

from ..core.event import Event, OrderKey
from .config import (
    BACKOFF_FACTOR,
    CHUNK_MAX_BYTES,
    CHUNK_MAX_EVENTS,
    MAX_RETRIES,
    REQUEST_TIMEOUT_ROUNDS,
    SyncConfig,
)
from .protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
    event_wire_cost,
    events_checksum,
    freeze_watermarks,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.process import EpToProcess
    from ..storage.journal import DeliveryJournal


@dataclass
class SyncStats:
    """Counters exposed per node (see docs/SYNC.md)."""

    rounds: int = 0
    probes_sent: int = 0
    probe_timeouts: int = 0
    digests_sent: int = 0
    digests_received: int = 0
    requests_sent: int = 0
    requests_served: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0
    stale_chunks: int = 0
    checksum_failures: int = 0
    retries: int = 0
    timeouts: int = 0
    sessions_started: int = 0
    sessions_completed: int = 0
    sessions_aborted: int = 0
    events_repaired: int = 0
    events_served: int = 0
    bytes_fetched: int = 0
    bytes_served: int = 0


@dataclass
class _PullSession:
    """One in-flight cursor-paginated pull from a single peer."""

    peer: int
    cursor: Optional[OrderKey]
    req_id: int
    rounds_waiting: int = 0
    retries: int = 0


class SyncManager:
    """Anti-entropy state machine for one journaled node.

    Args:
        node_id: Identity of the hosting node (for message addressing).
        journal: The node's live :class:`DeliveryJournal` — source of
            the local digest, the range reads served to peers, and the
            watermark that fetched events are filtered against.
        send: ``send(dst, message)`` transport callable.
        peer_sampler: Object with ``sample(k)`` returning up to ``k``
            live peer ids (the node's peer-sampling service view).
        apply_events: ``apply_events(events) -> int`` — applies fetched
            events through the ordering component's delivery path and
            returns how many were actually delivered (see
            :func:`epto_chunk_applier`).
        config: Protocol parameters.
    """

    def __init__(
        self,
        node_id: int,
        journal: "DeliveryJournal",
        send: Callable[[int, object], None],
        peer_sampler,
        apply_events: Callable[[Sequence[Event]], int],
        config: Optional[SyncConfig] = None,
    ) -> None:
        self.node_id = node_id
        self.journal = journal
        self.config = config or SyncConfig()
        self.stats = SyncStats()
        self._send = send
        self._peer_sampler = peer_sampler
        self._apply = apply_events
        self._session: Optional[_PullSession] = None
        self._probe_waiting: Optional[int] = None  # rounds since last probe
        self._idle_rounds = 0.0
        self._caught_up = False
        self._next_req_id = 1

    # ------------------------------------------------------------------
    # Scheduling surface
    # ------------------------------------------------------------------

    @property
    def caught_up(self) -> bool:
        """Whether the last completed exchange found no peer ahead and
        no pull session is in flight."""
        return self._session is None and self._caught_up

    @property
    def session_active(self) -> bool:
        return self._session is not None

    def kick(self) -> None:
        """Force a digest probe on the next :meth:`on_round` (used for
        immediate catch-up right after recovery)."""
        if self._session is None:
            self._probe_waiting = None
            self._idle_rounds = self.config.interval_rounds

    def on_round(self) -> None:
        """Advance timers; probe, retry, or time out as due."""
        self.stats.rounds += 1
        session = self._session
        if session is not None:
            session.rounds_waiting += 1
            if session.rounds_waiting >= self._timeout_rounds(session.retries):
                self.stats.timeouts += 1
                self._retry_or_abort(session)
            return
        if self._probe_waiting is not None:
            self._probe_waiting += 1
            if self._probe_waiting >= REQUEST_TIMEOUT_ROUNDS:
                # The probed peer never answered (down, or the datagram
                # was lost). Unlike requests there is no backoff: probes
                # are tiny and idempotent, so just ask someone else.
                self.stats.probe_timeouts += 1
                self._send_probe()
            return
        self._idle_rounds += 1
        if self._idle_rounds >= self.config.interval_rounds:
            self._send_probe()

    # ------------------------------------------------------------------
    # Message surface
    # ------------------------------------------------------------------

    def on_message(self, src: int, message: object) -> bool:
        """Route one incoming sync message; returns ``False`` when the
        message is not an anti-entropy type (caller falls through to the
        epidemic path)."""
        if isinstance(message, SyncDigest):
            self._on_digest(src, message)
        elif isinstance(message, SyncRequest):
            self._on_request(src, message)
        elif isinstance(message, SyncChunk):
            self._on_chunk(src, message)
        else:
            return False
        return True

    def local_digest(self) -> DeliveryDigest:
        return DeliveryDigest.of(
            self.journal.last_delivered_key, self.journal.source_watermarks
        )

    # ------------------------------------------------------------------
    # Digest exchange
    # ------------------------------------------------------------------

    def _send_probe(self) -> None:
        peers = self._peer_sampler.sample(1)
        if not peers:
            # No live peer in view; stay idle and retry next interval.
            self._probe_waiting = None
            self._idle_rounds = self.config.interval_rounds
            return
        self.stats.probes_sent += 1
        self.stats.digests_sent += 1
        self._probe_waiting = 0
        self._idle_rounds = 0.0
        self._send(peers[0], SyncDigest(self.local_digest(), reply=True))

    def _on_digest(self, src: int, message: SyncDigest) -> None:
        self.stats.digests_received += 1
        mine = self.local_digest()
        if message.reply:
            self.stats.digests_sent += 1
            self._send(src, SyncDigest(mine, reply=False))
        if self._session is not None:
            return
        if self._probe_waiting is not None and not message.reply:
            self._probe_waiting = None
            self._idle_rounds = 0.0
        if mine.behind(message.digest):
            self._start_session(src)
        elif not message.reply:
            # Concluded exchange with nobody ahead: converged (as far as
            # this sample can tell — the next interval re-checks).
            self._caught_up = True

    # ------------------------------------------------------------------
    # Responder side
    # ------------------------------------------------------------------

    def _on_request(self, src: int, request: SyncRequest) -> None:
        self.stats.requests_served += 1
        watermarks = dict(request.watermarks)
        max_events = max(1, request.max_events)
        max_bytes = max(1, request.max_bytes)
        events = []
        size = 0
        more = False
        for event in self.journal.delivered_after(request.after):
            if event.seq <= watermarks.get(event.source_id, -1):
                continue
            cost = event_wire_cost(event)
            if len(events) >= max_events or (events and size + cost > max_bytes):
                more = True
                break
            events.append(event)
            size += cost
        chunk = SyncChunk(
            req_id=request.req_id,
            events=tuple(events),
            checksum=events_checksum(events),
            more=more,
            peer_last=self.journal.last_delivered_key,
        )
        self.stats.chunks_sent += 1
        self.stats.events_served += len(events)
        self.stats.bytes_served += size
        self._send(src, chunk)

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------

    def _start_session(self, peer: int) -> None:
        self._caught_up = False
        self._probe_waiting = None
        self._idle_rounds = 0.0
        self.stats.sessions_started += 1
        self._session = _PullSession(
            peer=peer, cursor=self.journal.last_delivered_key, req_id=0
        )
        self._send_request(self._session)

    def _send_request(self, session: _PullSession) -> None:
        session.req_id = self._next_req_id
        # Wraps where the wire's u32 field does, so a chunk's echoed id
        # still matches after the 2**32-th request.
        self._next_req_id = (self._next_req_id + 1) & 0xFFFFFFFF
        session.rounds_waiting = 0
        self.stats.requests_sent += 1
        self._send(
            session.peer,
            SyncRequest(
                req_id=session.req_id,
                after=session.cursor,
                watermarks=freeze_watermarks(self.journal.source_watermarks),
                max_events=CHUNK_MAX_EVENTS,
                max_bytes=CHUNK_MAX_BYTES,
            ),
        )

    def _on_chunk(self, src: int, chunk: SyncChunk) -> None:
        session = self._session
        if session is None or src != session.peer or chunk.req_id != session.req_id:
            self.stats.stale_chunks += 1
            return
        if events_checksum(chunk.events) != chunk.checksum:
            # Corrupted in transit below the transport's own checks;
            # treat exactly like a lost chunk and re-pull the cursor.
            self.stats.checksum_failures += 1
            self._retry_or_abort(session)
            return
        self.stats.chunks_received += 1
        session.retries = 0
        session.rounds_waiting = 0
        watermark = self.journal.last_delivered_key
        fresh = [
            event
            for event in chunk.events
            if watermark is None or event.order_key > watermark
        ]
        self.stats.bytes_fetched += sum(event_wire_cost(e) for e in fresh)
        self.stats.events_repaired += self._apply(fresh)
        if chunk.events:
            last = chunk.events[-1].order_key
            session.cursor = (
                last if session.cursor is None else max(session.cursor, last)
            )
        if chunk.more:
            self._send_request(session)
            return
        # Suffix exhausted. Confirm with a fresh probe to the same peer:
        # anything the peer delivered while the session ran shows up in
        # its answer and opens a follow-up session.
        peer = session.peer
        self._session = None
        self.stats.sessions_completed += 1
        self.stats.probes_sent += 1
        self.stats.digests_sent += 1
        self._probe_waiting = 0
        self._idle_rounds = 0.0
        self._send(peer, SyncDigest(self.local_digest(), reply=True))

    def _retry_or_abort(self, session: _PullSession) -> None:
        if session.retries >= MAX_RETRIES:
            self.stats.sessions_aborted += 1
            self._session = None
            # Re-probe (a freshly sampled peer) at the next round.
            self._probe_waiting = None
            self._idle_rounds = self.config.interval_rounds
            return
        session.retries += 1
        self.stats.retries += 1
        self._send_request(session)

    def _timeout_rounds(self, retries: int) -> int:
        scale = BACKOFF_FACTOR**retries
        return max(1, math.ceil(REQUEST_TIMEOUT_ROUNDS * scale))


def epto_chunk_applier(process: "EpToProcess") -> Callable[[Sequence[Event]], int]:
    """Build the ``apply_events`` callable for an EpTO process.

    Fetched events bypass the TTL oracle entirely: they were already
    delivered (hence stable) on the serving peer, so they go straight
    through :meth:`OrderingComponent.deliver_external` in chunk order —
    which is ``(ts, srcId, seq)`` order — and land in the journal/
    application callback exactly like an epidemic delivery. Each event's
    timestamp is merged into the oracle, as Algorithm 4 merges every
    timestamp a node learns, so the node's next broadcast is stamped
    above what it delivered (a no-op on the global clock). Afterwards
    any pending epidemic copies the repair made obsolete are discarded
    so the ordering component never attempts a second, out-of-order
    delivery of the same region.
    """

    def apply(events: Iterable[Event]) -> int:
        ordering = process.ordering
        update_clock = process.oracle.update_clock
        applied = 0
        for event in events:
            update_clock(event.ts)
            if ordering.deliver_external(event):
                applied += 1
        ordering.discard_obsolete_pending()
        return applied

    return apply
