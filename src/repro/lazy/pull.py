"""Pull scheduling for lazy-push dissemination.

The :class:`PullManager` tracks every event id this node knows only as
metadata, who advertised it, and which pull requests are in flight. Its
job is to get each payload exactly once with bounded chatter:

* **Duplicate-pull suppression** — an id with an in-flight request is
  never re-requested until that request times out or the advertiser
  explicitly reports the id ``missing``.
* **Batching** — all ids due in a round that resolve to the same
  advertiser share one :class:`~repro.lazy.protocol.PayloadRequest`.
* **Timeout/retry with advertiser fallback** — an unanswered request
  expires after ``timeout_rounds`` rounds; the next attempt rotates to
  the next known advertiser (the original sender of the id-ball, any
  later relayers, and the event's source as the fallback of last
  resort). Retries continue until the payload arrives: the payload
  stores of correct peers retain entries for the whole ordering window,
  so a live advertiser eventually answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.event import EventId
from .protocol import PayloadRequest


@dataclass(slots=True)
class PullStats:
    """Counters for one node's pull scheduling."""

    #: ids for which a first pull request was sent.
    pulls_issued: int = 0
    #: re-requests after a timeout or an explicit miss.
    pulls_retried: int = 0
    #: ids whose payload arrived in a response.
    pulls_served: int = 0
    #: per-id misses reported by advertisers (``missing`` entries).
    pulls_failed: int = 0
    #: requests put on the wire (batched; >= 1 id each).
    requests_sent: int = 0
    #: responses that satisfied at least one pending id.
    responses_used: int = 0


@dataclass(slots=True)
class _PendingPull:
    """Book-keeping for one wanted event id."""

    advertisers: List[int] = field(default_factory=list)
    attempts: int = 0
    inflight_req: Optional[int] = None


class PullManager:
    """Schedules payload pulls for one node.

    Args:
        node_id: Owning node id (never pulled from).
        timeout_rounds: Rounds an in-flight request waits before its
            ids become eligible for a retry at the next advertiser.
        max_ids_per_request: Batch cap per request (wire hygiene).
    """

    def __init__(
        self,
        node_id: int,
        timeout_rounds: int = 2,
        max_ids_per_request: int = 128,
        rng: random.Random | None = None,
    ) -> None:
        if timeout_rounds < 1:
            raise ValueError(f"timeout_rounds must be >= 1, got {timeout_rounds}")
        if max_ids_per_request < 1:
            raise ValueError(
                f"max_ids_per_request must be >= 1, got {max_ids_per_request}"
            )
        self.node_id = node_id
        self.timeout_rounds = timeout_rounds
        self.max_ids_per_request = max_ids_per_request
        self.stats = PullStats()
        self._rng = rng if rng is not None else random.Random()
        self._pending: Dict[EventId, _PendingPull] = {}
        #: req_id -> (advertiser, ids, sent_round).
        self._inflight: Dict[int, Tuple[int, Tuple[EventId, ...], int]] = {}
        self._next_req_id = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Ids whose payload has not arrived yet."""
        return len(self._pending)

    def is_pending(self, event_id: EventId) -> bool:
        return event_id in self._pending

    # ------------------------------------------------------------------
    # Wants and advertisers
    # ------------------------------------------------------------------

    def want(self, event_id: EventId, advertisers: Iterable[int] = ()) -> bool:
        """Register interest in *event_id*; returns whether it was new.

        Safe to call repeatedly (every duplicate metadata sighting):
        an already-pending id just accumulates alternate advertisers.
        """
        state = self._pending.get(event_id)
        created = state is None
        if created:
            state = _PendingPull()
            self._pending[event_id] = state
        for peer in advertisers:
            if peer != self.node_id and peer not in state.advertisers:
                state.advertisers.append(peer)
        return created

    def note_advertiser(self, event_id: EventId, peer: int) -> None:
        """Record that *peer* (re-)advertised a pending id."""
        state = self._pending.get(event_id)
        if state is not None and peer != self.node_id:
            if peer not in state.advertisers:
                state.advertisers.append(peer)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def satisfy(self, event_id: EventId) -> bool:
        """The payload of *event_id* arrived; returns whether it was
        still pending (``False`` for duplicate responses)."""
        state = self._pending.pop(event_id, None)
        if state is None:
            return False
        self.stats.pulls_served += 1
        self._detach(event_id, state)
        return True

    def reject(self, event_id: EventId, peer: int) -> None:
        """Advertiser *peer* reported *event_id* missing.

        The id becomes immediately eligible for a retry at the next
        advertiser instead of waiting out the request timeout. The
        rejecting peer stays in the rotation — it may well hold the
        payload later (it is pulling too).
        """
        state = self._pending.get(event_id)
        if state is None:
            return
        self.stats.pulls_failed += 1
        self._detach(event_id, state)

    def acknowledge(self, req_id: int) -> None:
        """Retire an in-flight request once its response is processed."""
        entry = self._inflight.pop(req_id, None)
        if entry is not None:
            self.stats.responses_used += 1
            _, ids, _ = entry
            for event_id in ids:
                state = self._pending.get(event_id)
                if state is not None and state.inflight_req == req_id:
                    state.inflight_req = None

    def _detach(self, event_id: EventId, state: _PendingPull) -> None:
        """Unlink *event_id* from its in-flight request, if any."""
        req_id = state.inflight_req
        state.inflight_req = None
        if req_id is None:
            return
        entry = self._inflight.get(req_id)
        if entry is None:
            return
        peer, ids, sent_round = entry
        remaining = tuple(i for i in ids if i != event_id)
        if remaining:
            self._inflight[req_id] = (peer, remaining, sent_round)
        else:
            del self._inflight[req_id]

    # ------------------------------------------------------------------
    # Round pacing
    # ------------------------------------------------------------------

    def collect(self, current_round: int) -> List[Tuple[int, PayloadRequest]]:
        """Requests to put on the wire this round.

        Expires timed-out in-flight requests, then batches every
        eligible id by its next advertiser. Returns ``(dst, request)``
        pairs; the caller ships them over its transport.
        """
        self._expire(current_round)
        by_peer: Dict[int, List[EventId]] = {}
        for event_id, state in self._pending.items():
            if state.inflight_req is not None or not state.advertisers:
                continue
            peer = state.advertisers[state.attempts % len(state.advertisers)]
            if state.attempts == 0:
                self.stats.pulls_issued += 1
            else:
                self.stats.pulls_retried += 1
            state.attempts += 1
            by_peer.setdefault(peer, []).append(event_id)
        requests: List[Tuple[int, PayloadRequest]] = []
        for peer, ids in by_peer.items():
            for start in range(0, len(ids), self.max_ids_per_request):
                batch = tuple(ids[start : start + self.max_ids_per_request])
                req_id = self._next_req_id
                self._next_req_id = (self._next_req_id + 1) & 0xFFFFFFFF
                self._inflight[req_id] = (peer, batch, current_round)
                for event_id in batch:
                    self._pending[event_id].inflight_req = req_id
                self.stats.requests_sent += 1
                requests.append((peer, PayloadRequest(req_id=req_id, ids=batch)))
        return requests

    def _expire(self, current_round: int) -> None:
        expired = [
            req_id
            for req_id, (_, _, sent_round) in self._inflight.items()
            if current_round - sent_round >= self.timeout_rounds
        ]
        for req_id in expired:
            _, ids, _ = self._inflight.pop(req_id)
            for event_id in ids:
                state = self._pending.get(event_id)
                if state is not None and state.inflight_req == req_id:
                    state.inflight_req = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PullManager(node={self.node_id}, pending={len(self._pending)}, "
            f"inflight={len(self._inflight)})"
        )
