"""Lazy-push dissemination: metadata balls plus on-demand payload pull.

EpTO's eager mode ships every event payload to ``K`` peers per round,
so relay traffic is ``O(K * ball_bytes)`` per node-round — the dominant
bandwidth cost at production fan-out. This package implements the
push-pull hybrid analysed in "Optimal epidemic dissemination" (Mercier,
Hayez, Matos): balls carry only event *metadata* (id, source, ts, ttl)
eagerly, and each node pulls every payload exactly once (plus retries)
from a peer that advertised it. The ordering component is untouched —
metadata alone drives ordering, and delivery blocks only on payload
arrival. See docs/OVERLAY.md.

Components:

* :class:`~repro.lazy.protocol.IdBall` /
  :class:`~repro.lazy.protocol.PayloadRequest` /
  :class:`~repro.lazy.protocol.PayloadResponse` — the three wire
  messages (codec kinds 9–11);
* :class:`~repro.lazy.store.PayloadStore` — TTL-bounded payload
  retention keyed off the ordering window;
* :class:`~repro.lazy.pull.PullManager` — duplicate-pull suppression,
  per-request timeout/retry, fallback to alternate advertisers;
* :class:`~repro.lazy.process.LazyEpToProcess` — a drop-in
  ``GossipProcess`` wrapping the unmodified core components, selected
  by ``EpToConfig(mode="lazy")`` in both runtimes and the service.
"""

from .process import LazyEpToProcess, LazyStats
from .protocol import LAZY_MESSAGE_TYPES, IdBall, PayloadRequest, PayloadResponse
from .pull import PullManager
from .store import PayloadStore

__all__ = [
    "IdBall",
    "LAZY_MESSAGE_TYPES",
    "LazyEpToProcess",
    "LazyStats",
    "PayloadRequest",
    "PayloadResponse",
    "PullManager",
    "PayloadStore",
]
