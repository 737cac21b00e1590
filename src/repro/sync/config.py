"""The anti-entropy catch-up protocol's one setting and its constants."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError

#: Hard cap on events per ``SYNC_CHUNK``.
CHUNK_MAX_EVENTS = 64

#: Soft cap on encoded event bytes per chunk: the first qualifying
#: event is always sent, so a single oversized payload cannot wedge a
#: session. Below the transport datagram limit minus header room.
CHUNK_MAX_BYTES = 32_000

#: Rounds to wait for the chunk answering a request (or the digest
#: answering a probe) before retrying.
REQUEST_TIMEOUT_ROUNDS = 2.0

#: Resend attempts per request before the pull session is aborted (a
#: fresh probe starts over).
MAX_RETRIES = 4

#: Multiplier applied to the request timeout after each retry
#: (exponential backoff).
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True, slots=True)
class SyncConfig:
    """Parameters of one node's :class:`~repro.sync.SyncManager`.

    Attributes:
        interval_rounds: Idle digest-probe period, in EpTO round units
            (the fabrics convert to ticks/seconds with the node's round
            interval). Catch-up after recovery ignores this and starts
            immediately.
    """

    interval_rounds: float = 4.0

    def __post_init__(self) -> None:
        if self.interval_rounds <= 0:
            raise ConfigurationError("interval_rounds must be positive")
