"""Anti-entropy catch-up (`repro.sync`).

Pull-based epidemic repair layered on the durable delivery log: nodes
periodically exchange compact digests of delivered-order progress and
pull the missing log suffix from a peer in bounded, CRC-verified
chunks. This is the deterministic complement to EpTO's probabilistic,
TTL-windowed dissemination — a node whose outage outlived the TTL
window converges to the survivors' delivery sequence instead of
diverging forever. See docs/SYNC.md.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".config": ("SyncConfig",),
        ".manager": ("SyncManager", "SyncStats", "epto_chunk_applier"),
        ".protocol": (
            "SYNC_MESSAGE_TYPES", "DeliveryDigest", "SyncChunk", "SyncDigest",
            "SyncRequest", "canonical_event_bytes", "event_wire_cost",
            "events_checksum", "freeze_watermarks",
        ),
    },
)
