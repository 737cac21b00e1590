"""Multi-topic broadcast service: many EpTO streams, one transport.

The service multiplexes any number of independent EpTO topics over a
single fabric endpoint per host (docs/SERVICE.md): a
:class:`~repro.service.demux.TopicDemux` frames each topic's traffic
into :class:`~repro.runtime.codec.TopicEnvelope` datagrams, a
:class:`BroadcastService` runs one round task ticking every topic's
engine (so cross-topic balls batch into shared datagrams), and clients
use ``await service.publish(topic, payload)`` plus bounded async
subscriptions. :class:`ServiceCluster` orchestrates N hosts for tests
and drills; :class:`ServiceReplica` hosts a state machine on one topic.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".cluster": ("ServiceCluster",),
        ".demux": ("DemuxStats", "TopicChannel", "TopicDemux"),
        ".service": (
            "BackpressureError", "BroadcastService", "ServiceStats",
            "Subscription", "TopicState",
        ),
        ".tenant": ("ServiceReplica",),
    },
)
