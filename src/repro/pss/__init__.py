"""Peer sampling services: idealized uniform view, Cyclon [28], and the
realistic overlay family (HyParView's two-tier views with reactive
repair, Brahms's Byzantine-resilient sampling)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".base": ("MembershipDirectory", "PeerSamplingService"),
        ".brahms": (
            "BRAHMS_MESSAGE_TYPES", "BrahmsPss", "BrahmsPullReply",
            "BrahmsPullRequest", "BrahmsPush",
        ),
        ".cyclon": (
            "CyclonEntry", "CyclonPss", "CyclonRequest", "CyclonResponse",
        ),
        ".hyparview": (
            "HYPARVIEW_MESSAGE_TYPES", "Disconnect", "ForwardJoin",
            "HvShuffle", "HvShuffleReply", "HyParViewPss", "JoinRequest",
            "NeighborReply", "NeighborRequest",
        ),
        ".uniform": ("UniformViewPss",),
    },
)
