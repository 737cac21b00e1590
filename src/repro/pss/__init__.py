"""Peer sampling services: the idealized uniform view and Cyclon [28],
the two the paper evaluates (Figure 9)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".base": ("MembershipDirectory",),
        ".cyclon": (
            "CyclonEntry", "CyclonPss", "CyclonRequest", "CyclonResponse",
        ),
        ".uniform": ("UniformViewPss",),
    },
)
