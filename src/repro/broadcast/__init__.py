"""Baseline epidemic broadcast protocols (no / weaker ordering)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".balls_bins": ("BallsBinsProcess",),
        ".fifo": ("FifoProcess",),
        ".pbcast": ("StabilityOrderedProcess",),
    },
)
