"""Workload generators driving the evaluation experiments."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".broadcast": (
            "FixedCountWorkload", "PayloadFactory", "PoissonWorkload",
            "ProbabilisticWorkload", "WorkloadStats", "broadcast_burst",
        ),
        ".replay": ("ReplayStats", "TraceReplayWorkload"),
    },
)
