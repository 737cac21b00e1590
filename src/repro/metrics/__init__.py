"""Run instrumentation: delivery metrics, spec checking, reporting."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".cdf": ("DelaySummary", "cdf_at", "cdf_points", "percentile"),
        ".checker": (
            "AuthenticityReport", "SpecReport", "check_authenticity",
            "check_integrity", "check_pairwise_order", "check_run",
            "check_total_order", "check_validity",
        ),
        ".collector": (
            "BroadcastRecord", "DeliveryCollector", "DeliveryRecord",
            "NodeLifetime", "event_fingerprint",
        ),
        ".report": ("format_ascii_cdf", "format_cdf_series", "format_table"),
        ".trace": (
            "RoundStats", "TraceError", "export_trace", "load_delivery_log",
            "load_delivery_logs", "load_trace", "round_timeline",
        ),
    },
)
