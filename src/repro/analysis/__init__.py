"""Analytic machinery: hole-probability bounds, balls-in-bins math,
and the timing/profiling helpers behind ``benchmarks/perf``."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".ballsbins": (
            "EpidemicTrace", "coupon_collector_threshold", "epidemic_growth",
            "expected_empty_bins", "p_all_bins_hit", "p_bin_empty",
            "simulate_gossip_coverage", "simulate_throws",
        ),
        ".empirical": (
            "HoleEstimate", "estimate_hole_probability",
            "smallest_reliable_ttl", "ttl_sweep",
        ),
        ".tradeoffs": (
            "TradeoffPoint", "latency_saving", "rounds_for_coverage",
            "rounds_for_stability", "tradeoff_curve",
        ),
        ".profiling": (
            "Timing", "profile_callable", "speedup", "time_callable",
        ),
        ".differential": (
            "DifferentialScenario", "EngineRun", "assert_engines_equivalent",
            "compare_runs", "run_differential", "run_flat_engine",
            "run_object_engine",
        ),
        ".bounds": (
            "balls_thrown", "hole_bound_series", "log10_p_hole_any_process",
            "log10_p_hole_fixed_process", "p_hole_any_process",
            "p_hole_fixed_process", "smallest_c_for_target",
        ),
    },
)
