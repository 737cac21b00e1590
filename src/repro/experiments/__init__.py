"""Per-figure experiment drivers reproducing the paper's evaluation."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".ablations": (
            "EmpiricalBoundsResult", "FanoutAblationResult",
            "GuardAblationResult", "PhaseAblationResult", "TtlAblationResult",
            "run_ablation_fanout", "run_ablation_guards", "run_ablation_phase",
            "run_ablation_ttl", "run_empirical_bounds",
        ),
        ".common": (
            "ExperimentResult", "ExperimentSpec", "run_experiment",
            "run_sweep",
        ),
        ".fig3_bounds": ("Fig3Result", "run_fig3"),
        ".fig5_latency": ("Fig5Result", "run_fig5"),
        ".fig6_baseline": ("Fig6Result", "run_fig6"),
        ".fig7_scalability": (
            "Fig7aResult", "Fig7bResult", "run_fig7a", "run_fig7b",
        ),
        ".fig7b_flat": ("Fig7bFlatResult", "Fig7bFlatRow", "run_fig7b_flat"),
        ".fig8_churn": ("ChurnSweepResult", "run_churn_sweep", "run_fig8"),
        ".fig9_cyclon": ("run_fig9",),
        ".fig10_loss": ("Fig10Result", "run_fig10"),
        ".registry": ("REGISTRY", "ExperimentEntry", "get_experiment"),
        ".scale": ("PAPER", "SMALL", "ScalePreset", "get_scale"),
    },
)
