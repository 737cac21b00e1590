"""Experiment scale presets.

The paper's simulator is compiled and its headline configurations
(Figure 7b sweeps to 10,000 processes) are heavy for a pure-Python
reproduction, so every figure driver accepts a *scale*:

* ``"small"`` (default) — CI-friendly sizes that finish in seconds per
  configuration while preserving every qualitative shape the paper
  reports (see DESIGN.md §3);
* ``"paper"`` — the exact sizes from §6; expect minutes to hours.

Select globally with the ``REPRO_SCALE`` environment variable or per
call via the drivers' ``scale`` argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from ..core.errors import ConfigurationError

#: Environment variable that selects the default scale.
SCALE_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True, slots=True)
class ScalePreset:
    """Concrete sizes for one scale level."""

    name: str
    fig6_n: int
    fig6_broadcast_rounds: int
    fig7a_n: int
    fig7a_rates: Sequence[float]
    fig7a_broadcast_rounds: int
    fig7b_sizes: Sequence[int]
    fig7b_broadcast_rounds: int
    sweep_n: int  # figures 8, 9, 10
    sweep_rates: Sequence[float]  # churn / loss levels
    sweep_broadcast_rounds: int
    cyclon_warmup_rounds: int


SMALL = ScalePreset(
    name="small",
    fig6_n=80,
    fig6_broadcast_rounds=6,
    fig7a_n=128,
    fig7a_rates=(0.01, 0.05, 0.10),
    fig7a_broadcast_rounds=5,
    fig7b_sizes=(32, 64, 128, 256),
    fig7b_broadcast_rounds=5,
    sweep_n=128,
    sweep_rates=(0.0, 0.01, 0.05, 0.10),
    sweep_broadcast_rounds=5,
    cyclon_warmup_rounds=10,
)

PAPER = ScalePreset(
    name="paper",
    fig6_n=100,
    fig6_broadcast_rounds=10,
    fig7a_n=500,
    fig7a_rates=(0.01, 0.05, 0.10),
    fig7a_broadcast_rounds=10,
    fig7b_sizes=(100, 500, 1000, 5000, 10000),
    fig7b_broadcast_rounds=10,
    sweep_n=500,
    sweep_rates=(0.0, 0.01, 0.05, 0.10),
    sweep_broadcast_rounds=10,
    cyclon_warmup_rounds=20,
)

_PRESETS = {"small": SMALL, "paper": PAPER}


def get_scale(name: str | None = None) -> ScalePreset:
    """Resolve a scale preset by name, argument > env var > small."""
    if name is None:
        name = os.environ.get(SCALE_ENV_VAR, "small")
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
