"""Shared numeric defaults and the CLI configuration record."""
from __future__ import annotations

from dataclasses import dataclass

# Global absolute/relative tolerance used by every "is zero" and "is real"
# style test.  Functions accept an override so tolerances travel per call
# chain; nothing in the package mutates global state.
DEFAULT_TOL = 1e-9

DEFAULT_BUDGET = 10_000
DEFAULT_FAMILY_SAMPLES = 3
DEFAULT_SAMPLE_RANGE = (-5.0, 5.0)
DEFAULT_SAMPLE_COUNT = 25


@dataclass(frozen=True)
class Config:
    """Run configuration shared by the CLI commands."""

    tolerance: float = DEFAULT_TOL
    backtrack_budget: int = DEFAULT_BUDGET
    family_samples: int = DEFAULT_FAMILY_SAMPLES
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("backtrack_budget", "family_samples", "sample_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not self.tolerance > 0:  # also rejects NaN
            raise ValueError("tolerance must be positive")
        if self.backtrack_budget <= 0:
            raise ValueError("backtrack budget must be positive")
        if self.family_samples < 0:
            raise ValueError("family samples must not be negative")
        if self.sample_count < 1:
            raise ValueError("sample count must be at least 1")
