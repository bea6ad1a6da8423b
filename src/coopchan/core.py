"""Shared signal types: step functions, level ladders, discrete traces, and
the checked weighted levels a ladder is fitted to.

Sampling convention used throughout the package: a recording of n samples
lives on the grid t_k = k / sample_rate for k = 1..n, so t_n = t_max.  A
switch between sample k and sample k+1 is placed at the midpoint
(k + 0.5) / sample_rate.  No other module places samples or switches on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sample_times(n: int, sample_rate: float) -> np.ndarray:
    """The grid times t_k = k / sample_rate of samples k = 1..n."""
    return np.arange(1, n + 1) / sample_rate


def run_starts(values) -> np.ndarray:
    """Index of the first sample of each maximal run of equal values (none
    for no values)."""
    values = np.asarray(values)
    return np.flatnonzero(np.concatenate([[len(values) > 0], values[1:] != values[:-1]]))


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, t_max].

    ``breaks`` holds the K+2 boundaries 0 = tau_0 < ... < tau_{K+1} = t_max
    and ``levels`` the K+1 values; segment j is [breaks[j], breaks[j+1]) and
    adjacent levels differ.
    """

    breaks: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        levels = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "levels", levels)
        if breaks.ndim != 1 or levels.ndim != 1 or len(breaks) != len(levels) + 1:
            raise ValueError("need K+2 breakpoints for K+1 levels")
        if len(levels) == 0:
            raise ValueError("need at least one segment")
        if breaks[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not np.all(np.diff(breaks) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(levels) > 1 and np.any(levels[1:] == levels[:-1]):
            raise ValueError("adjacent levels must differ")

    @classmethod
    def on_grid(cls, starts, levels, n: int, sample_rate: float) -> "StepFunction":
        """n samples in which segment j holds levels[j] from sample starts[j]
        (starts[0] = 0) on, each switch half a sample before its segment."""
        inner = (np.asarray(starts[1:]) + 0.5) / sample_rate
        return cls(np.concatenate([[0.0], inner, [n / sample_rate]]), levels)

    @property
    def n_changes(self) -> int:
        return len(self.levels) - 1

    @property
    def t_max(self) -> float:
        return float(self.breaks[-1])

    def per_sample(self, sample_rate: float) -> np.ndarray:
        """Level of each of the rint(t_max * sample_rate) samples: that of the
        last segment that starts at or before the sample's time."""
        times = sample_times(int(np.rint(self.t_max * sample_rate)), sample_rate)
        starts = np.searchsorted(times, self.breaks[1:-1], side="left")
        return np.repeat(self.levels, np.diff(starts, prepend=0, append=len(times)))

    def durations(self) -> np.ndarray:
        return np.diff(self.breaks)


@dataclass(frozen=True)
class LevelLadder:
    """Arithmetic level ladder: rung i sits at offset + i * spacing, i = 0..L."""

    L: int
    offset: float
    spacing: float
    sse: float = 0.0

    def __post_init__(self):
        if not float(self.L).is_integer():
            raise ValueError(f"L must be an integer, got {self.L!r}")
        if int(self.L) < 1:
            raise ValueError("L must be >= 1")
        object.__setattr__(self, "L", int(self.L))
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    def rungs(self) -> np.ndarray:
        return self.offset + self.spacing * np.arange(self.L + 1)

    def nearest_rung(self, x) -> np.ndarray:
        """Nearest rung index; an exact midpoint maps to the lower rung."""
        t = (np.asarray(x, dtype=float) - self.offset) / self.spacing
        idx = np.ceil(t - 0.5).astype(np.int64)
        return np.clip(idx, 0, self.L)


def checked_levels(levels, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Levels and their weights (uniform by default) as float arrays, after
    checking that there is a level, that every level and weight is finite,
    and that the weights match the levels, are nonnegative and have a
    positive total."""
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("need at least one level")
    weights = np.ones_like(levels) if weights is None else np.asarray(weights, dtype=float)
    for name, values in (("levels", levels), ("weights", weights)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{name} must be finite: {bad.size} of {values.size} are not, "
                             f"the first {values.flat[bad[0]]} at index {bad[0]}")
    if weights.shape != levels.shape or (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive total")
    return levels, weights


@dataclass(frozen=True)
class DiscreteTrace:
    """Open-channel count per sample, together with the fitted level ladder."""

    values: np.ndarray
    ladder: LevelLadder

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("trace must hold at least one sample")
        if not np.issubdtype(values.dtype, np.integer):
            raise ValueError("trace values must be integers")
        object.__setattr__(self, "values", values)
        if values.min() < 0 or values.max() > self.ladder.L:
            raise ValueError("trace values must lie in {0,...,L}")

    def __len__(self) -> int:
        return len(self.values)
