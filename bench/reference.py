"""Reference computations for the benchmark's output checks.

Written apart from coopchan: the sum-process transition law comes from
scipy's binomial pmf rather than from the package's closed-form tables, and
transition counts come from a bincount of the benchmark's own.  Parameter
vectors are plain (lam, eta) arrays in the package's flat layout:
lam[i] is the closed->closed stay probability with i channels open
(i = 0..L-1) and eta[i-1] the open->open stay probability with i open
(i = 1..L).
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom


def q_row(L: int, i: int, lam_i: float, eta_i: float) -> np.ndarray:
    """Row i of Q(theta): the number open next step is the sum of the open
    channels that stay open, Binomial(i, eta_i), and the closed channels that
    open, Binomial(L - i, 1 - lam_i), which are independent given the state."""
    stay_open = binom.pmf(np.arange(i + 1), i, eta_i)
    newly_open = binom.pmf(np.arange(L - i + 1), L - i, 1.0 - lam_i)
    return np.convolve(stay_open, newly_open)


def _row_params(lam, eta, i: int) -> tuple[float, float]:
    """(lam_i, eta_i) of row i; a missing entry only multiplies a
    zero-trial binomial, so any placeholder works."""
    L = len(lam)
    return (float(lam[i]) if i < L else 0.0, float(eta[i - 1]) if i >= 1 else 0.0)


def q_matrix(lam, eta) -> np.ndarray:
    """Transition matrix of the sum process, (L+1) x (L+1)."""
    L = len(lam)
    return np.array([q_row(L, i, *_row_params(lam, eta, i)) for i in range(L + 1)])


def recount(values, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition counts of a 0..L valued sequence and the per-row visit
    counts (visits as a transition origin)."""
    values = np.asarray(values, dtype=np.int64)
    dim = L + 1
    counts = np.bincount(values[:-1] * dim + values[1:], minlength=dim * dim)
    counts = counts.reshape(dim, dim)
    return counts, counts.sum(axis=1)


def frequencies(counts: np.ndarray, row_counts: np.ndarray) -> np.ndarray:
    """Row-normalised counts; rows never visited are NaN."""
    out = np.full(counts.shape, np.nan)
    visited = row_counts > 0
    out[visited] = counts[visited] / row_counts[visited, None]
    return out


def objective(lam, eta, entries: np.ndarray) -> float:
    """Squared Frobenius distance between Q(theta) and empirical transition
    frequencies, summed over the visited (non-NaN) rows."""
    q = q_matrix(lam, eta)
    visited = ~np.isnan(entries).any(axis=1)
    diff = q[visited] - entries[visited]
    return float((diff * diff).sum())


def ladder_sse(levels, weights, L: int, offset: float, spacing: float) -> float:
    """Weighted squared distance of each level to its nearest rung of
    offset + i * spacing, i = 0..L (an exact midpoint goes to the lower
    rung)."""
    levels = np.asarray(levels, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rung = np.clip(np.ceil((levels - offset) / spacing - 0.5), 0, L)
    resid = levels - (offset + spacing * rung)
    return float((weights * resid * resid).sum())


def run_lengths(values) -> tuple[np.ndarray, np.ndarray]:
    """Values and lengths of the maximal constant runs of a sequence."""
    values = np.asarray(values)
    cuts = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [len(values)]])
    return values[starts], ends - starts
