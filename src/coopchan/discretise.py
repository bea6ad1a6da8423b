"""Grouping of idealised conductance levels into open-channel counts.

The level ladder (offset + spacing per open channel, L + 1 rungs) is fitted
by duration-weighted least squares under the equal-spacing constraint, and
each sample maps to its nearest rung.  ``pipeline.fit_ladder`` chooses L by
comparing these fits.
"""

from __future__ import annotations

import numpy as np

from .core import DiscreteTrace, LevelLadder
from .idealise import Idealisation


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values[order][min(k, len(values) - 1)])


def level_groups(levels) -> list[np.ndarray]:
    """Split sorted unique levels at large gaps.

    A gap splits when it exceeds 3 times the weight-median gap and the
    span-scale floor span / 42.  Gap weights are the smaller of the two
    adjacent levels' counts, so stray levels cannot drag the splitting scale
    down; the floor keeps the tail of the within-cluster gap distribution
    from fragmenting dense level sets.  At most 20 splits are kept (largest
    gaps win).  When no gap qualifies but all gaps are within a factor 3 of
    each other, the levels already form a ladder and every unique level is
    its own group.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("need at least one level")
    uniq, agg = np.unique(levels, return_counts=True)
    if len(uniq) == 1:
        return [uniq]
    gaps = np.diff(uniq)
    gap_weights = np.minimum(agg[:-1], agg[1:])
    threshold = max(3.0 * _weighted_median(gaps, gap_weights), (uniq[-1] - uniq[0]) / 42.0)
    split_after = np.nonzero(gaps > threshold)[0]
    if len(split_after) == 0 and gaps.max() <= 3.0 * gaps.min():
        return [uniq[i:i + 1] for i in range(len(uniq))]
    if len(split_after) > 20:
        order = np.argsort(-gaps[split_after], kind="stable")
        split_after = np.sort(split_after[order[:20]])
    groups = np.split(uniq, split_after + 1)
    group_weights = [agg[np.searchsorted(uniq, g)].sum() for g in groups]
    return _merge_stray_groups(groups, group_weights)


def _merge_stray_groups(groups, group_weights):
    """Fold groups that a histogram reader would not see as peaks into their
    nearest neighbour: under 2% of the total weight and closer than three
    quarters of the median inter-group gap.  Distant light groups (rarely
    visited ladder rungs) survive."""
    while len(groups) > 1:
        centroids = np.array([float(np.mean(g)) for g in groups])
        weights = np.asarray(group_weights, dtype=float)
        gaps = np.diff(centroids)
        typical = float(np.median(gaps))
        shares = weights / weights.sum()
        candidates = []
        for j in range(len(groups)):
            dists = []
            if j > 0:
                dists.append((gaps[j - 1], j - 1))
            if j < len(groups) - 1:
                dists.append((gaps[j], j + 1))
            dist, neighbour = min(dists)
            if shares[j] < 0.02 and dist < 0.75 * typical:
                candidates.append((shares[j], j, neighbour))
        if not candidates:
            break
        _, j, neighbour = min(candidates)
        lo, hi = min(j, neighbour), max(j, neighbour)
        groups[lo:hi + 1] = [np.concatenate([groups[lo], groups[hi]])]
        group_weights[lo:hi + 1] = [group_weights[lo] + group_weights[hi]]
    return groups


def _weighted_ls(levels, weights, idx):
    """Least squares (offset, spacing) for fixed rung assignments; returns
    None when the system is singular (all weight on one rung)."""
    w = weights
    sw = w.sum()
    si = (w * idx).sum()
    sii = (w * idx * idx).sum()
    sx = (w * levels).sum()
    six = (w * idx * levels).sum()
    det = sw * sii - si * si
    if det <= 1e-12 * max(sw * sii, 1e-300):
        return None
    offset = (sii * sx - si * six) / det
    spacing = (sw * six - si * sx) / det
    return offset, spacing


def _sse(levels, weights, L, offset, spacing):
    idx = LevelLadder(L, offset, spacing).nearest_rung(levels)
    resid = levels - (offset + spacing * idx)
    return float((weights * resid * resid).sum()), idx


def _polish(levels, weights, L, offset, spacing, max_iter=60):
    best_sse, idx = _sse(levels, weights, L, offset, spacing)
    best = (offset, spacing)
    for _ in range(max_iter):
        fit = _weighted_ls(levels, weights, idx)
        if fit is None or fit[1] <= 0:
            break
        sse, new_idx = _sse(levels, weights, L, *fit)
        if sse < best_sse - 1e-15:
            best_sse, best = sse, fit
        if np.array_equal(new_idx, idx):
            break
        idx = new_idx
    return best_sse, best


def grid_sse(levels, weights, L, offsets, spacings):
    """Vectorized nearest-rung SSE over an (offset, spacing) candidate grid:
    returns each candidate's (sse, offset, spacing) as arrays, in C order."""
    levels = np.asarray(levels, float)
    weights = np.asarray(weights, float)
    off = np.repeat(offsets, len(spacings))
    spc = np.tile(spacings, len(offsets))
    t = (levels[None, :] - off[:, None]) / spc[:, None]
    idx = np.clip(np.ceil(t - 0.5), 0, L)
    resid = levels[None, :] - (off[:, None] + spc[:, None] * idx)
    return (weights[None, :] * resid * resid).sum(axis=1), off, spc


def equal_spacing_cluster(levels, weights=None, L: int = 1) -> LevelLadder:
    """Fit rungs offset + i*spacing, i = 0..L, minimizing the weighted sum of
    squared deviations of each level from its nearest rung.

    A candidate grid of (offset, spacing) pairs built from the data range
    (hence affine equivariant) is scanned, and the 20 best candidates are
    polished by alternating nearest-rung assignment and weighted least
    squares; the lowest polished SSE wins.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("need at least one level")
    if L < 1:
        raise ValueError("L must be >= 1")
    weights = np.ones_like(levels) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != levels.shape or (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive total")
    lo, hi = float(levels.min()), float(levels.max())
    span = hi - lo
    if span <= 0:
        raise ValueError("need at least two distinct levels")

    spacing_cands = span / L * np.linspace(0.15, 1.25, 23)
    centroids = np.sort([float(np.mean(g)) for g in level_groups(levels)])
    gaps = np.diff(centroids)
    spacing_cands = np.concatenate([spacing_cands, gaps[gaps > 0]])
    offset_cands = lo + span * np.linspace(-0.25, 0.35, 25)

    sse, off, spc = grid_sse(levels, weights, L, offset_cands, spacing_cands)
    order = np.argsort(sse, kind="stable")[:20]
    best_sse, best = np.inf, None
    for k in order:
        polished_sse, fit = _polish(levels, weights, L, float(off[k]), float(spc[k]))
        if polished_sse < best_sse - 1e-15:
            best_sse, best = polished_sse, fit
    offset, spacing = best
    return LevelLadder(L=L, offset=float(offset), spacing=float(spacing), sse=float(best_sse))


def discretise_trace(ideal: Idealisation, ladder: LevelLadder, sample_rate: float) -> DiscreteTrace:
    """Per-sample open-channel counts: each sample's idealised level maps to
    the nearest rung (midpoints round down)."""
    return DiscreteTrace(ladder.nearest_rung(ideal.fit.per_sample(sample_rate)), ladder)
