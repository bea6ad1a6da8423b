"""Minimum distance estimation of the ensemble parameters.

The estimator minimizes the squared Frobenius distance between the model's
sum-process transition matrix and the empirical transition frequencies over
the parameter box [0,1]^(2L).  Because row i of the model matrix depends only
on (lam_i, eta_i), the objective separates across rows: both the full
product-grid initialization and the fit itself are computed exactly, row by
row, as L+1 two-parameter problems, and the 9^(2L) grid is never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DiscreteTrace
from .model import (
    CooperativityReport,
    ParamVector,
    TransitionMatrix,
    classify_cooperativity,
    _row_params,
    transition_rows,
)


DEFAULT_GRID = tuple(np.round(np.arange(0.1, 0.95, 0.1), 10))


@dataclass
class MdeResult:
    theta_hat: ParamVector
    objective: float
    diagnostics: dict = field(default_factory=dict)


def empirical_transition_matrix(trace, L: int | None = None) -> TransitionMatrix:
    """Transition frequencies of a discrete trace; rows of states that were
    never visited (as transition origins) are masked."""
    values = np.asarray(trace.values if isinstance(trace, DiscreteTrace) else trace)
    if L is None:
        if not isinstance(trace, DiscreteTrace):
            raise ValueError("L is required for a bare value sequence")
        L = trace.ladder.L
    if len(values) < 2:
        raise ValueError("need at least two samples to count transitions")
    if values.min() < 0 or values.max() > L:
        raise ValueError(f"trace values outside 0..{L}")
    dim = L + 1
    flat = values[:-1] * dim + values[1:]
    counts = np.bincount(flat, minlength=dim * dim).reshape(dim, dim).astype(float)
    row_counts = counts.sum(axis=1)
    entries = np.full((dim, dim), np.nan)
    visited = row_counts > 0
    entries[visited] = counts[visited] / row_counts[visited, None]
    return TransitionMatrix(entries, row_counts=row_counts.astype(np.int64))


def _row_residuals(theta: ParamVector, q_hat: TransitionMatrix) -> np.ndarray:
    out = np.zeros(theta.L + 1)
    for i in np.flatnonzero(q_hat.row_mask()):
        li, ei = _row_params(theta, i)
        out[i] = _residuals(theta.L, i, q_hat.entries[i], np.array([[li]]),
                            np.array([[ei]]))[0, 0, 0]
    return out


def mde_objective(theta: ParamVector, q_hat: TransitionMatrix) -> float:
    """Squared Frobenius distance between model and empirical transition
    matrices; masked rows contribute nothing."""
    if q_hat.dim != theta.L + 1:
        raise ValueError(f"matrix dim {q_hat.dim} does not match L = {theta.L}")
    return float(_row_residuals(theta, q_hat).sum())


def grid_init(q_hat: TransitionMatrix, L: int, grid=DEFAULT_GRID) -> ParamVector:
    """Exact arg-min of the objective over the full product grid.

    Row separability reduces the product-grid search to an independent scan
    of the candidate (lam_i, eta_i) pairs per row; ties resolve to the
    lexicographically smallest parameter vector (masked rows therefore take
    the smallest grid value).  The middle row of an even L is scanned on
    the plus branch, as the fit solves it; a grid with no plus point there
    leaves that row at its smallest candidate.
    """
    if q_hat.dim != L + 1:
        raise ValueError(f"matrix dim {q_hat.dim} does not match L = {L}")
    grid = np.asarray(sorted(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    lam = np.full(L, grid[0])
    eta = np.full(L, grid[0])
    half = L // 2 if L % 2 == 0 else None
    for i in np.flatnonzero(q_hat.row_mask()):
        lam_axis = grid if i < L else np.zeros(1)
        eta_axis = grid if i >= 1 else np.zeros(1)
        # lam-major candidates over the sorted grid are in lexicographic order
        vals = _residuals(L, i, q_hat.entries[i], lam_axis[None], eta_axis[None],
                          plus=i == half).ravel()
        first = np.flatnonzero(vals <= vals.min() + 1e-15)[0]
        if i < L:
            lam[i] = lam_axis[first // eta_axis.size]
        if i >= 1:
            eta[i - 1] = eta_axis[first % eta_axis.size]
    return ParamVector(L, lam, eta)


_OFFSETS = np.linspace(-1.0, 1.0, 11)
_N_STARTS = 6
# where a log barrier on (0, 1)^2 and on the plus branch puts a middle row
# that no data constrains: lam = eta = (5 + sqrt 5) / 10
_BRANCH_CENTRE = (5.0 + np.sqrt(5.0)) / 10.0


def _residuals(L: int, i: int, target: np.ndarray, lam: np.ndarray, eta: np.ndarray,
               plus: bool = False) -> np.ndarray:
    """Residual of row i at every pair of a lam axis (S, A) and an eta axis
    (S, B) per block: returns (S, A, B).  With ``plus``, candidates off the
    plus branch lam + eta - 1 >= 0 score infinity.

    The objective, the grid start and the row solves all score rows here, and
    a candidate scores the same bits alone as inside a block, so their values
    compare exactly."""
    vals = ((transition_rows(L, i, lam, eta) - target) ** 2).sum(axis=-1)
    if not plus:
        return vals
    return np.where(lam[:, :, None] - 1.0 + eta[:, None, :] >= 0, vals, np.inf)


def _shrink(L: int, i: int, target: np.ndarray, lam: np.ndarray, eta: np.ndarray,
            best: np.ndarray, plus: bool):
    """Local 11 x 11 grid search around each start, moving to the best
    candidate while it improves and shrinking the grid five-fold when it does
    not, until the width is at most 1e-7.

    The starts run in lock-step, one residual evaluation per step for every
    start still shrinking, but each keeps its own width and best; the result
    is that of polishing them one after another.  A clipped candidate that
    repeats another scores the same and comes later in the lam-major order,
    so it never wins the first-occurrence arg-min.
    """
    lam, eta, best = lam.copy(), eta.copy(), best.copy()
    width = np.full(len(lam), 0.05)
    active = np.arange(len(lam))
    while active.size:
        w = width[active, None]
        lam_c = np.clip(lam[active, None] + w * _OFFSETS, 1e-9, 1 - 1e-9) if i < L \
            else lam[active, None]
        eta_c = np.clip(eta[active, None] + w * _OFFSETS, 1e-9, 1 - 1e-9) if i >= 1 \
            else eta[active, None]
        vals = _residuals(L, i, target, lam_c, eta_c, plus).reshape(active.size, -1)
        k = vals.argmin(axis=1)
        rows = np.arange(active.size)
        val = vals[rows, k]
        moved = val < best[active] - 1e-20
        won = active[moved]
        best[won] = val[moved]
        lam[won] = lam_c[rows, k // eta_c.shape[1]][moved]
        eta[won] = eta_c[rows, k % eta_c.shape[1]][moved]
        width[active[~moved]] *= 0.2
        active = active[width[active] > 1e-7]
    return best, lam, eta


def _solve_row(L: int, i: int, target: np.ndarray, lam_i: float, eta_i: float,
               plus: bool = False) -> tuple[float, float, float]:
    """Exact minimum of row i's residual over (lam_i, eta_i), on the plus
    branch with ``plus``, starting from the grid value: returns
    (lam_i, eta_i, residual).

    A full 2-D scan comes first, because the row residual can be multimodal
    and a coarse start may sit in the wrong basin.  Its six best points are
    then polished in one lock-step search, since narrow basins can hide
    between scan points.  The start itself stays a candidate unless the
    branch excludes it.  The winner lies on the branch, where the mask
    changes no value, so its residual is the one ``_row_residuals`` gives it.
    """
    fine = np.linspace(0.008, 0.992, 61 if L <= 8 else 41)
    start_val = _residuals(L, i, target, np.array([[lam_i]]), np.array([[eta_i]]),
                           plus)[0, 0, 0]
    lam_axis = fine if i < L else np.array([lam_i])
    eta_axis = fine if i >= 1 else np.array([eta_i])
    vals = _residuals(L, i, target, lam_axis[None], eta_axis[None], plus).ravel()
    k = np.argsort(vals, kind="stable")[:_N_STARTS]
    k = k[np.isfinite(vals[k])]
    best, lam, eta = _shrink(L, i, target, lam_axis[k // eta_axis.size],
                             eta_axis[k % eta_axis.size], vals[k], plus)
    # strict improvement over the start and over earlier starts wins
    vals = np.concatenate([[start_val], best])
    j = int(np.argmin(vals))
    return float(np.r_[lam_i, lam][j]), float(np.r_[eta_i, eta][j]), float(vals[j])


def mde_fit(q_hat: TransitionMatrix, L: int) -> MdeResult:
    """Minimum distance estimate of the parameter vector from empirical
    transition frequencies.

    The grid initialization is followed by an exact solve of each visited
    row.  For even L the middle row is solved on the plus branch
    (lam_{L/2} >= 1 - eta_{L/2}) alone: its law is mirror symmetric under
    (lam, eta) -> (1 - eta, 1 - lam), so the minus branch holds the mirror
    of every plus solution at the same residual.  Each row's solve keeps
    its grid value as a candidate, and the grid scans the middle row on the
    plus branch too, so no row ends worse than its start and the objective
    never exceeds the grid initialization's (``grid_objective``).  A masked
    middle row takes the plus branch's centre, lam = eta = (5 + sqrt 5) / 10;
    other masked rows keep their grid value.

    Diagnostics carry ``row_residuals``, each row's share of the objective
    (0 for masked rows).
    """
    mask = q_hat.row_mask()
    start = grid_init(q_hat, L)
    half = L // 2 if L % 2 == 0 else None

    # one (lam_i, eta_i, residual) record per row; masked rows keep their
    # grid value and add nothing
    rows = [(*_row_params(start, i), 0.0) for i in range(L + 1)]
    for i in np.flatnonzero(mask):
        rows[i] = _solve_row(L, int(i), q_hat.entries[i], *_row_params(start, i),
                             plus=i == half)
    if half is not None and not mask[half]:
        rows[half] = (_BRANCH_CENTRE, _BRANCH_CENTRE, 0.0)

    theta_hat = ParamVector(L, [r[0] for r in rows[:L]], [r[1] for r in rows[1:]])
    diagnostics = {
        "grid_objective": float(_row_residuals(start, q_hat).sum()),
        "masked_rows": [int(i) for i in np.nonzero(~mask)[0]],
        "degenerate": bool(mask.sum() <= 1),
        "row_residuals": [r[2] for r in rows],
    }
    objective = float(np.array([r[2] for r in rows]).sum())
    return MdeResult(theta_hat=theta_hat, objective=objective, diagnostics=diagnostics)


def cooperativity_report(theta_hat: ParamVector, tol: float = 1e-3) -> CooperativityReport:
    """Cooperativity verdict for a fitted parameter vector."""
    return classify_cooperativity(theta_hat, tol=tol)
