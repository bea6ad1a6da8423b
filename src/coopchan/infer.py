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
        out[i] = _residuals(theta.L, i, q_hat.entries[i], np.array([[li]]), np.array([[ei]]),
                            [0.0])[0, 0, 0]
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
    the smallest grid value).  The middle row of an even L is mirror
    symmetric under (lam, eta) -> (1-eta, 1-lam), so its grid ties come in
    branch pairs; those resolve toward the plus branch (lam >= 1 - eta),
    matching the identifiability convention.
    """
    if q_hat.dim != L + 1:
        raise ValueError(f"matrix dim {q_hat.dim} does not match L = {L}")
    grid = np.asarray(sorted(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    lam = np.full(L, grid[0])
    eta = np.full(L, grid[0])
    for i in np.flatnonzero(q_hat.row_mask()):
        lam_axis = grid if i < L else np.zeros(1)
        eta_axis = grid if i >= 1 else np.zeros(1)
        # lam-major candidates over the sorted grid are in lexicographic order
        vals = _residuals(L, i, q_hat.entries[i], lam_axis[None], eta_axis[None],
                          [0.0]).ravel()
        ties = np.flatnonzero(vals <= vals.min() + 1e-15)
        ll, ee = lam_axis[ties // eta_axis.size], eta_axis[ties % eta_axis.size]
        # the first tie on the plus branch, if any
        first = int(np.argmin(ll < 1.0 - ee)) if L % 2 == 0 and i == L // 2 else 0
        if i < L:
            lam[i] = ll[first]
        if i >= 1:
            eta[i - 1] = ee[first]
    return ParamVector(L, lam, eta)


_OFFSETS = np.linspace(-1.0, 1.0, 11)
_N_STARTS = 6
# where a log barrier on (0, 1)^2 and on the branch gap puts a middle row
# that no data constrains: lam = eta = (5 +- sqrt 5) / 10
_BRANCH_CENTRE = {1.0: (5.0 + np.sqrt(5.0)) / 10.0, -1.0: (5.0 - np.sqrt(5.0)) / 10.0}


def _residuals(L: int, i: int, target: np.ndarray, lam: np.ndarray, eta: np.ndarray,
               signs) -> np.ndarray:
    """Residual of row i at every pair of a lam axis (S, A) and an eta axis
    (S, B) per block: returns (S, A, B).  Candidates off block s's branch
    ``signs[s] * (lam + eta - 1) >= 0`` score infinity, so a sign of 0
    constrains nothing; one block (S = 1) may be masked under several signs.

    The objective, the grid start and the row solves all score rows here, and
    a candidate scores the same bits alone as inside a block, so their values
    compare exactly."""
    vals = ((transition_rows(L, i, lam, eta) - target) ** 2).sum(axis=-1)
    gap = lam[:, :, None] - 1.0 + eta[:, None, :]
    return np.where(np.asarray(signs)[:, None, None] * gap >= 0, vals, np.inf)


def _shrink(L: int, i: int, target: np.ndarray, lam: np.ndarray, eta: np.ndarray,
            best: np.ndarray, signs: np.ndarray):
    """Local 11 x 11 grid search around each start, moving to the best
    candidate while it improves and shrinking the grid five-fold when it does
    not, until the width is at most 1e-7.

    The starts run in lock-step, one residual evaluation per step for every
    start still shrinking, but each keeps its own branch sign, width and
    best; the result is that of polishing them one after another.  A clipped
    candidate that repeats another scores the same and comes later in the
    lam-major order, so it never wins the first-occurrence arg-min.
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
        vals = _residuals(L, i, target, lam_c, eta_c, signs[active]).reshape(active.size, -1)
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
               signs=(0.0,)) -> list[tuple[float, float, float]]:
    """Exact minimum of row i's residual over (lam_i, eta_i) on each branch
    of ``signs``, starting from the grid value: one (lam_i, eta_i, residual)
    per sign.

    A full 2-D scan comes first, because the row residual can be multimodal
    and a coarse start may sit in the wrong basin; it is scored once and
    masked per branch.  Its six best points per branch are then polished in
    one lock-step search, since narrow basins can hide between scan points.
    The start itself stays a candidate.  A nonzero sign restricts the middle
    row of an even L to one identifiability branch; the winner lies on it,
    so its residual is the one ``_row_residuals`` gives it.
    """
    signs = np.asarray(signs, dtype=float)
    fine = np.linspace(0.008, 0.992, 61 if L <= 8 else 41)
    start_vals = _residuals(L, i, target, np.array([[lam_i]]), np.array([[eta_i]]),
                            signs)[:, 0, 0]
    lam_axis = fine if i < L else np.array([lam_i])
    eta_axis = fine if i >= 1 else np.array([eta_i])
    vals = _residuals(L, i, target, lam_axis[None], eta_axis[None], signs)
    vals = vals.reshape(len(signs), -1)
    order = np.argsort(vals, axis=1, kind="stable")[:, :_N_STARTS]
    owner = np.repeat(np.arange(len(signs)), order.shape[1])
    k = order.ravel()
    keep = np.isfinite(vals[owner, k])
    owner, k = owner[keep], k[keep]
    best, lam, eta = _shrink(L, i, target, lam_axis[k // eta_axis.size],
                             eta_axis[k % eta_axis.size], vals[owner, k], signs[owner])
    out = []
    for s, start_val in enumerate(start_vals):
        mine = owner == s
        # strict improvement over the start and over earlier starts wins
        vals = np.concatenate([[start_val], best[mine]])
        j = int(np.argmin(vals))
        out.append((float(np.r_[lam_i, lam[mine]][j]), float(np.r_[eta_i, eta[mine]][j]),
                    float(vals[j])))
    return out


_BRANCH_SIGNS = {"auto": [1.0, -1.0], "plus": [1.0], "minus": [-1.0]}


def mde_fit(q_hat: TransitionMatrix, L: int, branch: str = "auto") -> MdeResult:
    """Minimum distance estimate of the parameter vector from empirical
    transition frequencies.

    The grid initialization is followed by an exact solve of each visited
    row.  For even L the middle row is solved on each identifiability branch
    (lam_{L/2} >= 1 - eta_{L/2} and the reverse) in one search, unless
    ``branch`` is "plus" or "minus"; the other rows do not depend on the
    branch.  The lower objective wins, ties resolve to plus, and both are
    recorded in the diagnostics.  Each row's solve keeps its grid value as a
    candidate when that value lies on the solved branch, so no such row ends
    worse than its start, and the objective never exceeds the grid
    initialization's (``grid_objective``) when the grid's middle row lies on
    the chosen branch.  Grid ties on the middle row resolve to plus.  A
    masked middle row takes the chosen branch's centre,
    lam = eta = (5 +- sqrt 5) / 10; other masked rows keep their grid value.

    Diagnostics carry ``row_residuals``, each row's share of the objective
    (0 for masked rows).
    """
    if branch not in _BRANCH_SIGNS:
        raise ValueError("branch must be auto, plus or minus")
    mask = q_hat.row_mask()
    start = grid_init(q_hat, L)
    half = L // 2 if L % 2 == 0 else None
    branches = [None] if half is None else _BRANCH_SIGNS[branch]

    # one (lam_i, eta_i, residual) record per row; masked rows keep their
    # grid value and add nothing
    shared = [(*_row_params(start, i), 0.0) for i in range(L + 1)]
    for i in np.flatnonzero(mask):
        if i != half:
            shared[i] = _solve_row(L, int(i), q_hat.entries[i], *_row_params(start, i))[0]
    solutions = {sign: list(shared) for sign in branches}
    if half is not None and mask[half]:
        solved = _solve_row(L, half, q_hat.entries[half], *_row_params(start, half), branches)
        for sign, row in zip(branches, solved):
            solutions[sign][half] = row
    f = {sign: float(np.array([r[2] for r in rows]).sum()) for sign, rows in solutions.items()}
    key = branches[0]
    # the two branches are observationally equivalent mirrors, so exact
    # input ties them to numerical noise; ties resolve to plus
    if len(f) == 2 and abs(f[1.0] - f[-1.0]) > max(1e-12, 1e-9 * (1.0 + min(f.values()))):
        key = min(f, key=f.get)
    rows, objective = solutions[key], f[key]
    if half is not None and not mask[half]:
        rows[half] = (_BRANCH_CENTRE[key], _BRANCH_CENTRE[key], 0.0)

    theta_hat = ParamVector(L, [r[0] for r in rows[:L]], [r[1] for r in rows[1:]])
    diagnostics = {
        "grid_objective": float(_row_residuals(start, q_hat).sum()),
        "masked_rows": [int(i) for i in np.nonzero(~mask)[0]],
        "degenerate": bool(mask.sum() <= 1),
        "branch": {None: "none", 1.0: "plus", -1.0: "minus"}[key],
        "row_residuals": [r[2] for r in rows],
    }
    if len(f) == 2:
        diagnostics["branch_objectives"] = {"plus": f[1.0], "minus": f[-1.0]}
    return MdeResult(theta_hat=theta_hat, objective=objective, diagnostics=diagnostics)


def cooperativity_report(theta_hat: ParamVector, tol: float = 1e-3) -> CooperativityReport:
    """Cooperativity verdict for a fitted parameter vector."""
    return classify_cooperativity(theta_hat, tol=tol)
