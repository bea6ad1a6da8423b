import json
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coopchan.core import DiscreteTrace, LevelLadder
from coopchan.infer import (
    _BRANCH_CENTRE,
    DEFAULT_GRID,
    _residuals,
    _row_residuals,
    _solve_row,
    cooperativity_report,
    empirical_transition_matrix,
    grid_init,
    mde_fit,
    mde_objective,
)
from coopchan.model import (
    ParamVector,
    _row_params,
    TransitionMatrix,
    Verdict,
    simulate_vnd,
    sum_transition_matrix,
    transition_rows,
)


def ladder(L):
    return LevelLadder(L=L, offset=0.0, spacing=1.0)


def reference_row_tables(L, i):
    """Coefficients and exponents of row i as (L+1, i+1) tables: entry (j, r)
    covers the split where r of the i open channels close and j-i+r of the
    L-i closed ones open."""
    j = np.arange(L + 1)[:, None]
    r = np.arange(i + 1)[None, :]
    jr = j - i + r
    coeff = np.array([[comb(i, rr) * comb(L - i, int(v)) if 0 <= v <= L - i else 0
                       for rr, v in enumerate(row_jr)] for row_jr in jr], dtype=float)
    e_eta = np.broadcast_to(i - r, jr.shape).copy()
    e_eta_c = np.broadcast_to(r, jr.shape).copy()
    return coeff, e_eta, e_eta_c, np.clip(L - j - r, 0, None), np.clip(jr, 0, None)


def term_sum(x):
    """Sum over the last axis one term after another, in index order: the
    order the evaluator adds split terms and squared deviations in.  A zero
    for a split that cannot reach an entry leaves each partial sum as it
    is."""
    return np.cumsum(x, axis=-1)[..., -1]


def reference_transition_rows(L, i, lam, eta):
    """Row i at every pair of a lam axis (S, A) and an eta axis (S, B) per
    block, (S, A, B, L+1): the split terms laid out last, zeros where a split
    cannot reach an entry, and summed in term order, the bits the
    entry-first evaluator must reproduce."""
    coeff, e_eta, e_eta_c, e_lam, e_lam_c = reference_row_tables(L, i)
    lam = np.asarray(lam, dtype=float)[:, :, None, None, None]
    eta = np.asarray(eta, dtype=float)[:, None, :, None, None]
    eta_terms = coeff * eta ** e_eta * (1.0 - eta) ** e_eta_c
    terms = eta_terms * lam ** e_lam * (1.0 - lam) ** e_lam_c
    return term_sum(terms)


def reference_residuals(L, i, target, lam, eta, plus):
    """Row i's residual at every pair of a block of axes, (S, A, B), summed
    in term order over the last axis of the split-last rows."""
    vals = term_sum((reference_transition_rows(L, i, lam, eta) - target) ** 2)
    if not plus:
        return vals
    return np.where(lam[:, :, None] - 1.0 + eta[:, None, :] >= 0, vals, np.inf)


def reference_rows(L, i, lam, eta):
    """Row i of the transition matrix at paired candidates, (len(lam), L+1):
    four powers per pair, multiplied left to right and summed in term order,
    the reference the axis evaluator must reproduce bit for bit."""
    coeff, e_eta, e_eta_c, e_lam, e_lam_c = reference_row_tables(L, i)
    lam = np.asarray(lam, dtype=float)[:, None, None]
    eta = np.asarray(eta, dtype=float)[:, None, None]
    terms = (
        coeff[None]
        * eta ** e_eta[None]
        * (1.0 - eta) ** e_eta_c[None]
        * lam ** e_lam[None]
        * (1.0 - lam) ** e_lam_c[None]
    )
    return term_sum(terms)


def reference_grid_init(q_hat, L, grid=DEFAULT_GRID):
    """The product-grid start one candidate at a time: each scored alone,
    off the plus branch on the middle row of an even L scoring infinity,
    the tied ones sorted in Python lexicographically."""
    grid = sorted(float(g) for g in grid)
    lam = np.full(L, grid[0])
    eta = np.full(L, grid[0])
    for i in np.flatnonzero(q_hat.row_mask()):
        scored = []
        for lv in grid if i < L else [0.0]:
            for ev in grid if i >= 1 else [0.0]:
                row = reference_rows(L, i, [lv], [ev])
                val = float(term_sum((row - q_hat.entries[i]) ** 2)[0])
                if L % 2 == 0 and i == L // 2 and not lv - 1.0 + ev >= 0:
                    val = np.inf
                scored.append((val, lv, ev))
        min_val = min(s[0] for s in scored)
        ties = sorted(s[1:] for s in scored if s[0] <= min_val + 1e-15)
        best_lam, best_eta = ties[0]
        if i < L:
            lam[i] = best_lam
        if i >= 1:
            eta[i - 1] = best_eta
    return ParamVector(L, lam, eta)


@st.composite
def q_hats(draw):
    """(L, Q-hat) for L = 1..6: exact matrices of truths on the grid, of
    truths whose middle row is the minus mirror of a grid point (so the
    grid's best middle-row point is that point, the plus mirror), or of
    interior truths; or the frequencies of a short trace of sticky channels.
    Rows may be masked on top."""
    L = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["grid", "mirror", "interior", "sticky"]))
    if kind == "sticky":
        stay = st.floats(min_value=0.95, max_value=0.999)
        theta = ParamVector(L, draw(st.lists(stay, min_size=L, max_size=L)),
                            draw(st.lists(stay, min_size=L, max_size=L)))
        values = simulate_vnd(theta, draw(st.integers(min_value=2, max_value=300)),
                              seed=draw(st.integers(min_value=0, max_value=2**32 - 1))).sums
        q_hat = empirical_transition_matrix(values, L=L)
    else:
        unit = (st.floats(min_value=0.02, max_value=0.98) if kind == "interior"
                else st.sampled_from(DEFAULT_GRID))
        lam = np.array(draw(st.lists(unit, min_size=L, max_size=L)))
        eta = np.array(draw(st.lists(unit, min_size=L, max_size=L)))
        if kind == "mirror" and L % 2 == 0:
            half = L // 2
            if lam[half] + eta[half - 1] > 1.0:
                lam[half], eta[half - 1] = 1.0 - eta[half - 1], 1.0 - lam[half]
        q_hat = sum_transition_matrix(ParamVector(L, lam, eta))
    keep = q_hat.row_mask() & ~np.array(draw(st.lists(st.booleans(), min_size=L + 1,
                                                       max_size=L + 1)))
    entries = np.where(keep[:, None], q_hat.entries, np.nan)
    return L, TransitionMatrix(entries, row_counts=keep.astype(int))


# a truth whose middle row (0.7, 0.3) lies on lam + eta = 1, where
# 0.7 - 1.0 + 0.3 rounds to -5.6e-17: off the plus branch as the solve
# scores it, so the grid start must not take it either, or the fit could
# end above its grid objective
ON_THE_BRANCH_LINE = (2, sum_transition_matrix(ParamVector(2, [0.5, 0.7], [0.3, 0.5])))


def reference_row_solve(L, i, target, lam_i, eta_i, plus):
    """The per-row solve with its six starts polished one after another,
    each by a loop over np.unique'd candidate grids: the reference the
    lock-step search must reproduce bit for bit."""
    offsets = np.linspace(-1.0, 1.0, 11)
    fine = np.linspace(0.008, 0.992, 61 if L <= 8 else 41)

    def residuals(lam_c, eta_c):
        rows = reference_rows(L, i, lam_c, eta_c)
        vals = term_sum((rows - target[None, :]) ** 2)
        if plus:
            vals = np.where(lam_c - 1.0 + eta_c >= 0, vals, np.inf)
        return vals

    def shrink(lam_i, eta_i, best):
        width = 0.05
        while width > 1e-7:
            lam_c = np.clip(lam_i + width * offsets, 1e-9, 1 - 1e-9) if i < L \
                else np.full(len(offsets), lam_i)
            eta_c = np.clip(eta_i + width * offsets, 1e-9, 1 - 1e-9) if i >= 1 \
                else np.full(len(offsets), eta_i)
            ll, ee = np.meshgrid(np.unique(lam_c), np.unique(eta_c), indexing="ij")
            vals = residuals(ll.ravel(), ee.ravel())
            k = int(np.argmin(vals))
            if vals[k] < best - 1e-20:
                best = float(vals[k])
                lam_i, eta_i = float(ll.ravel()[k]), float(ee.ravel()[k])
            else:
                width *= 0.2
        return best, lam_i, eta_i

    start_val = float(residuals(np.array([lam_i]), np.array([eta_i]))[0])
    ll, ee = np.meshgrid(fine if i < L else [lam_i], fine if i >= 1 else [eta_i],
                         indexing="ij")
    ll, ee = ll.ravel(), ee.ravel()
    vals = residuals(ll, ee)
    best = (start_val, lam_i, eta_i)
    for k in np.argsort(vals, kind="stable")[:6]:
        if np.isfinite(vals[k]):
            cand = shrink(float(ll[k]), float(ee[k]), float(vals[k]))
            if cand[0] < best[0]:
                best = cand
    return best[1], best[2]


def reference_fit(q_hat, L):
    """Grid start, then every visited row solved one start at a time, the
    middle row of an even L on the plus branch."""
    x = grid_init(q_hat, L).flat
    for i in np.flatnonzero(q_hat.row_mask()):
        lam_i, eta_i = reference_row_solve(L, i, q_hat.entries[i],
                                           x[i] if i < L else 0.0,
                                           x[L + i - 1] if i >= 1 else 0.0,
                                           L % 2 == 0 and i == L // 2)
        if i < L:
            x[i] = lam_i
        if i >= 1:
            x[L + i - 1] = eta_i
    return x


def reference_mde_fit(q_hat, L):
    """The MDE on a flat parameter vector: rows solved into a copy of the
    grid start, and the residuals computed again from theta-hat."""
    mask = q_hat.row_mask()
    start = grid_init(q_hat, L)
    x = start.flat
    half = L // 2 if L % 2 == 0 else None
    for i in np.flatnonzero(mask):
        lam_i, eta_i, _ = _solve_row(L, int(i), q_hat.entries[i], *_row_params(start, i),
                                     plus=i == half)
        if i < L:
            x[i] = lam_i
        if i >= 1:
            x[L + i - 1] = eta_i
    if half is not None and not mask[half]:
        x[half] = x[L + half - 1] = _BRANCH_CENTRE
    theta_hat = ParamVector.from_flat(x)
    residuals = _row_residuals(theta_hat, q_hat)
    diagnostics = {
        "grid_objective": float(_row_residuals(start, q_hat).sum()),
        "masked_rows": [int(i) for i in np.nonzero(~mask)[0]],
        "degenerate": bool(mask.sum() <= 1),
        "row_residuals": [float(r) for r in residuals],
    }
    return theta_hat, float(residuals.sum()), diagnostics


def middle_row(theta):
    half = theta.L // 2
    return theta.lam[half], theta.eta[half - 1]


class TestEmpiricalTransitionMatrix:
    def test_direct_counting(self):
        trace = DiscreteTrace(values=np.array([0, 1, 0, 1]), ladder=ladder(1))
        q = empirical_transition_matrix(trace)
        assert q.entries[0, 1] == 1.0
        assert q.entries[1, 0] == 1.0
        np.testing.assert_array_equal(q.row_counts, [2, 1])

    def test_constant_trace_masks_other_rows(self):
        trace = DiscreteTrace(values=np.full(50, 2), ladder=ladder(3))
        q = empirical_transition_matrix(trace)
        assert q.entries[2, 2] == 1.0
        np.testing.assert_array_equal(q.row_mask(), [False, False, True, False])
        assert np.isnan(q.entries[0]).all()

    def test_convergence_to_law(self):
        theta = ParamVector(2, [0.9, 0.7], [0.8, 0.6])
        trace = simulate_vnd(theta, 300_000, seed=3)
        q_hat = empirical_transition_matrix(trace.sums, L=2)
        q = sum_transition_matrix(theta)
        assert np.abs(q_hat.entries - q.entries).max() < 5e-3

    def test_too_short(self):
        with pytest.raises(ValueError, match="need at least two samples to count transitions"):
            empirical_transition_matrix(np.array([1]), L=1)


class TestMdeObjective:
    def test_zero_at_truth(self):
        theta = ParamVector(3, [0.9, 0.8, 0.7], [0.6, 0.5, 0.4])
        assert mde_objective(theta, sum_transition_matrix(theta)) == pytest.approx(0.0, abs=1e-28)

    def test_hand_expansion_single_channel(self):
        q_hat = TransitionMatrix(np.eye(2), row_counts=np.array([5, 5]))
        for a, b in ((0.3, 0.9), (0.5, 0.5), (0.1, 0.2)):
            theta = ParamVector(1, [a], [b])
            expected = 2 * (1 - a) ** 2 + 2 * (1 - b) ** 2
            assert mde_objective(theta, q_hat) == pytest.approx(expected, abs=1e-14)

    def test_masked_row_contributes_nothing(self):
        entries = np.full((2, 2), np.nan)
        entries[1] = [0.4, 0.6]
        q_hat = TransitionMatrix(entries, row_counts=np.array([0, 7]))
        base = mde_objective(ParamVector(1, [0.5], [0.6]), q_hat)
        moved = mde_objective(ParamVector(1, [0.99], [0.6]), q_hat)
        assert base == pytest.approx(moved, abs=1e-15)

    def test_dim_mismatch(self):
        small = sum_transition_matrix(ParamVector(1, [0.5], [0.5]))
        with pytest.raises(ValueError, match="matrix dim 2 does not match L = 2"):
            mde_objective(ParamVector(2, [0.5, 0.5], [0.5, 0.5]), small)


UNIT = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([1e-9, 1 - 1e-9]))


@st.composite
def blocks(draw):
    """(lam, eta) axes of S blocks, (S, A) and (S, B) with S <= 6 and
    A, B <= 11: values in [0, 1], the clipped ends of the shrink grids, and
    repeats within an axis, as clipping makes."""
    S = draw(st.integers(min_value=1, max_value=6))

    def axes(n):
        pool = draw(st.lists(UNIT, min_size=1, max_size=n))
        return np.array(draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                                      min_size=S, max_size=S)))

    return (axes(draw(st.integers(min_value=1, max_value=11))),
            axes(draw(st.integers(min_value=1, max_value=11))))


def pairs(lam, eta):
    """The candidates of a block of axes as paired arrays, lam-major."""
    shape = (lam.shape[0], lam.shape[1], eta.shape[1])
    return (np.broadcast_to(lam[:, :, None], shape).ravel(),
            np.broadcast_to(eta[:, None, :], shape).ravel())


class TestRowResidual:
    @given(L=st.integers(min_value=1, max_value=20), block=blocks())
    @settings(max_examples=80, deadline=None)
    def test_axes_match_the_paired_reference(self, L, block):
        lam, eta = block
        ll, ee = pairs(lam, eta)
        for i in range(L + 1):
            rows = transition_rows(L, i, lam, eta)
            assert rows.shape == (L + 1, *lam.shape, eta.shape[1])
            assert np.moveaxis(rows, 0, -1).tobytes() == reference_rows(L, i, ll, ee).tobytes()

    @given(L=st.integers(min_value=1, max_value=20), block=blocks(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_candidate_scores_the_same_alone_and_in_a_batch(self, L, block, data):
        # the objective scores one candidate, the grid start one block of
        # axes, and the row solves several blocks, on the plus branch or
        # unmasked; their values must compare exactly
        i = data.draw(st.integers(min_value=0, max_value=L))
        lam, eta = block
        S, A, B = lam.shape[0], lam.shape[1], eta.shape[1]
        plus = data.draw(st.booleans())
        target = transition_rows(L, i, [[data.draw(UNIT)]], [[data.draw(UNIT)]])[:, 0, 0, 0]
        scored = _residuals(L, i, target, lam, eta, plus)
        alone = [_residuals(L, i, target, lam[s:s + 1, a:a + 1], eta[s:s + 1, b:b + 1],
                            plus)[0, 0, 0]
                 for s in range(S) for a in range(A) for b in range(B)]
        assert scored.tobytes() == np.array(alone).tobytes()
        ll, ee = pairs(lam, eta)
        paired = term_sum((reference_rows(L, i, ll, ee) - target[None, :]) ** 2)
        on_branch = (ll - 1.0 + ee >= 0) | (not plus)
        assert scored.tobytes() == np.where(on_branch, paired, np.inf).tobytes()

    @given(L=st.integers(min_value=1, max_value=20), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_split_last_reference(self, L, data):
        # the axis sizes of one candidate, the shrink grids and the scans;
        # large blocks keep S = 1, as the scans do
        i = data.draw(st.integers(min_value=0, max_value=L))
        A, B = (data.draw(st.sampled_from([1, 9, 11, 41, 61])) for _ in range(2))
        S = data.draw(st.integers(min_value=1, max_value=max(1, min(6, 726 // (A * B)))))
        unit = st.lists(UNIT, min_size=S * max(A, B), max_size=S * max(A, B))
        lam = np.array(data.draw(unit))[:S * A].reshape(S, A)
        eta = np.array(data.draw(unit))[:S * B].reshape(S, B)
        plus = data.draw(st.booleans())
        target = transition_rows(L, i, [[data.draw(UNIT)]], [[data.draw(UNIT)]])[:, 0, 0, 0]
        assert (np.moveaxis(transition_rows(L, i, lam, eta), 0, -1).tobytes()
                == reference_transition_rows(L, i, lam, eta).tobytes())
        assert (_residuals(L, i, target, lam, eta, plus).tobytes()
                == reference_residuals(L, i, target, lam, eta, plus).tobytes())

    @pytest.mark.parametrize("L, i", [(140, 3), (260, 130), (300, 150), (300, 200)])
    def test_long_rows_match_the_split_last_reference(self, L, i):
        # hundreds of splits are still added one after another
        rng = np.random.default_rng(L + i)
        lam, eta = rng.random((2, 3)), rng.random((2, 5))
        assert (np.moveaxis(transition_rows(L, i, lam, eta), 0, -1).tobytes()
                == reference_transition_rows(L, i, lam, eta).tobytes())

    def test_objective_rows_use_the_row_residual(self):
        theta = ParamVector(3, [0.95, 0.9, 0.85], [0.8, 0.9, 0.97])
        q_hat = empirical_transition_matrix(simulate_vnd(theta, 500, seed=7).sums, L=3)
        fit = mde_fit(q_hat, 3)
        for i, reported in enumerate(fit.diagnostics["row_residuals"]):
            li, ei = _row_params(fit.theta_hat, i)
            assert reported == _residuals(3, i, q_hat.entries[i], np.array([[li]]),
                                          np.array([[ei]]))[0, 0, 0]


class TestGridInit:
    def test_recovers_on_grid_point(self):
        theta = ParamVector(1, [0.7], [0.3])
        init = grid_init(sum_transition_matrix(theta), 1)
        np.testing.assert_allclose(init.flat, [0.7, 0.3])

    def test_two_channel_scenario(self):
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        init = grid_init(sum_transition_matrix(theta), 2)
        np.testing.assert_allclose(init.flat, [0.9, 0.9, 0.9, 0.9])

    def test_matches_full_product_scan(self):
        # the row-separable arg-min equals brute force over the full grid
        # with the middle row on the plus branch, ties resolved
        # lexicographically
        import itertools

        rng = np.random.default_rng(8)
        grid = (0.2, 0.5, 0.8)
        for _ in range(5):
            theta = ParamVector(2, rng.uniform(0.1, 0.9, 2), rng.uniform(0.1, 0.9, 2))
            q_hat = sum_transition_matrix(theta)
            init = grid_init(q_hat, 2, grid)
            scored = [
                (mde_objective(ParamVector.from_flat(flat), q_hat), flat)
                for flat in itertools.product(grid, repeat=4)
                if flat[1] - 1.0 + flat[2] >= 0
            ]
            min_val = min(s[0] for s in scored)
            ties = sorted(s[1] for s in scored if s[0] <= min_val + 1e-14)
            np.testing.assert_allclose(init.flat, ties[0])

    def test_tie_breaks_lexicographically(self):
        entries = np.full((2, 2), np.nan)
        entries[0] = [0.5, 0.5]
        q_hat = TransitionMatrix(entries, row_counts=np.array([3, 0]))
        init = grid_init(q_hat, 1, grid=(0.5, 0.6))
        # row 1 is masked: eta ties across the grid and takes the smallest
        assert init.lam[0] == 0.5
        assert init.eta[0] == 0.5

    @given(case=q_hats(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_one_candidate_at_a_time(self, case, data):
        L, q_hat = case
        assert grid_init(q_hat, L).flat.tobytes() == reference_grid_init(q_hat, L).flat.tobytes()
        grid = data.draw(st.lists(st.floats(min_value=0.01, max_value=0.99).map(
            lambda v: round(v, 2)), min_size=1, max_size=6))
        if data.draw(st.booleans()):
            grid += [1.0 - v for v in grid]  # mirror pairs on the middle row
        assert (grid_init(q_hat, L, grid).flat.tobytes()
                == reference_grid_init(q_hat, L, grid).flat.tobytes())

    @given(case=q_hats())
    @example(case=ON_THE_BRANCH_LINE)
    @settings(max_examples=80, deadline=None)
    def test_visited_middle_row_starts_on_the_plus_branch(self, case):
        # also where the truth lies on the minus branch, at the mirror of a
        # grid point; an unvisited middle row takes the smallest grid value
        # here and the plus centre in the fit
        L, q_hat = case
        half = L // 2
        assume(L % 2 == 0 and q_hat.row_mask()[half])
        lam, eta = middle_row(grid_init(q_hat, L))
        assert lam - 1.0 + eta >= 0


class TestMdeFit:
    def test_exact_recovery_odd_L(self):
        theta_star = ParamVector.from_flat([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        q_hat = sum_transition_matrix(theta_star)
        res = mde_fit(q_hat, 3)
        assert res.objective < 1e-10
        assert np.abs(res.theta_hat.flat - theta_star.flat).max() < 1e-4

    def test_exact_recovery_even_L_branch(self):
        theta_star = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        res = mde_fit(sum_transition_matrix(theta_star), 2)
        assert res.objective < 1e-10
        assert np.abs(res.theta_hat.flat - theta_star.flat).max() < 1e-4
        lam_h, eta_h = res.theta_hat.lam[1], res.theta_hat.eta[0]
        assert lam_h - (1 - eta_h) >= -1e-9

    def test_descent_from_grid(self):
        theta_star = ParamVector(2, [0.93, 0.88], [0.82, 0.9])
        trace = simulate_vnd(theta_star, 30_000, seed=11)
        q_hat = empirical_transition_matrix(trace.sums, L=2)
        res = mde_fit(q_hat, 2)
        assert res.objective <= res.diagnostics["grid_objective"] + 1e-15

    @given(case=q_hats())
    @example(case=ON_THE_BRANCH_LINE)
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_grid_start(self, case):
        # every row's solve keeps its grid value, scored by the same row
        # residual as the objective, and the grid scans the middle row on
        # the branch its solve searches
        L, q_hat = case
        res = mde_fit(q_hat, L)
        assert res.objective <= res.diagnostics["grid_objective"]

    def test_underdetermined_flagged(self):
        trace = DiscreteTrace(values=np.full(30, 1), ladder=ladder(2))
        q_hat = empirical_transition_matrix(trace)
        res = mde_fit(q_hat, 2)
        assert res.diagnostics["degenerate"]
        assert res.diagnostics["masked_rows"] == [0, 2]

    def test_consistency_trend(self):
        # errors shrink with trace length for identifiable parameters
        rng = np.random.default_rng(17)
        for L in (1, 3):
            theta_star = ParamVector(L, rng.uniform(0.3, 0.95, L), rng.uniform(0.3, 0.95, L))
            med = {}
            for n in (1000, 100_000):
                errs = []
                for seed in range(6):
                    trace = simulate_vnd(theta_star, n, seed=1000 * L + seed)
                    q_hat = empirical_transition_matrix(trace.sums, L=L)
                    res = mde_fit(q_hat, L)
                    errs.append(np.linalg.norm(res.theta_hat.flat - theta_star.flat))
                med[n] = float(np.median(errs))
            assert med[100_000] < med[1000]

    def test_keeps_a_grid_start_that_fits_exactly(self):
        # the grid fits the middle row exactly at (0.9, 0.9), on the plus
        # branch, and no polished point beats it
        q_hat = sum_transition_matrix(ParamVector(2, [0.5, 0.9], [0.9, 0.5]))
        res = mde_fit(q_hat, 2)
        assert middle_row(res.theta_hat) == (0.9, 0.9)
        assert res.objective <= res.diagnostics["grid_objective"]

    @given(case=q_hats())
    @settings(max_examples=60, deadline=None)
    def test_matches_flat_vector_fit(self, case):
        # the per-row records give the bits of the flat vector and of the
        # residuals computed again from theta-hat
        L, q_hat = case
        res = mde_fit(q_hat, L)
        theta_hat, objective, diagnostics = reference_mde_fit(q_hat, L)
        assert res.theta_hat.flat.tobytes() == theta_hat.flat.tobytes()
        assert np.float64(res.objective).tobytes() == np.float64(objective).tobytes()
        assert json.dumps(res.diagnostics) == json.dumps(diagnostics)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_lockstep_matches_one_start_at_a_time(self, L):
        # short traces of sticky channels, where rows are seen a few times
        # and the search paths of the starts part in the last digits
        rng = np.random.default_rng(40 + L)
        for seed in range(6):
            theta = ParamVector(L, rng.uniform(0.98, 0.999, L), rng.uniform(0.98, 0.999, L))
            q_hat = empirical_transition_matrix(simulate_vnd(theta, 1200, seed=seed).sums, L=L)
            res = mde_fit(q_hat, L)
            assert res.objective <= res.diagnostics["grid_objective"]
            ref = reference_fit(q_hat, L)
            if L % 2 == 0 and not q_hat.row_mask()[L // 2]:
                half = L // 2
                ref[half] = ref[L + half - 1] = res.theta_hat.lam[half]
            assert res.theta_hat.flat.tobytes() == ref.tobytes()

    @given(case=q_hats())
    @settings(max_examples=40, deadline=None)
    def test_middle_row_matches_one_start_at_a_time(self, case):
        # the lock-step search on the plus branch gives the bits of the
        # one-start-at-a-time reference
        L, q_hat = case
        half = L // 2
        assume(L % 2 == 0 and q_hat.row_mask()[half])
        row = (L, half, q_hat.entries[half], *_row_params(grid_init(q_hat, L), half))
        assert _solve_row(*row, plus=True)[:2] == reference_row_solve(*row, True)

    @pytest.mark.parametrize("L", [2, 4])
    def test_branches_differ_only_in_middle_row(self, L):
        # the minus branch holds the mirror (lam, eta) -> (1 - eta, 1 - lam)
        # of the plus fit's middle row, at the same residual, and nothing
        # else moves
        rng = np.random.default_rng(L)
        theta = ParamVector(L, rng.uniform(0.7, 0.99, L), rng.uniform(0.7, 0.99, L))
        q_hat = empirical_transition_matrix(simulate_vnd(theta, 3000, seed=L).sums, L=L)
        fit = mde_fit(q_hat, L)
        half = L // 2
        lam, eta = fit.theta_hat.lam.copy(), fit.theta_hat.eta.copy()
        assert lam[half] + eta[half - 1] - 1.0 > 0
        lam[half], eta[half - 1] = 1.0 - eta[half - 1], 1.0 - lam[half]
        mirror = _row_residuals(ParamVector(L, lam, eta), q_hat)
        r_plus = fit.diagnostics["row_residuals"]
        assert list(mirror[:half]) + list(mirror[half + 1:]) == r_plus[:half] + r_plus[half + 1:]
        assert mirror[half] == pytest.approx(r_plus[half], abs=1e-15)

    def test_row_residuals(self):
        theta = ParamVector(3, [0.95, 0.9, 0.85], [0.8, 0.9, 0.97])
        values = simulate_vnd(theta, 4000, seed=2).sums
        values = np.minimum(values, 2)  # state 3 never visited: row 3 masked
        q_hat = empirical_transition_matrix(values, L=3)
        res = mde_fit(q_hat, 3)
        residuals = res.diagnostics["row_residuals"]
        assert res.diagnostics["masked_rows"] == [3]
        assert sum(residuals) == pytest.approx(res.objective, abs=1e-15)
        assert residuals[3] == 0.0
        for k in range(3):
            # the objective of row k alone
            only_k = np.full_like(q_hat.entries, np.nan)
            only_k[k] = q_hat.entries[k]
            counts = np.where(np.arange(4) == k, q_hat.row_counts, 0)
            assert residuals[k] == mde_objective(res.theta_hat,
                                                 TransitionMatrix(only_k, row_counts=counts))

    @pytest.mark.parametrize("branch, centre", [("plus", (5 + np.sqrt(5)) / 10),
                                                ("auto", (5 + np.sqrt(5)) / 10)])
    def test_masked_middle_row_takes_branch_centre(self, branch, centre):
        # the trace steps between 0 and 2 channels open and never visits 1;
        # the fit takes no branch request, and puts the middle row at the
        # plus branch's centre
        values = np.array([0, 0, 2, 2, 2, 0, 2, 0, 0, 0, 2, 2, 0] * 20)
        q_hat = empirical_transition_matrix(values, L=2)
        with pytest.raises(TypeError):
            mde_fit(q_hat, 2, branch=branch)
        res = mde_fit(q_hat, 2)
        assert res.diagnostics["masked_rows"] == [1]
        assert middle_row(res.theta_hat) == (centre, centre)

    def test_other_masked_rows_keep_grid_value(self):
        # L = 4 over states {0, 1, 3}: the middle row 2 takes the plus
        # centre, row 4 keeps the grid start's eta = 0.1
        values = np.array([0, 1, 1, 3, 3, 1, 0, 0, 3, 1] * 30)
        q_hat = empirical_transition_matrix(values, L=4)
        res = mde_fit(q_hat, 4)
        assert res.diagnostics["masked_rows"] == [2, 4]
        centre = (5 + np.sqrt(5)) / 10
        assert middle_row(res.theta_hat) == (centre, centre)
        assert res.theta_hat.eta[3] == grid_init(q_hat, 4).eta[3] == 0.1

    @given(L=st.integers(min_value=1, max_value=4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_input_recovery(self, L, data):
        # parameters bounded away from the flat manifolds lam_i + eta_i = 1
        # of the interior rows, where the row law stops pinning them down
        unit = st.floats(min_value=0.05, max_value=0.95)
        lam = np.array(data.draw(st.lists(unit, min_size=L, max_size=L)))
        eta = np.array(data.draw(st.lists(unit, min_size=L, max_size=L)))
        assume(L == 1 or np.abs(lam[1:] + eta[:-1] - 1.0).min() >= 0.1)
        theta = ParamVector(L, lam, eta)
        res = mde_fit(sum_transition_matrix(theta), L)
        expected = theta.flat
        if L % 2 == 0 and lam[L // 2] + eta[L // 2 - 1] < 1.0:
            # the minus-branch truth has an observationally equivalent plus
            # mirror, (lam, eta) -> (1 - eta, 1 - lam), which the fit finds
            half = L // 2
            expected[half], expected[L + half - 1] = 1.0 - eta[half - 1], 1.0 - lam[half]
        assert res.objective < 1e-10
        assert np.abs(res.theta_hat.flat - expected).max() < 1e-6


class TestCooperativityReport:
    def test_delegates_to_classifier(self):
        report = cooperativity_report(ParamVector.from_flat([0.99, 0.985, 0.985, 0.99]))
        assert report.verdict is Verdict.POSITIVE

    def test_mixed_indeterminate(self):
        report = cooperativity_report(ParamVector(2, [0.99, 0.9], [0.99, 0.9]))
        assert report.verdict is Verdict.INDETERMINATE

    def test_zero_scenario_fit_reports_zero(self):
        # a long trace from independent channels yields a zero verdict from
        # the fitted parameters
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        trace = simulate_vnd(theta, 250_000, seed=29)
        q_hat = empirical_transition_matrix(trace.sums, L=2)
        fit = mde_fit(q_hat, 2)
        assert cooperativity_report(fit.theta_hat, tol=1e-3).verdict is Verdict.ZERO
