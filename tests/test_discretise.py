import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopchan.core import DiscreteTrace, LevelLadder, StepFunction
from coopchan.discretise import (
    _weighted_ls,
    discretise_trace,
    equal_spacing_cluster,
    level_groups,
)
from coopchan.idealise import Idealisation, muscle_fit
from coopchan.infer import empirical_transition_matrix, mde_fit
from coopchan.model import ParamVector, classify_cooperativity, simulate_vnd
from coopchan.pipeline import discretise_idealisation, fit_ladder
from coopchan.studies import _channel_count_rep, l20_scenario, rep_seed
from coopchan.synth import NoiseSpec, make_kernel, synthesize_recording


def reference_grid(levels, weights, L, offsets, spacings):
    """Nearest-rung SSE of every (offset, spacing) pair of the grid, in C
    order: returns (sse, offset, spacing) as arrays."""
    off = np.repeat(offsets, len(spacings))
    spc = np.tile(spacings, len(offsets))
    idx = np.clip(np.ceil((levels[None, :] - off[:, None]) / spc[:, None] - 0.5), 0, L)
    resid = levels[None, :] - (off[:, None] + spc[:, None] * idx)
    return (weights[None, :] * resid * resid).sum(axis=1), off, spc


def reference_sse(levels, weights, L, offset, spacing):
    idx = LevelLadder(L, offset, spacing).nearest_rung(levels)
    resid = levels - (offset + spacing * idx)
    return float((weights * resid * resid).sum()), idx


def reference_polish(levels, weights, L, offset, spacing, max_iter=60):
    """One candidate polished by alternating nearest-rung assignment and
    weighted least squares, keeping the best SSE seen by strict improvement."""
    best_sse, idx = reference_sse(levels, weights, L, offset, spacing)
    best = (offset, spacing)
    for _ in range(max_iter):
        fit = _weighted_ls(levels, weights, idx)
        if fit is None or fit[1] <= 0:
            break
        sse, new_idx = reference_sse(levels, weights, L, *fit)
        if sse < best_sse - 1e-15:
            best_sse, best = sse, fit
        if np.array_equal(new_idx, idx):
            break
        idx = new_idx
    return best_sse, best


def reference_cluster(levels, weights, L):
    """equal_spacing_cluster with each of its 20 best grid candidates
    polished on its own: the reference the shared polish must reproduce bit
    for bit."""
    levels = np.asarray(levels, dtype=float)
    weights = np.asarray(weights, dtype=float)
    lo, hi = float(levels.min()), float(levels.max())
    span = hi - lo
    centroids = np.sort([float(np.mean(g)) for g in level_groups(levels)])
    gaps = np.diff(centroids)
    spacings = np.concatenate([span / L * np.linspace(0.15, 1.25, 23), gaps[gaps > 0]])
    offsets = lo + span * np.linspace(-0.25, 0.35, 25)
    sse, off, spc = reference_grid(levels, weights, L, offsets, spacings)
    best_sse, best = np.inf, None
    for k in np.argsort(sse, kind="stable")[:20]:
        polished_sse, fit = reference_polish(levels, weights, L, float(off[k]), float(spc[k]))
        if polished_sse < best_sse - 1e-15:
            best_sse, best = polished_sse, fit
    return LevelLadder(L=L, offset=float(best[0]), spacing=float(best[1]), sse=float(best_sse))


def grid_search_oracle(levels, weights, L, n_grid=160):
    """Dense (offset, spacing) scan over wider ranges than production uses,
    with the top cells polished to their local optimum, as an independent
    optimum check."""
    levels = np.asarray(levels, float)
    weights = np.asarray(weights, float)
    lo, hi = levels.min(), levels.max()
    span = hi - lo
    spacings = span / L * np.linspace(0.05, 1.4, n_grid)
    offsets = lo + span * np.linspace(-0.3, 0.4, n_grid)
    sse, off, spc = reference_grid(levels, weights, L, offsets, spacings)
    best = (np.inf, None)
    for k in np.argsort(sse, kind="stable")[:12]:
        polished, fit = reference_polish(levels, weights, L, float(off[k]), float(spc[k]))
        if polished < best[0] - 1e-15:
            best = (polished, fit)
    return best


def ideal_from_steps(breaks, levels, rate=1.0, alpha=0.1):
    fit = StepFunction(np.asarray(breaks, float), np.asarray(levels, float))
    return Idealisation(fit=fit, alpha=alpha, n_switches=fit.n_changes,
                        feasible=True, sample_rate=rate)


def chosen_L(levels, weights=None, max_L=20):
    """The channel count fit_ladder chooses, uniform weights by default."""
    weights = np.ones(len(levels)) if weights is None else weights
    return fit_ladder(levels, weights, max_L=max_L).L


def jittered_ladder(S, seed):
    """S + 1 integer levels jittered by 0.02 N(0, 1), with weights drawn
    from uniform(0.2, 5)."""
    rng = np.random.default_rng(seed)
    levels = np.arange(S + 1) + 0.02 * rng.standard_normal(S + 1)
    return levels, rng.uniform(0.2, 5.0, S + 1)


class TestSelectL:
    """Channel-count selection by fit_ladder when L is not given."""

    def test_well_separated_ladder(self):
        assert chosen_L([0.0, 1.0, 2.0, 3.0]) == 3

    def test_single_level_clamps_to_one(self):
        assert chosen_L([1.7]) == 1

    def test_two_clusters(self):
        assert chosen_L([0.0, 0.02, 1.0, 1.03]) == 1

    def test_jittered_clusters(self):
        rng = np.random.default_rng(0)
        levels = np.concatenate([r + 0.01 * rng.standard_normal(40) for r in range(4)])
        assert chosen_L(levels) == 3

    def test_max_L_clamp(self):
        # thirty unit-spaced levels need 29 rungs; the search stops at max_L
        assert chosen_L(np.arange(30.0), max_L=20) <= 20

    def test_empty(self):
        with pytest.raises(ValueError, match="need at least one level"):
            chosen_L([])

    def test_groups_partition(self):
        groups = level_groups([0.0, 0.02, 1.0, 1.03])
        assert [list(g) for g in groups] == [[0.0, 0.02], [1.0, 1.03]]

    def test_missing_inner_rung(self):
        # an unvisited inner rung leaves the ladder whole; a gap count gives 17
        # and a search that stops at the first empty end rung gives 9
        levels = np.array([v for v in range(19) if v != 9], dtype=float)
        assert chosen_L(levels) == 18

    @pytest.mark.parametrize("S, seed", [(12, 6), (2, 0), (5, 7), (9, 14), (16, 21), (20, 28)])
    def test_jittered_full_ladder(self, S, seed):
        # the search stops at an empty end rung only once the best ladder
        # holds the levels; without that condition S = 12, seed 6 gives 8
        assert chosen_L(*jittered_ladder(S, seed)) == S

    @pytest.mark.parametrize("s, k", [(3, 1), (8, 1), (10, 1), (105, 1), (110, 1), (112, 1),
                                      (117, 1), (118, 0)])
    def test_stray_levels_between_rungs(self, s, k):
        # long L = 3 recordings on which a few short idealised segments sit
        # between rungs; counting level groups selected 5, 6 or 7 channels
        theta = ParamVector.constant(3, 0.998, 0.998)
        rec = synthesize_recording(theta, 300_000, 10_000.0,
                                   kernel=make_kernel("bessel", 10_000.0, cutoff=2_500.0),
                                   noise=NoiseSpec("gaussian", sigma=0.1), seed=rep_seed(s, k))
        ideal = muscle_fit(rec, alpha=0.1)
        assert chosen_L(ideal.fit.levels, ideal.fit.durations()) == 3


class TestEqualSpacingCluster:
    def test_exact_ladder(self):
        ladder = equal_spacing_cluster([0.0, 1.0, 2.0], L=2)
        assert ladder.offset == pytest.approx(0.0, abs=1e-9)
        assert ladder.spacing == pytest.approx(1.0, abs=1e-9)
        assert ladder.sse == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_oracle_small(self):
        levels = np.array([0.1, 0.9, 2.1])
        ladder = equal_spacing_cluster(levels, L=2)
        oracle_sse, _ = grid_search_oracle(levels, np.ones(3), 2)
        assert ladder.sse == pytest.approx(oracle_sse, abs=1e-6)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            L = int(rng.integers(1, 5))
            true_spacing = rng.uniform(0.5, 2.0)
            true_offset = rng.uniform(-1, 1)
            rungs = rng.integers(0, L + 1, size=int(rng.integers(4, 30)))
            levels = true_offset + true_spacing * rungs + 0.05 * rng.standard_normal(len(rungs))
            if np.unique(levels).size < 2:
                continue
            weights = rng.uniform(0.5, 3.0, len(levels))
            ladder = equal_spacing_cluster(levels, weights, L=L)
            oracle_sse, _ = grid_search_oracle(levels, weights, L)
            assert ladder.sse <= oracle_sse + 1e-6

    def test_affine_equivariance(self):
        rng = np.random.default_rng(3)
        levels = np.sort(rng.uniform(0, 3, 12))
        weights = rng.uniform(0.5, 2.0, 12)
        a, b = 2.5, -1.25
        base = equal_spacing_cluster(levels, weights, L=3)
        mapped = equal_spacing_cluster(a * levels + b, weights, L=3)
        assert mapped.offset == pytest.approx(a * base.offset + b, rel=1e-6, abs=1e-9)
        assert mapped.spacing == pytest.approx(a * base.spacing, rel=1e-6)
        idx_base = base.nearest_rung(levels)
        idx_mapped = mapped.nearest_rung(a * levels + b)
        np.testing.assert_array_equal(idx_base, idx_mapped)

    def test_assignment_optimality(self):
        rng = np.random.default_rng(9)
        levels = rng.uniform(0, 4, 25)
        weights = rng.uniform(0.1, 2.0, 25)
        ladder = equal_spacing_cluster(levels, weights, L=3)
        idx = ladder.nearest_rung(levels)
        rungs = ladder.rungs()
        base_cost = weights * (levels - rungs[idx]) ** 2
        for alt in range(4):
            alt_cost = weights * (levels - rungs[alt]) ** 2
            assert (base_cost <= alt_cost + 1e-12).all()

    @given(data=st.data(), L=st.integers(min_value=1, max_value=20),
           kind=st.sampled_from(["random", "tied", "ladder"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_per_candidate_polish(self, data, L, kind):
        n = data.draw(st.integers(min_value=2, max_value=40))
        value = st.floats(min_value=-5.0, max_value=5.0)
        if kind == "random":
            levels = data.draw(st.lists(value, min_size=n, max_size=n))
        elif kind == "tied":
            pool = data.draw(st.lists(value, min_size=2, max_size=4, unique=True))
            levels = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        else:
            S = data.draw(st.integers(min_value=1, max_value=L))
            rungs = data.draw(st.lists(st.integers(min_value=0, max_value=S),
                                       min_size=n, max_size=n))
            jitter = data.draw(st.lists(st.floats(min_value=-0.05, max_value=0.05),
                                        min_size=n, max_size=n))
            levels = data.draw(value) + data.draw(st.floats(min_value=0.1, max_value=3.0)) \
                * np.array(rungs) + np.array(jitter)
        levels = np.asarray(levels, dtype=float)
        if np.unique(levels).size < 2:
            levels[0] += 1.0
        weights = np.array(data.draw(st.lists(st.floats(min_value=0.1, max_value=10.0),
                                              min_size=n, max_size=n)))
        ladder = equal_spacing_cluster(levels, weights, L=L)
        expected = reference_cluster(levels, weights, L)
        assert (ladder.L, ladder.offset, ladder.spacing, ladder.sse) == \
            (expected.L, expected.offset, expected.spacing, expected.sse)

    @pytest.mark.parametrize("fit", ["cluster", "fit_ladder"])
    @pytest.mark.parametrize("bad, name", [(np.nan, "levels"), (np.inf, "levels"),
                                           (-np.inf, "levels"), (np.nan, "weights"),
                                           (np.inf, "weights")])
    def test_non_finite_input(self, fit, bad, name):
        # a NaN level used to raise "spacing must be positive" and an inf
        # level a TypeError; both now name the argument at entry
        levels, weights = np.array([0.0, 1.0, 2.0]), np.ones(3)
        (levels if name == "levels" else weights)[1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite: 1 of 3 are not, "
                                             f"the first {bad} at index 1"):
            if fit == "cluster":
                equal_spacing_cluster(levels, weights, L=2)
            else:
                fit_ladder(levels, weights)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="need at least two distinct levels"):
            equal_spacing_cluster([1.0, 1.0, 1.0], L=2)
        with pytest.raises(ValueError, match="need at least one level"):
            equal_spacing_cluster([], L=1)


class TestDiscreteTrace:
    def test_float_values_are_rejected(self):
        # counts are integers: a float array is refused, even one of whole numbers
        with pytest.raises(ValueError, match="trace values must be integers"):
            DiscreteTrace(values=np.array([0.0, 1.0, 2.0]), ladder=LevelLadder(2, 0.0, 1.0))

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="trace must hold at least one sample"):
            DiscreteTrace(values=np.array([], dtype=np.int64), ladder=LevelLadder(2, 0.0, 1.0))


class TestDiscretiseTrace:
    def test_levels_on_rungs_identity(self):
        ideal = ideal_from_steps([0, 2.5, 4.5, 6], [0.0, 2.0, 1.0])
        ladder = LevelLadder(L=2, offset=0.0, spacing=1.0)
        trace = discretise_trace(ideal, ladder, 1.0)
        np.testing.assert_array_equal(trace.values, [0, 0, 2, 2, 1, 1])

    def test_midpoint_rounds_down(self):
        ideal = ideal_from_steps([0, 1], [0.5])
        ladder = LevelLadder(L=1, offset=0.0, spacing=1.0)
        trace = discretise_trace(ideal, ladder, 1.0)
        np.testing.assert_array_equal(trace.values, [0])

    def test_three_segment_example(self):
        ideal = ideal_from_steps([0, 1.5, 3.5, 5], [0.0, 1.02, 0.01])
        ladder = LevelLadder(L=1, offset=0.0, spacing=1.0)
        trace = discretise_trace(ideal, ladder, 1.0)
        np.testing.assert_array_equal(trace.values, [0, 1, 1, 0, 0])

    def test_end_to_end_noiseless_recovery(self):
        # an exact idealisation of a noiseless ladder is regrouped into the
        # true open-channel counts
        theta = ParamVector.from_flat([0.95, 0.9, 0.9, 0.95])
        rec = synthesize_recording(theta, 600, 1.0, offset=0.2, spacing=1.3,
                                   kernel="identity", noise=None, seed=11)
        truth = rec.truth.step
        ideal = Idealisation(fit=truth, alpha=0.1, n_switches=truth.n_changes,
                             feasible=True, sample_rate=rec.sample_rate)
        levels, durations = ideal.fit.levels, ideal.fit.durations()
        ladder = fit_ladder(levels, durations, max_L=5)
        assert ladder.L == rec.truth.discrete.values.max() - rec.truth.discrete.values.min()
        trace = discretise_trace(ideal, ladder, rec.sample_rate)
        shift = rec.truth.discrete.values.min()
        np.testing.assert_array_equal(trace.values + shift, rec.truth.discrete.values)

    def test_muscle_pipeline_recovery_long_dwells(self):
        # with dwells long enough for the sign tests the full chain recovers
        # the true counts
        theta = ParamVector.from_flat([0.999, 0.998, 0.998, 0.999])
        rec = synthesize_recording(theta, 6000, 1.0, offset=0.0, spacing=1.0,
                                   kernel="identity", noise=None, seed=4)
        ideal = muscle_fit(rec, alpha=0.1)
        levels, durations = ideal.fit.levels, ideal.fit.durations()
        ladder = fit_ladder(levels, durations, max_L=5)
        trace = discretise_trace(ideal, ladder, rec.sample_rate)
        truth = rec.truth.discrete.values
        assert ladder.L == truth.max() - truth.min()
        mismatch = np.mean(trace.values + truth.min() != truth)
        assert mismatch < 0.02


def reference_ladder(levels, weights, L=None, max_L=20):
    """The ladder fit with the channel-count rule written out: every ladder
    up to max_L is fitted, then scanned for the least SSE in units of its
    squared spacing, stopping at the first empty end rung once the best
    ladder holds the levels within a tenth of its spacing (RMS)."""
    if len(np.unique(levels)) < 2:
        scale = max(abs(float(levels[0])), 1.0)
        return LevelLadder(L=1 if L is None else int(L), offset=float(levels[0]),
                           spacing=scale)
    if L is not None:
        return equal_spacing_cluster(levels, weights, L=int(L))
    ladders = [equal_spacing_cluster(levels, weights, L=n) for n in range(1, max_L + 1)]
    best = ladders[0]
    for ladder in ladders[1:]:
        rungs = set(ladder.nearest_rung(np.asarray(levels, float)).tolist())
        holds = best.sse / best.spacing ** 2 < 0.01 * np.sum(weights)
        if holds and not {0, ladder.L} <= rungs:
            break
        if ladder.sse / ladder.spacing ** 2 < best.sse / best.spacing ** 2:
            best = ladder
    return best


def reference_channel_count_rep(args):
    """One repetition of the channel-count study with its ladder chosen by
    the inline reference_ladder -> nearest_rung sequence, in place of the
    study's fit_ladder."""
    scenario, rep, base_seed, n = args
    trace = simulate_vnd(l20_scenario(scenario), n, seed=rep_seed(base_seed, rep))
    s = trace.sums.astype(float)
    levels, counts = np.unique(s, return_counts=True)
    ladder = reference_ladder(levels, counts.astype(float))
    L_hat = ladder.L
    fit = mde_fit(empirical_transition_matrix(ladder.nearest_rung(s), L=L_hat), L_hat)
    report = classify_cooperativity(fit.theta_hat)
    ratios = np.concatenate([
        report.lambda_ratios, report.eta_open_ratios, report.eta_close_ratios,
    ])
    return {"rep": rep, "L_hat": int(L_hat), "verdict": report.verdict.value,
            "ratios": [float(r) for r in ratios], "objective": fit.objective}


class TestFitLadder:
    @pytest.mark.parametrize("level", [1.7, -0.2, 0.0, -3e5])
    @pytest.mark.parametrize("L", [None, 1, 4])
    def test_single_level_is_rung_zero(self, level, L):
        ladder = fit_ladder(np.array([level]), np.array([6.0]), L)
        assert ladder == reference_ladder(np.array([level]), np.array([6.0]), L)
        assert (ladder.L, ladder.offset) == (L or 1, level)
        ideal = ideal_from_steps([0, 6], [level])
        trace = discretise_idealisation(ideal, L)
        assert trace.ladder == ladder
        np.testing.assert_array_equal(trace.values, np.zeros(6))

    @pytest.mark.parametrize("L", [None, 1, 2, 3, 5])
    def test_matches_the_inline_fit(self, L):
        ideal = ideal_from_steps([0, 3.5, 5.5, 9.5, 10.5, 14], [0.1, 2.05, 0.98, 1.52, 3.0])
        levels, durations = ideal.fit.levels, ideal.fit.durations()
        ladder = fit_ladder(levels, durations, L)
        assert ladder == reference_ladder(levels, durations, L)
        if L is not None:
            assert ladder.L == L
        trace = discretise_idealisation(ideal, L)
        assert trace.ladder == ladder
        np.testing.assert_array_equal(trace.values,
                                      discretise_trace(ideal, ladder, 1.0).values)

    def test_max_L_reaches_the_search(self):
        ideal = ideal_from_steps(np.arange(9.0), np.arange(8.0))
        levels, durations = ideal.fit.levels, ideal.fit.durations()
        assert fit_ladder(levels, durations).L == 7
        ladder = fit_ladder(levels, durations, max_L=5)
        assert ladder.L <= 5
        assert discretise_idealisation(ideal, max_L=5).ladder == ladder

    def test_max_L_below_one(self):
        # max_L = 0 used to return an L = 1 ladder, above its cap
        for max_L in (0, -1):
            with pytest.raises(ValueError, match="max_L must be >= 1"):
                fit_ladder(np.array([0.0, 1.0, 2.0]), np.ones(3), max_L=max_L)

    def test_empty_levels(self):
        for L in (None, 2):
            with pytest.raises(ValueError, match="need at least one level"):
                fit_ladder(np.array([]), np.array([]), L)

    @pytest.mark.parametrize("scenario", ["zero", "negative"])
    def test_channel_count_rep_matches_the_inline_sequence(self, scenario):
        args = (scenario, 0, 11, 20_000)
        assert _channel_count_rep(args) == reference_channel_count_rep(args)
