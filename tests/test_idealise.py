import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopchan import idealise
from coopchan.core import StepFunction
from coopchan.idealise import (
    _Segmenter,
    empirical_fdr,
    extremum_table,
    muscle_fit,
    range_extrema,
    sign_bounds,
)
from coopchan.model import ParamVector
from coopchan.studies import rep_seed
from coopchan.synth import (
    NoiseSpec,
    Recording,
    convolve_sample,
    make_kernel,
    sample_noise,
    synthesize_recording,
)


def make_recording(samples, rate=1.0, kernel=None):
    kernel = kernel or make_kernel("identity", rate)
    return Recording(samples=np.asarray(samples, float), sample_rate=rate, kernel=kernel)


def acceptance_recording(n, seed):
    """The acceptance-9 model: L = 3, every stay probability 0.998, Bessel
    2.5 kHz at 10 kHz, Gaussian noise of sigma 0.1."""
    theta = ParamVector.constant(3, 0.998, 0.998)
    kernel = make_kernel("bessel", 10_000.0, cutoff=2_500.0)
    return synthesize_recording(theta, n, 10_000.0, kernel=kernel,
                                noise=NoiseSpec("gaussian", sigma=0.1), seed=seed)


def check_idealisation(recording, ideal):
    """Re-verify an idealisation against its own sign-count constraints."""
    prob = _Segmenter.from_recording(recording, ideal.alpha)
    rate = recording.sample_rate
    starts = [0] + [int(round(t * rate - 0.5)) for t in ideal.fit.breaks[1:-1]]
    ends = starts[1:] + [len(recording.samples)]
    return all(prob.feasible(a, b) for a, b in zip(starts, ends))


def exact_binomial_lower(m, level):
    """Largest q with P(Bin(m, 1/2) < q) <= level, in exact arithmetic."""
    level = Fraction(level).limit_denominator(10**12)
    cdf = Fraction(0)
    q = 0
    for k in range(m + 1):
        cdf += Fraction(math.comb(m, k), 2**m)
        if cdf <= level:
            q = k + 1
        else:
            break
    return q


def window_level(alpha, n, m):
    """Per-window test level alpha_m = alpha * m / (2 * D * n)."""
    return alpha * m / (2.0 * (math.floor(math.log2(n)) + 1) * n)


class TestSignBounds:
    def test_single_sample_unconstrained(self):
        for alpha in (0.01, 0.1, 0.5, 0.99):
            assert sign_bounds(alpha, 100, 1) == (0, 1)

    def test_matches_exact_summation_oracle(self):
        for m in (16, 100, 511, 4096):
            lo, up = sign_bounds(0.1, 10_000, m)
            oracle = exact_binomial_lower(m, window_level(0.1, 10_000, m) / 2.0)
            assert lo == oracle
            assert up == m - lo

    def test_symmetric_around_half(self):
        for m in (1, 7, 64, 333, 2000):
            lo, up = sign_bounds(0.05, 2000, m)
            assert 0 <= lo <= m / 2 <= up <= m

    def test_monotone_in_m(self):
        for alpha, n in ((0.1, 2000), (0.05, 10_000)):
            ms = np.unique(np.linspace(1, n, 400).astype(int))
            bounds = [sign_bounds(alpha, n, int(m)) for m in ms]
            assert all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(bounds, bounds[1:]))

    def test_coverage_under_null(self):
        # Bernoulli(1/2) sign counts respect the per-window level
        m = 64
        lo, up = sign_bounds(0.1, 1024, m)
        rng = np.random.default_rng(5)
        counts = rng.binomial(m, 0.5, size=200_000)
        freq_in = np.mean((counts >= lo) & (counts <= up))
        assert freq_in >= 1 - window_level(0.1, 1024, m)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError, match=r"alpha = 1.5 must be in \(0, 1\)"):
            sign_bounds(1.5, 100, 2)
        with pytest.raises(ValueError):
            sign_bounds(0.1, 100, 200)

    def test_invalid_alpha_without_calibrated_scales(self):
        # a one-sample recording has no window to bound, yet alpha is checked
        with pytest.raises(ValueError, match=r"alpha = 1.5 must be in \(0, 1\)"):
            muscle_fit(make_recording([1.0]), alpha=1.5)


class TestMuscleBasics:
    def test_noiseless_constant(self):
        rec = make_recording(np.full(500, 3.25))
        ideal = muscle_fit(rec, alpha=0.1)
        assert ideal.n_switches == 0
        assert ideal.fit.levels[0] == 3.25
        assert ideal.feasible

    def test_noiseless_two_jumps_identity(self):
        truth = np.concatenate([np.zeros(300), np.ones(250), np.zeros(300)])
        rng = np.random.default_rng(1)
        rec = make_recording(truth + 0.05 * rng.standard_normal(len(truth)))
        ideal = muscle_fit(rec, alpha=0.1)
        assert ideal.n_switches == 2
        np.testing.assert_allclose(ideal.fit.levels, [0, 1, 0], atol=0.03)
        assert check_idealisation(rec, ideal)

    def test_constant_with_noise_rarely_splits(self):
        hits = 0
        seeds = range(200)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rec = make_recording(1.0 + 0.1 * rng.standard_normal(2000))
            ideal = muscle_fit(rec, alpha=0.1)
            hits += ideal.n_switches == 0
        assert hits >= 0.9 * len(seeds)

    def test_single_jump_detection_and_localization(self):
        rate, n, k_star = 1.0, 2000, 1000
        kernel = make_kernel("bspline2", rate)
        step = StepFunction([0.0, (k_star + 0.5) / rate, n / rate], [0.0, 1.0])
        clean = convolve_sample(step, kernel, rate, n)
        hits = within = 0
        n_seeds = 200
        for seed in range(n_seeds):
            noise = sample_noise(NoiseSpec("gaussian", sigma=0.1), n, kernel, seed=seed)
            rec = Recording(clean + noise, rate, kernel)
            ideal = muscle_fit(rec, alpha=0.1)
            if ideal.n_switches == 1:
                hits += 1
                est = round(ideal.fit.breaks[1] * rate - 0.5)
                within += abs(est - k_star) <= 10
        assert hits / n_seeds >= 0.95
        assert within / n_seeds >= 0.95

    def test_alpha_monotonicity_exact_engine(self):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.standard_normal(25), 5 + rng.standard_normal(25)])
        rec = make_recording(data)
        ks = [muscle_fit(rec, alpha=a).n_switches for a in (0.5, 0.2, 0.05, 0.01)]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_alpha_monotonicity_greedy_engine(self):
        rng = np.random.default_rng(4)
        truth = np.repeat([0.0, 2.0, 0.5, 3.0], 400)
        rec = make_recording(truth + 0.3 * rng.standard_normal(len(truth)))
        ks = [muscle_fit(rec, alpha=a).n_switches for a in (0.4, 0.1, 0.02)]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_feasibility_recheck(self):
        rng = np.random.default_rng(7)
        truth = np.repeat([0.0, 1.0], 600)
        rec = make_recording(truth + 0.1 * rng.standard_normal(1200),
                             kernel=make_kernel("bspline2", 1.0))
        ideal = muscle_fit(rec, alpha=0.1)
        assert ideal.feasible
        assert check_idealisation(rec, ideal)


def brute_force_min_switches(prob, n, max_k=4):
    for k in range(max_k + 1):
        for bounds in itertools.combinations(range(1, n), k):
            cuts = [0, *bounds, n]
            if all(prob.feasible(a, b) for a, b in zip(cuts, cuts[1:])):
                return k
    return None


class TestMinimality:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_small_n(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 41))
        jumps = rng.integers(0, 3)
        truth = np.zeros(n)
        positions = sorted(rng.integers(5, n - 5, size=jumps).tolist())
        lvl = 0.0
        for pos in positions:
            lvl += rng.choice([-8.0, 8.0])
            truth[pos:] = lvl
        data = truth + rng.standard_normal(n)
        alpha = rng.choice([0.1, 0.3, 0.6])
        rec = make_recording(data)
        ideal = muscle_fit(rec, alpha=alpha)
        prob = _Segmenter(data, d=0, stride=1, alpha=alpha)
        expected = brute_force_min_switches(prob, n)
        assert expected is not None
        assert ideal.n_switches == expected


class TestFuzz:
    @given(
        n=st.integers(min_value=1, max_value=120),
        alpha=st.floats(min_value=0.01, max_value=0.9),
        kind=st.sampled_from(["noise", "steps", "constant", "spike"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_invariants_on_arbitrary_inputs(self, n, alpha, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "noise":
            y = rng.standard_normal(n)
        elif kind == "steps":
            y = np.repeat(rng.uniform(-5, 5, max(1, n // 10 + 1)), 10)[:n].copy()
            y += 0.01 * rng.standard_normal(n)
        elif kind == "constant":
            y = np.full(n, float(rng.uniform(-3, 3)))
        else:
            y = np.zeros(n)
            y[rng.integers(0, n)] = 100.0
        rec = make_recording(y)
        ideal = muscle_fit(rec, alpha=alpha)
        assert ideal.n_switches == ideal.fit.n_changes
        assert ideal.fit.t_max == pytest.approx(n / rec.sample_rate)
        if ideal.feasible:
            assert check_idealisation(rec, ideal)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_fit_with_filtered_kernels(self, seed):
        rng = np.random.default_rng(seed)
        y = np.repeat(rng.uniform(0, 3, 6), 120) + 0.08 * rng.standard_normal(720)
        rec = make_recording(y, kernel=make_kernel("bspline2", 1.0))
        ideal = muscle_fit(rec, alpha=0.1)
        assert ideal.n_switches >= 0
        assert len(ideal.fit.levels) == ideal.n_switches + 1


def recount_feasible(prob, alpha, a, b):
    """Feasibility of segment [a, b) by counting every tested grid window
    of every dyadic scale at the segment level, ties counted as halves."""
    c = prob.level(a, b)
    s = 0 if a == 0 else min(a + prob.d, b)
    sd, bd = -(-s // prob.stride), -(-b // prob.stride)
    length = 2
    while length <= bd - sd:
        lo, up = sign_bounds(alpha, prob.nd, length)
        step = max(1, length // 2)
        for start in range(-(-sd // step) * step, bd - length + 1, step):
            window = prob.yd[start:start + length]
            count = np.sum(window < c) + 0.5 * np.sum(window == c)
            if not lo <= count <= up:
                return False
        length *= 2
    return True


def recount_deviation(prob, a, b):
    """Sum of |count - length/2| over every tested grid window of every
    dyadic scale of segment [a, b) at the segment level, ties counted as
    halves, in exact arithmetic."""
    c = prob.level(a, b)
    s = 0 if a == 0 else min(a + prob.d, b)
    sd, bd = -(-s // prob.stride), -(-b // prob.stride)
    total = Fraction(0)
    length = 2
    while length <= bd - sd:
        step = length // 2
        for start in range(-(-sd // step) * step, bd - length + 1, step):
            window = prob.yd[start:start + length]
            count = Fraction(int(np.sum(window < c))) + Fraction(int(np.sum(window == c)), 2)
            total += abs(count - Fraction(length, 2))
        length *= 2
    return total


def reference_refine_boundary(prob, a0, b0, b1, halfwidth):
    """The boundary refinement scored one dyadic scale at a time, with one
    window counter per scale and side."""
    lo_b = max(a0 + 1, b0 - halfwidth)
    hi_b = min(b1 - 1, b0 + halfwidth)
    if hi_b <= lo_b:
        return b0
    kappa = prob.stride
    c_left = prob.level(a0, b0)
    c_right = prob.level(b0, b1)
    sd_left = -(-prob.test_start(a0, b0) // kappa)
    bd_right = -(-b1 // kappa)
    cands = np.arange(lo_b, hi_b + 1)
    cand_end_d = -(-cands // kappa)
    cand_start_d = -(-(cands + prob.d) // kappa)

    def side_deviations(length, step, c, u_lo, u_hi):
        j0 = -(-u_lo // step)
        j1 = u_hi // step
        if j1 < j0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        starts = np.arange(j0, j1 + 1) * step
        cnt = prob._counter(int(starts.min()), int(starts.max()) + length, c)(starts, length)
        return starts, np.abs(cnt - length / 2.0)

    total = np.zeros(len(cands))
    length = 2
    while length <= prob.nd:
        step = length // 2
        u_lo = max(sd_left, int(cand_end_d.min()) - length + 1 - step)
        u_hi = min(int(cand_end_d.max()) - length, prob.nd - length)
        starts, devs = side_deviations(length, step, c_left, u_lo, u_hi)
        if len(starts):
            ends = starts + length
            order = np.argsort(ends, kind="stable")
            cum = np.concatenate([[0.0], np.cumsum(devs[order])])
            total += cum[np.searchsorted(ends[order], cand_end_d, side="right")]
        u_lo = int(cand_start_d.min())
        u_hi = min(int(cand_start_d.max()) + step, bd_right - length)
        starts, devs = side_deviations(length, step, c_right, u_lo, u_hi)
        if len(starts):
            order = np.argsort(starts, kind="stable")
            suffix = np.concatenate([np.cumsum(devs[order][::-1])[::-1], [0.0]])
            total += suffix[np.searchsorted(starts[order], cand_start_d, side="left")]
        length *= 2

    best = int(np.lexsort((cands, np.abs(cands - b0), total))[0])
    b_new = int(cands[best])
    if b_new != b0 and prob.feasible(a0, b_new) and prob.feasible(b_new, b1):
        return b_new
    return b0


def tie_heavy_samples(rng, n):
    # integer-valued steps plus integer noise make ties with the segment
    # median common
    y = np.repeat(rng.integers(0, 3, n // 20 + 1), 20)[:n] + rng.integers(-2, 3, n)
    return y.astype(float)


def tie_heavy_segmenter(n, stride, d, alpha, seed):
    rng = np.random.default_rng(seed)
    return rng, _Segmenter(tie_heavy_samples(rng, n), d=d, stride=stride, alpha=alpha)


def reference_passes(prob, a, b, c):
    """The feasibility test at level c that counts, with one counter over
    the whole tested segment, every window whose cuts do not bracket c."""
    sd, bd = prob._dec_range(a, b)
    if bd - sd <= 1:
        return True
    count = None
    for length, step, lower, lowcut, highcut in prob.scales:
        if length > bd - sd:
            break
        j0 = -(-sd // step)
        j1 = (bd - length) // step
        if j1 < j0:
            continue
        ok = (lowcut[j0:j1 + 1] < c) & (c < highcut[j0:j1 + 1])
        if ok.all():
            continue
        if count is None:
            count = prob._counter(sd, bd, c)
        cnt = count((j0 + np.nonzero(~ok)[0]) * step, length)
        if ((cnt < lower) | (cnt > length - lower)).any():
            return False
    return True


def reference_feasible(prob, a, b):
    """reference_passes at the segment level: the counting probe."""
    return reference_passes(prob, a, b, prob.level(a, b))


def fit_bytes(ideal):
    return ideal.fit.breaks.tobytes(), ideal.fit.levels.tobytes(), ideal.feasible


def reference_fit_bytes(rec):
    """fit_bytes of muscle_fit driven by reference_feasible."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Segmenter, "feasible", reference_feasible)
        return fit_bytes(muscle_fit(rec, alpha=0.1))


tie_heavy_inputs = dict(
    n=st.integers(min_value=40, max_value=200),
    stride=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=0, max_value=6),
    alpha=st.sampled_from([0.05, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestFeasibility:
    @given(**tie_heavy_inputs)
    @settings(max_examples=150, deadline=None)
    def test_feasible_matches_window_recount(self, n, stride, d, alpha, seed):
        rng, prob = tie_heavy_segmenter(n, stride, d, alpha, seed)
        for _ in range(20):
            a, b = sorted(int(v) for v in rng.choice(n + 1, 2, replace=False))
            assert prob.feasible(a, b) == recount_feasible(prob, alpha, a, b), (a, b)

    @given(**tie_heavy_inputs)
    @settings(max_examples=100, deadline=None)
    def test_deviation_matches_window_recount(self, n, stride, d, alpha, seed):
        # pins the exact engine's tie-break objective
        rng, prob = tie_heavy_segmenter(n, stride, d, alpha, seed)
        for _ in range(10):
            a, b = sorted(int(v) for v in rng.choice(n + 1, 2, replace=False))
            assert prob.deviation(a, b) == recount_deviation(prob, a, b), (a, b)

    @given(**tie_heavy_inputs)
    @settings(max_examples=150, deadline=None)
    def test_refine_boundary_matches_per_scale_reference(self, n, stride, d, alpha, seed):
        rng, prob = tie_heavy_segmenter(n, stride, d, alpha, seed)
        for _ in range(20):
            a0, b0, b1 = sorted(int(v) for v in rng.choice(n + 1, 3, replace=False))
            halfwidth = int(rng.integers(1, 65))
            assert (prob.refine_boundary(a0, b0, b1, halfwidth)
                    == reference_refine_boundary(prob, a0, b0, b1, halfwidth)), (a0, b0, b1)

    @given(**tie_heavy_inputs)
    @settings(max_examples=150, deadline=None)
    def test_feasible_matches_per_scale_counting_reference(self, n, stride, d, alpha, seed):
        rng, prob = tie_heavy_segmenter(n, stride, d, alpha, seed)
        for _ in range(20):
            a, b = sorted(int(v) for v in rng.choice(n + 1, 2, replace=False))
            c = [None, prob.level(a, b), float(rng.integers(-2, 5))][int(rng.integers(3))]
            if c is None:
                assert prob.feasible(a, b) == reference_feasible(prob, a, b), (a, b)
            else:
                assert prob._passes(a, b, c) == reference_passes(prob, a, b, c), (a, b, c)

    @given(**tie_heavy_inputs)
    @settings(max_examples=100, deadline=None)
    def test_remembered_answers_match_a_fresh_segmenter(self, n, stride, d, alpha, seed):
        rng, prob = tie_heavy_segmenter(n, stride, d, alpha, seed)
        # spans that share their ends, so a memo keyed by one end shows
        points = sorted(int(v) for v in rng.choice(n + 1, 4, replace=False))
        spans = list(itertools.combinations(points, 2))
        for _ in range(30):
            a, b = spans[int(rng.integers(len(spans)))]
            fresh = _Segmenter(prob.y, d=d, stride=stride, alpha=alpha)
            if rng.integers(2):
                assert (np.float64(prob.level(a, b)).tobytes()
                        == np.float64(fresh.level(a, b)).tobytes()), (a, b)
            else:
                assert prob.feasible(a, b) == fresh.feasible(a, b), (a, b)


class TestExtremumTable:
    def test_range_extrema_match_slice_reductions(self):
        # every range of every length 1..40, on values with ties and both
        # signed zeros; the max and min tables come from different arrays,
        # so a swapped lookup shows
        rng = np.random.default_rng(5)
        pool = np.array([-1.5, -0.0, 0.0, 0.25, 3.0])
        for size in range(1, 41):
            x = np.where(rng.random(size) < 0.7, rng.choice(pool, size), rng.normal(size=size))
            y = np.where(rng.random(size) < 0.7, rng.choice(pool, size), rng.normal(size=size))
            max_table, min_table = extremum_table(x, np.maximum), extremum_table(y, np.minimum)
            assert len(max_table) == size.bit_length()
            for j0 in range(size):
                for j1 in range(j0, size):
                    assert (range_extrema(max_table, min_table, j0, j1)
                            == (x[j0:j1 + 1].max(), y[j0:j1 + 1].min())), (size, j0, j1)


    def test_range_extrema_take_numpy_integer_spans(self):
        # spans found with numpy, such as np.flatnonzero positions, give the
        # same extrema as Python ints
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=37), rng.normal(size=37)
        max_table, min_table = extremum_table(x, np.maximum), extremum_table(y, np.minimum)
        starts = np.flatnonzero(x > 0)
        for j0 in starts:
            for j1 in np.flatnonzero(np.arange(37) >= j0):
                assert isinstance(j1, np.integer)
                assert (range_extrema(max_table, min_table, j0, j1)
                        == range_extrema(max_table, min_table, int(j0), int(j1))), (j0, j1)

class TestReferenceFit:
    """muscle_fit equals the fit driven by the per-scale counting probe."""

    # at n = 3e4 the smallest scale's extremum tables stop at level 9; the
    # n = 3e5 recording takes them to level 13
    @pytest.mark.parametrize("seed, n", [(1, 30_000), (2, 30_000), (3, 30_000), (4, 30_000),
                                         (5, 300_000)], ids=["1", "2", "3", "4", "5"])
    def test_acceptance_recordings(self, seed, n):
        rec = acceptance_recording(n, rep_seed(seed, 0))
        assert fit_bytes(muscle_fit(rec, alpha=0.1)) == reference_fit_bytes(rec)

    @given(n=st.integers(min_value=40, max_value=600),
           width=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_recordings(self, n, width, seed):
        y = tie_heavy_samples(np.random.default_rng(seed), n)
        rec = make_recording(y, kernel=make_kernel("custom", 1.0, taps=np.ones(width)))
        assert fit_bytes(muscle_fit(rec, alpha=0.1)) == reference_fit_bytes(rec)


class TestLevel:
    special = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e-310, -2.2e-308,
               1.7e308, -1.7e308, 1e300, -3.0]

    @given(
        values=st.lists(st.sampled_from(special), min_size=1, max_size=40),
        d=st.integers(min_value=0, max_value=45),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_level_is_np_median_bit_for_bit(self, values, d, data):
        y = np.array(values)
        n = len(y)
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=n))
        prob = _Segmenter(y, d=d, stride=1, alpha=0.1)
        s = prob.test_start(a, b)
        tested = y[a:b] if s >= b else y[s:b]
        with np.errstate(over="ignore"):
            expected = float(np.median(tested))
        assert np.float64(prob.level(a, b)).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("values, a, b, d, expected", [
        ([-0.0], 0, 1, 0, 0.0),                 # odd: the sum from +0.0 drops the sign
        ([-0.0, -0.0], 0, 2, 0, 0.0),           # even, both middle values -0.0
        ([-5e-324, 0.0], 0, 2, 0, -0.0),        # even: the halved sum rounds to -0.0
        ([1.7e308, 1.7e308], 0, 2, 0, math.inf),  # the middle sum overflows
        ([9.0, 1.0, 2.0, 3.0], 1, 3, 5, 1.5),   # nothing tested: median over [a, b)
        ([9.0, 1.0, 2.0, 3.0], 1, 4, 1, 2.5),   # tested slice [2, 4)
    ])
    def test_level_edge_cases(self, values, a, b, d, expected):
        prob = _Segmenter(np.array(values), d=d, stride=1, alpha=0.1)
        got = prob.level(a, b)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestEmpiricalFdr:
    def test_all_exact(self):
        assert empirical_fdr(3, [3, 3, 3]) == 0.0

    def test_formula(self):
        assert empirical_fdr(0, [1, 0, 0, 0]) == pytest.approx(0.25)

    def test_mixed(self):
        # (2-1)/2 = 0.5 and (0-1 -> 0)/1 = 0
        assert empirical_fdr(1, [2, 0]) == pytest.approx(0.25)


class TestRobustness:
    def test_cauchy_vs_gaussian_detection(self):
        rate, n = 1.0, 1500
        kernel = make_kernel("bspline2", rate)
        truth = np.repeat([0.0, 1.0, 0.0], n // 3)
        step_breaks = [0.0, n // 3 + 0.5, 2 * (n // 3) + 0.5, float(n)]
        step = StepFunction(step_breaks, [0.0, 1.0, 0.0])
        clean = convolve_sample(step, kernel, rate, n)
        rates = {}
        for kind, spec in (("gaussian", NoiseSpec("gaussian", sigma=0.1)),
                           ("cauchy", NoiseSpec("cauchy", scale=0.1))):
            found = 0
            n_seeds = 60
            for seed in range(n_seeds):
                noise = sample_noise(spec, n, kernel, seed=1000 + seed)
                ideal = muscle_fit(Recording(clean + noise, rate, kernel), alpha=0.1)
                found += ideal.n_switches == 2
            rates[kind] = found / n_seeds
        assert abs(rates["gaussian"] - rates["cauchy"]) <= 0.10


class TestScaling:
    @staticmethod
    def probed_samples(rec):
        """Samples covered by the feasibility probes of the greedy pass."""
        prob = _Segmenter.from_recording(rec, alpha=0.1)
        total = 0
        feasible = prob.feasible

        def counting(a, b):
            nonlocal total
            total += b - a
            return feasible(a, b)

        prob.feasible = counting
        prob.greedy_segments()
        return total

    def test_greedy_probes_grow_linearly_in_n(self):
        # counts, not timings: probing the rest of the recording for every
        # segment makes probed / n grow with n
        per_sample = []
        for n in (10_000, 40_000):
            probed = self.probed_samples(acceptance_recording(n, 11))
            assert probed <= 16 * n
            per_sample.append(probed / n)
        assert per_sample[1] <= 1.2 * per_sample[0]

    def test_greedy_and_merge_decide_from_the_cuts(self, monkeypatch):
        # counts, not timings: on continuous noise no probe of the greedy
        # and merge passes needs a full-segment counter
        prob = _Segmenter.from_recording(acceptance_recording(10_000, 11), alpha=0.1)
        counter = _Segmenter._counter
        calls = 0

        def counting_counter(self, lo, hi, c):
            nonlocal calls
            calls += 1
            return counter(self, lo, hi, c)

        monkeypatch.setattr(_Segmenter, "_counter", counting_counter)
        segs = prob.merge_pass(prob.greedy_segments())
        assert len(segs) >= 20
        assert calls == 0

    def test_repeated_probe_partitions_nothing(self, monkeypatch):
        # counts, not timings: the level and verdict of a span are kept
        prob = _Segmenter.from_recording(acceptance_recording(10_000, 11), alpha=0.1)
        partition = np.partition
        calls = 0

        def counting_partition(*args, **kwargs):
            nonlocal calls
            calls += 1
            return partition(*args, **kwargs)

        monkeypatch.setattr(np, "partition", counting_partition)
        first = [prob.feasible(a, b) for a, b in ((0, 500), (500, 5_000), (0, 10_000))]
        assert calls == 3
        calls = 0
        again = [prob.feasible(a, b) for a, b in ((0, 500), (500, 5_000), (0, 10_000))]
        assert again == first
        assert calls == 0

    def test_segmenters_of_one_length_share_their_bounds(self, monkeypatch):
        # counts, not timings: the binomial quantiles of a decimated length
        # are computed once, not once per recording
        binom = idealise.binom
        calls = 0

        def counting_ppf(*args):
            nonlocal calls
            calls += 1
            return binom.ppf(*args)

        monkeypatch.setattr(idealise, "binom", SimpleNamespace(ppf=counting_ppf, cdf=binom.cdf))
        rng = np.random.default_rng(2)
        sign_bounds.cache_clear()
        _Segmenter(rng.standard_normal(1200), d=2, stride=2, alpha=0.1)
        assert calls > 0
        calls = 0
        _Segmenter(rng.standard_normal(1199), d=4, stride=2, alpha=0.1)
        assert calls == 0

    def test_refinement_builds_two_counters_per_boundary(self, monkeypatch):
        # counts, not timings: one window counter per side scores every
        # dyadic scale; the closing feasibility re-check is not counted
        rec = acceptance_recording(10_000, 11)
        counter, feasible, refine = (_Segmenter._counter, _Segmenter.feasible,
                                     _Segmenter.refine_boundary)
        per_boundary = []
        counting = False

        def counting_counter(self, lo, hi, c):
            if counting:
                per_boundary[-1] += 1
            return counter(self, lo, hi, c)

        def uncounted_feasible(self, a, b):
            nonlocal counting
            outer, counting = counting, False
            try:
                return feasible(self, a, b)
            finally:
                counting = outer

        def counted_refine(self, *args):
            nonlocal counting
            per_boundary.append(0)
            counting = True
            try:
                return refine(self, *args)
            finally:
                counting = False

        monkeypatch.setattr(_Segmenter, "_counter", counting_counter)
        monkeypatch.setattr(_Segmenter, "feasible", uncounted_feasible)
        monkeypatch.setattr(_Segmenter, "refine_boundary", counted_refine)
        muscle_fit(rec, alpha=0.1)
        assert len(per_boundary) >= 20
        assert max(per_boundary) <= 2
