import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopchan.core import StepFunction
from coopchan.idealise import (
    InvalidAlpha,
    SignBounds,
    _Segmenter,
    check_idealisation,
    empirical_fdr,
    muscle_fit,
)
from coopchan.model import ParamVector
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


class TestSignBounds:
    def test_single_sample_unconstrained(self):
        for alpha in (0.01, 0.1, 0.5, 0.99):
            assert SignBounds(alpha, 100).bounds(1) == (0, 1)

    def test_matches_exact_summation_oracle(self):
        sb = SignBounds(0.1, 10_000)
        for m in (16, 100, 511, 4096):
            lo, up = sb.bounds(m)
            oracle = exact_binomial_lower(m, sb.level(m) / 2.0)
            assert lo == oracle
            assert up == m - lo

    def test_symmetric_around_half(self):
        sb = SignBounds(0.05, 2000)
        for m in (1, 7, 64, 333, 2000):
            lo, up = sb.bounds(m)
            assert 0 <= lo <= m / 2 <= up <= m

    def test_monotone_in_m(self):
        for alpha, n in ((0.1, 2000), (0.05, 10_000)):
            sb = SignBounds(alpha, n)
            ms = np.unique(np.linspace(1, n, 400).astype(int))
            lows = [sb.lower(int(m)) for m in ms]
            ups = [sb.upper(int(m)) for m in ms]
            assert all(b >= a for a, b in zip(lows, lows[1:]))
            assert all(b >= a for a, b in zip(ups, ups[1:]))

    def test_coverage_under_null(self):
        # Bernoulli(1/2) sign counts respect the per-window level
        sb = SignBounds(0.1, 1024)
        m = 64
        lo, up = sb.bounds(m)
        rng = np.random.default_rng(5)
        counts = rng.binomial(m, 0.5, size=200_000)
        freq_in = np.mean((counts >= lo) & (counts <= up))
        assert freq_in >= 1 - sb.level(m)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            SignBounds(1.5, 100)
        with pytest.raises(ValueError):
            SignBounds(0.1, 100).bounds(200)


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


def recount_feasible(prob, a, b):
    """Feasibility of segment [a, b) by counting every tested grid window
    of every dyadic scale at the segment level, ties counted as halves."""
    c = prob.level(a, b)
    s = 0 if a == 0 else min(a + prob.d, b)
    sd, bd = -(-s // prob.stride), -(-b // prob.stride)
    length = 2
    while length <= bd - sd:
        lo, up = prob.bounds.bounds(length)
        step = max(1, length // 2)
        for start in range(-(-sd // step) * step, bd - length + 1, step):
            window = prob.yd[start:start + length]
            count = np.sum(window < c) + 0.5 * np.sum(window == c)
            if not lo <= count <= up:
                return False
        length *= 2
    return True


class TestFeasibility:
    @given(
        n=st.integers(min_value=40, max_value=200),
        stride=st.integers(min_value=1, max_value=3),
        d=st.integers(min_value=0, max_value=6),
        alpha=st.sampled_from([0.05, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_feasible_matches_window_recount(self, n, stride, d, alpha, seed):
        # integer-valued steps plus integer noise make ties with the
        # segment median common
        rng = np.random.default_rng(seed)
        y = np.repeat(rng.integers(0, 3, n // 20 + 1), 20)[:n] + rng.integers(-2, 3, n)
        prob = _Segmenter(y.astype(float), d=d, stride=stride, alpha=alpha)
        for _ in range(20):
            a, b = sorted(int(v) for v in rng.choice(n + 1, 2, replace=False))
            assert prob.feasible(a, b) == recount_feasible(prob, a, b), (a, b)


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

        def counting(a, b, c=None):
            nonlocal total
            total += b - a
            return feasible(a, b, c)

        prob.feasible = counting
        prob.greedy_segments()
        return total

    def test_greedy_probes_grow_linearly_in_n(self):
        # counts, not timings: probing the rest of the recording for every
        # segment makes probed / n grow with n
        theta = ParamVector.constant(3, 0.998, 0.998)
        kernel = make_kernel("bessel", 10_000.0, cutoff=2_500.0)
        per_sample = []
        for n in (10_000, 40_000):
            rec = synthesize_recording(theta, n, 10_000.0, kernel=kernel,
                                       noise=NoiseSpec("gaussian", sigma=0.1), seed=11)
            probed = self.probed_samples(rec)
            assert probed <= 16 * n
            per_sample.append(probed / n)
        assert per_sample[1] <= 1.2 * per_sample[0]
