import numpy as np
import pytest
import scipy.signal

from coopchan.core import StepFunction
from coopchan.io import kernel_to_dict
from coopchan.model import ParamVector
from coopchan.synth import (
    DomainExceeded,
    InvalidParam,
    Kernel,
    NoiseSpec,
    _bessel_taps,
    convolve_sample,
    make_kernel,
    sample_noise,
    step_from_trace,
    synthesize_recording,
)


def box_convolution_oracle(n_factors=3, subdiv=2000):
    """Fine-grid triple convolution of a unit box one sample wide, sampled
    with the kernel peak on a sampling instant (offsets 0.5, 1.5, 2.5 of the
    [0, 3] support) and normalized."""
    subdiv += 1 - subdiv % 2  # odd tap count gives an exact center index
    box = np.full(subdiv, 1.0 / subdiv)
    acc = box
    for _ in range(n_factors - 1):
        acc = np.convolve(acc, box)
    center = (len(acc) - 1) // 2
    idx = center + subdiv * (np.arange(n_factors) - (n_factors - 1) // 2)
    taps = acc[idx]
    return taps / taps.sum()


class TestStepFromTrace:
    def test_direct_construction(self):
        step = step_from_trace(np.array([0, 0, 1, 1, 0]), 0.0, 1.0, 1.0)
        assert step.n_changes == 2
        np.testing.assert_array_equal(step.levels, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(step.breaks, [0.0, 2.5, 4.5, 5.0])

    def test_constant(self):
        step = step_from_trace(np.array([2, 2, 2]), 0.0, 1.0, 10.0)
        assert step.n_changes == 0
        assert step.t_max == pytest.approx(0.3)

    def test_affine_map(self):
        step = step_from_trace(np.array([0, 1, 2]), 0.5, 2.0, 1.0)
        np.testing.assert_array_equal(step.levels, [0.5, 2.5, 4.5])

    def test_round_trip_sampling(self):
        values = np.array([0, 0, 2, 1, 1, 1, 0])
        step = step_from_trace(values, 0.0, 1.0, 100.0)
        back = step.sample(np.arange(1, len(values) + 1) / 100.0)
        np.testing.assert_array_equal(back, values.astype(float))


class TestKernels:
    def test_identity(self):
        k = make_kernel("identity", 1.0)
        np.testing.assert_array_equal(k.taps, [1.0])
        assert k.support == 0.0

    def test_bspline2_matches_box_oracle(self):
        k = make_kernel("bspline2", 1.0)
        oracle = box_convolution_oracle()
        assert len(k.taps) == len(oracle)
        np.testing.assert_allclose(k.taps, oracle, atol=1e-6)
        assert k.taps.sum() == 1.0

    def test_bessel_unit_sum(self):
        k = make_kernel("bessel", 10_000.0, order=4, cutoff=1_000.0)
        assert abs(k.taps.sum() - 1.0) < 1e-12
        assert (k.taps >= 0).all()
        assert k.support > 0

    def test_bessel_taps_are_built_once_and_shared_read_only(self, monkeypatch):
        calls = []
        impulse = scipy.signal.impulse

        def counting_impulse(*args, **kwargs):
            calls.append(1)
            return impulse(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, "impulse", counting_impulse)
        first = make_kernel("bessel", 8_000.0, order=3, cutoff=1_234.5)
        made = len(calls)
        second = make_kernel("bessel", 8_000.0, order=3, cutoff=1_234.5)
        assert len(calls) == made
        assert second.taps.tobytes() == first.taps.tobytes()
        with pytest.raises(ValueError):
            second.taps[0] = 0.5
        # the dictionary of the shared taps is that of freshly built ones
        fresh = Kernel("bessel", _bessel_taps.__wrapped__(3, 1_234.5, 8_000.0), 8_000.0,
                       order=3, cutoff=1_234.5)
        assert len(calls) == made + 1
        assert kernel_to_dict(second) == kernel_to_dict(fresh)

    def test_custom_normalizes(self):
        k = make_kernel("custom", 1.0, taps=[1.0, 2.0, 1.0])
        np.testing.assert_allclose(k.taps, [0.25, 0.5, 0.25])

    def test_invalid(self):
        with pytest.raises(InvalidParam):
            make_kernel("identity", -1.0)
        with pytest.raises(InvalidParam):
            make_kernel("bessel", 100.0, cutoff=90.0)
        with pytest.raises(InvalidParam):
            Kernel("custom", np.array([0.5, 0.4]), 1.0)

    def test_decimation_stride(self):
        assert make_kernel("identity", 1.0).decimation_stride() == 1
        assert make_kernel("bspline2", 1.0).decimation_stride() == 2
        bessel = make_kernel("bessel", 10_000.0)
        assert 1 <= bessel.decimation_stride() <= len(bessel.taps)


class TestConvolveSample:
    def test_identity_exact(self):
        step = StepFunction([0.0, 2.5, 5.0], [1.0, 3.0])
        y = convolve_sample(step, make_kernel("identity", 1.0), 1.0, 5)
        np.testing.assert_array_equal(y, step.sample(np.arange(1, 6)))

    def test_dc_gain(self):
        step = StepFunction([0.0, 10.0], [4.2])
        for kind in ("bspline2", "bessel"):
            k = make_kernel(kind, 100.0)
            y = convolve_sample(step, k, 100.0, 1000)
            np.testing.assert_allclose(y, 4.2, atol=1e-12)

    def test_matches_naive_convolution_sum(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 3, 60)
        step = step_from_trace(values, 0.0, 1.0, 1.0)
        k = make_kernel("bspline2", 1.0)
        y = convolve_sample(step, k, 1.0, 60)
        s = step.sample(np.arange(1, 61))
        naive = np.empty(60)
        for i in range(60):
            acc = 0.0
            for j, tap in enumerate(k.taps):
                idx = i - j
                acc += tap * (s[idx] if idx >= 0 else s[0])
            naive[i] = acc
        np.testing.assert_allclose(y, naive, atol=1e-12)

    def test_single_step_monotone_ramp(self):
        step = StepFunction([0.0, 10.5, 20.0], [0.0, 1.0])
        y = convolve_sample(step, make_kernel("bspline2", 1.0), 1.0, 20)
        ramp = y[9:13]
        assert (np.diff(ramp) >= 0).all()
        assert y[8] == 0.0 and y[13] == 1.0

    def test_domain_check(self):
        step = StepFunction([0.0, 1.0], [0.0])
        with pytest.raises(DomainExceeded):
            convolve_sample(step, make_kernel("identity", 1.0), 1.0, 2)


class TestNoise:
    @pytest.mark.parametrize("spec", [
        NoiseSpec("gaussian", sigma=0.1),
        NoiseSpec("cauchy", scale=0.05),
        NoiseSpec("mixture", sigma=0.1, scale=0.05, weight_gaussian=0.85),
    ])
    def test_filtered_median_zero(self, spec):
        k = make_kernel("bessel", 10_000.0)
        draws = sample_noise(spec, 1_000_000, k, seed=123)
        below = (draws < 0).sum()
        # sign test: under median zero, below ~ Bin(n, 1/2)
        n = len(draws)
        z = abs(below - n / 2) / np.sqrt(n / 4)
        assert z < 3.0

    def test_deterministic(self):
        spec = NoiseSpec("mixture")
        k = make_kernel("bspline2", 1.0)
        a = sample_noise(spec, 1000, k, seed=9)
        b = sample_noise(spec, 1000, k, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_spec(self):
        with pytest.raises(InvalidParam):
            NoiseSpec("gaussian", sigma=0.0)
        with pytest.raises(InvalidParam):
            NoiseSpec("mixture", weight_gaussian=1.5)


class TestSynthesizeRecording:
    def test_deterministic_bitwise(self):
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        a = synthesize_recording(theta, 1200, 10_000.0, noise=NoiseSpec("gaussian", sigma=0.1), seed=7)
        b = synthesize_recording(theta, 1200, 10_000.0, noise=NoiseSpec("gaussian", sigma=0.1), seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_noise_kinds_share_trace(self):
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        g = synthesize_recording(theta, 500, noise=NoiseSpec("gaussian", sigma=0.1), seed=3)
        c = synthesize_recording(theta, 500, noise=NoiseSpec("cauchy", scale=0.05), seed=3)
        np.testing.assert_array_equal(g.truth.discrete.values, c.truth.discrete.values)
        assert not np.array_equal(g.samples, c.samples)

    def test_truth_fields(self):
        theta = ParamVector.from_flat([0.9, 0.8, 0.8, 0.9])
        rec = synthesize_recording(theta, 300, 1000.0, offset=0.5, spacing=2.0,
                                   kernel="identity", noise=None, seed=1)
        assert rec.truth.theta is theta
        assert len(rec) == 300
        expected = 0.5 + 2.0 * rec.truth.discrete.values
        np.testing.assert_array_equal(rec.samples, expected.astype(float))

    def test_noiseless_matches_convolved_step(self):
        theta = ParamVector.from_flat([0.95, 0.9, 0.9, 0.95])
        rec = synthesize_recording(theta, 400, 1000.0, kernel="bspline2", noise=None, seed=2)
        redo = convolve_sample(rec.truth.step, rec.kernel, rec.sample_rate, 400)
        np.testing.assert_array_equal(rec.samples, redo)
