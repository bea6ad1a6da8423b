import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from coopchan import io as cio
from coopchan.core import StepFunction, run_starts, sample_times
from coopchan.idealise import Idealisation
from coopchan.io import kernel_to_dict
from coopchan.model import ParamVector
from coopchan.synth import (
    Kernel,
    NoiseSpec,
    Recording,
    _bessel_taps,
    convolve_sample,
    make_kernel,
    sample_noise,
    step_from_trace,
    synthesize_recording,
)

GRID_RATES = (1e-3, 1.0, 3.0, 7.0, 1e4, 2.5e4, 44_100.0)


def reference_sample(step, times):
    """The level at each time by one searchsorted over the breaks: the last
    segment starting at or before it, t_max and beyond mapping to the last
    segment.  The bit-for-bit reference for StepFunction.per_sample."""
    idx = np.searchsorted(step.breaks, np.asarray(times, dtype=float), side="right") - 1
    return step.levels[np.clip(idx, 0, len(step.levels) - 1)]


@st.composite
def grid_segments(draw):
    """(starts, levels, n): segment starts on the sample grid of n samples,
    starts[0] = 0, with adjacent levels that differ."""
    n = draw(st.integers(min_value=1, max_value=300))
    inner = draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=20))
    starts = np.array([0, *sorted(inner - {n})], dtype=np.int64)
    steps = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(starts),
                          max_size=len(starts)))
    return starts, np.cumsum(steps) % 4 * 0.5 - 0.25, n


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
        np.testing.assert_array_equal(step.per_sample(100.0), values.astype(float))


class TestKernels:
    def test_identity(self):
        k = make_kernel("identity", 1.0)
        np.testing.assert_array_equal(k.taps, [1.0])

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
        assert len(k.taps) > 1

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
        with pytest.raises(ValueError, match="sample_rate must be finite and positive"):
            make_kernel("identity", -1.0)
        with pytest.raises(ValueError, match="need order >= 1 and 0 < cutoff < sample_rate / 2"):
            make_kernel("bessel", 100.0, cutoff=90.0)
        with pytest.raises(ValueError, match="taps sum to .*, not 1"):
            Kernel("custom", np.array([0.5, 0.4]), 1.0)

    @pytest.mark.parametrize("order", [34, 40])
    def test_bessel_order_that_overflows_is_invalid(self, order):
        # raised as ValueError, with no overflow warning on the way (an
        # error under this suite's warning filters) and no NaN taps
        with pytest.raises(ValueError, match=f"Bessel order {order} .* overflows"):
            _bessel_taps.__wrapped__(order, 1_000.0, 10_000.0)
        assert len(make_kernel("bessel", 10_000.0, order=31, cutoff=1_000.0).taps) > 1

    @pytest.mark.parametrize("order, cutoff", [(32, 1_000.0), (33, 1_000.0), (31, 2_500.0)])
    def test_bessel_order_that_loses_precision_is_invalid(self, order, cutoff):
        # the response goes negative before its peak a few orders below the
        # overflow; the error names the order and the cutoff, not the taps
        with pytest.raises(ValueError, match=f"Bessel order {order} at cutoff {cutoff!r} Hz "
                                             "has an impulse response that is negative"):
            make_kernel("bessel", 10_000.0, order=order, cutoff=cutoff)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_taps_are_rejected(self, bad):
        with pytest.raises(ValueError, match="taps must be finite"):
            Kernel("custom", np.array([bad, 0.5, 0.5]), 1.0)

    def test_decimation_stride(self):
        assert make_kernel("identity", 1.0).decimation_stride() == 1
        assert make_kernel("bspline2", 1.0).decimation_stride() == 2
        bessel = make_kernel("bessel", 10_000.0)
        assert 1 <= bessel.decimation_stride() <= len(bessel.taps)


class TestConvolveSample:
    def test_identity_exact(self):
        step = StepFunction([0.0, 2.5, 5.0], [1.0, 3.0])
        y = convolve_sample(step, make_kernel("identity", 1.0), 1.0, 5)
        np.testing.assert_array_equal(y, reference_sample(step, np.arange(1, 6)))

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
        s = reference_sample(step, np.arange(1, 61))
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
        with pytest.raises(ValueError, match="need 1 <= n <= 1, the samples up to t_max"):
            convolve_sample(step, make_kernel("identity", 1.0), 1.0, 2)

    @pytest.mark.parametrize("rate", GRID_RATES)
    def test_domain_is_the_grid_sample_count(self, rate):
        values = np.random.default_rng(5).integers(0, 3, 97)
        step = step_from_trace(values, 0.0, 1.0, rate)
        kernel = make_kernel("bspline2", rate)
        assert len(convolve_sample(step, kernel, rate, 97)) == 97
        for n in (0, 98):
            with pytest.raises(ValueError, match="need 1 <= n <= 97, the samples up to t_max"):
                convolve_sample(step, kernel, rate, n)


class TestSampleGrid:
    @given(segments=grid_segments(), rate=st.sampled_from(GRID_RATES))
    @settings(max_examples=200, deadline=None)
    def test_on_grid_per_sample_round_trip(self, segments, rate):
        starts, levels, n = segments
        step = StepFunction.on_grid(starts, levels, n, rate)
        expected = np.repeat(levels, np.diff(starts, append=n))
        np.testing.assert_array_equal(step.per_sample(rate), expected)
        np.testing.assert_array_equal(reference_sample(step, sample_times(n, rate)), expected)

    @given(segments=grid_segments())
    @settings(max_examples=200, deadline=None)
    def test_run_starts_are_the_segment_starts(self, segments):
        starts, levels, n = segments
        assert run_starts(np.repeat(levels, np.diff(starts, append=n))).tobytes() == \
            starts.tobytes()
        assert run_starts([]).size == 0

    @given(segments=grid_segments(), rate=st.sampled_from(GRID_RATES), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_per_sample_matches_searchsorted_reference(self, segments, rate, data):
        # breaks on the half-sample grid, read back from the 9-decimal
        # idealisation CSV, and shifted off the grid by 0.01-0.99 of a sample
        starts, levels, n = segments
        on_grid = StepFunction.on_grid(starts, levels, n, rate)
        shifts = data.draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                                    min_size=len(starts) - 1, max_size=len(starts) - 1))
        off_grid = StepFunction(np.concatenate([[0.0], (starts[1:] + shifts) / rate, [n / rate]]),
                                levels)
        steps = [on_grid, off_grid]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idealisation.csv"
            cio.write_idealisation(Idealisation(fit=on_grid, alpha=0.1, n_switches=len(starts) - 1,
                                                feasible=True, sample_rate=rate), path)
            steps.append(cio.read_idealisation(path).fit)
        for step in steps:
            times = sample_times(int(np.rint(step.t_max * rate)), rate)
            np.testing.assert_array_equal(step.per_sample(rate), reference_sample(step, times))

    @pytest.mark.parametrize("rate", GRID_RATES)
    def test_a_break_on_a_sample_time_starts_its_level_there(self, rate):
        times = sample_times(5, rate)
        step = StepFunction([0.0, times[1], times[4]], [1.0, 3.0])
        np.testing.assert_array_equal(step.per_sample(rate), [1.0, 3.0, 3.0, 3.0, 3.0])
        np.testing.assert_array_equal(reference_sample(step, times), [1.0, 3.0, 3.0, 3.0, 3.0])

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        # an infinite rate used to pass all three checks
        for build in (lambda: make_kernel("identity", rate),
                      lambda: Kernel("identity", np.array([1.0]), rate),
                      lambda: Recording(np.zeros(3), rate, make_kernel("identity", 1.0))):
            with pytest.raises(ValueError, match="sample_rate must be finite and positive"):
                build()

    def test_recording_kernel_must_share_its_rate(self):
        with pytest.raises(ValueError, match="kernel sample_rate"):
            Recording(np.zeros(10), 1000.0, make_kernel("bspline2", 2000.0))


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

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy", "mixture"])
    def test_one_tap_filter_keeps_the_raw_stream(self, kind):
        # filtering with the identity kernel's single unit tap draws the same
        # n values and leaves their bits as they are
        k = make_kernel("identity", 1.0)
        filtered = sample_noise(NoiseSpec(kind), 10_000, k, seed=5)
        raw = sample_noise(NoiseSpec(kind, filtered=False), 10_000, k, seed=5)
        assert filtered.tobytes() == raw.tobytes()

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            NoiseSpec("gaussian", sigma=0.0)
        with pytest.raises(ValueError, match=r"weight_gaussian must be in \[0, 1\]"):
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
