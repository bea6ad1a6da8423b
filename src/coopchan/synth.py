"""Measurement synthesis: step signal -> low-pass FIR -> additive noise.

A recording is modelled as y_k = (rho * f)(t_k) + eps_k on the grid
t_k = k / sample_rate, where rho is the causal FIR kernel of the acquisition
low-pass filter and the noise eps is (optionally) the same filter applied to
an i.i.d. median-zero stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DiscreteTrace, LevelLadder, StepFunction, sample_times
from .model import ParamVector, simulate_vnd, _seed_sequence

DEFAULT_SAMPLE_RATE = 10_000.0
DEFAULT_BESSEL_ORDER = 4
DEFAULT_BESSEL_CUTOFF_FRACTION = 0.1

KERNEL_KINDS = ("identity", "bspline2", "bessel", "custom")
NOISE_KINDS = ("gaussian", "cauchy", "mixture")


@dataclass(frozen=True)
class Kernel:
    """Causal FIR low-pass kernel: unit-sum nonnegative taps at the sample grid."""

    kind: str
    taps: np.ndarray
    sample_rate: float
    order: int | None = None
    cutoff: float | None = None

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        object.__setattr__(self, "taps", taps)
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and positive")
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError("taps must be a nonempty vector")
        if (taps < 0).any():
            raise ValueError("taps must be nonnegative")
        if abs(taps.sum() - 1.0) > 1e-12:
            raise ValueError(f"taps sum to {taps.sum()!r}, not 1")

    def decimation_stride(self) -> int:
        """Smallest lag at which the tap autocorrelation drops to 0.1;
        samples of filtered i.i.d. noise taken this far apart are
        effectively independent."""
        t = self.taps
        norm = float(t @ t)
        for j in range(1, len(t)):
            if float(t[:-j] @ t[j:]) / norm <= 0.1:
                return j
        return len(t)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise model; every kind has marginal median zero.

    ``mixture`` draws each sample from the Gaussian component with
    probability ``weight_gaussian`` and from the Cauchy component otherwise.
    When ``filtered`` is set the i.i.d. stream is convolved with the same
    kernel as the signal.
    """

    kind: str = "gaussian"
    sigma: float = 0.1
    scale: float = 0.05
    weight_gaussian: float = 0.85
    filtered: bool = True

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind in ("gaussian", "mixture") and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.kind in ("cauchy", "mixture") and not self.scale > 0:
            raise ValueError("scale must be positive")
        if not 0.0 <= self.weight_gaussian <= 1.0:
            raise ValueError("weight_gaussian must be in [0, 1]")


@dataclass(frozen=True)
class RecordingTruth:
    """Ground truth attached to simulated recordings."""

    theta: ParamVector
    step: StepFunction
    discrete: DiscreteTrace
    noise: NoiseSpec | None
    seed: object


@dataclass(frozen=True)
class Recording:
    """Uniformly sampled current trace with its acquisition kernel."""

    samples: np.ndarray
    sample_rate: float
    kernel: Kernel
    truth: RecordingTruth | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or len(samples) < 1:
            raise ValueError("recording needs at least one sample")
        if not np.isfinite(samples).all():
            raise ValueError("recording samples must be finite")
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and positive")
        if self.kernel.sample_rate != self.sample_rate:
            raise ValueError(f"kernel sample_rate {self.kernel.sample_rate!r} is not the "
                             f"recording's {self.sample_rate!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return sample_times(len(self.samples), self.sample_rate)


@lru_cache(maxsize=32)
def _bessel_taps(order: int, cutoff: float, sample_rate: float) -> np.ndarray:
    """Sampled impulse response of an analog Bessel low-pass, truncated at the
    first sign change of the tail (residual mass there is ~1e-3) and
    renormalized to unit sum.  Studies build one kernel per repetition, so
    the taps are cached and shared read-only."""
    if order < 1 or not 0 < cutoff < sample_rate / 2:
        raise ValueError("need order >= 1 and 0 < cutoff < sample_rate / 2")
    import scipy.signal  # here, not at module level: it is slow to import

    b, a = scipy.signal.bessel(order, 2 * np.pi * cutoff, btype="low", analog=True, norm="mag")
    # long enough grid: the response of a Bessel filter decays within a few
    # periods of the cutoff frequency
    n_grid = max(16, int(np.ceil(8 * sample_rate / cutoff)))
    t_grid = np.arange(n_grid) / sample_rate
    _, h = scipy.signal.impulse((b, a), T=t_grid)
    h = np.asarray(h, dtype=float)
    peak = int(np.argmax(h))
    negative = np.nonzero(h[peak:] <= 0.0)[0]
    end = peak + int(negative[0]) if len(negative) else len(h)
    total = h[:end].sum()
    mass = np.cumsum(h[:end]) / total
    enough = np.nonzero(mass >= 1.0 - 1e-6)[0]
    if len(enough):
        end = int(enough[0]) + 1
    taps = h[:end]
    lead = np.nonzero(taps > 0)[0]
    if len(lead) == 0:
        raise ValueError("Bessel impulse response degenerated to zero")
    taps = taps[lead[0]:]
    taps = taps / taps.sum()
    taps.flags.writeable = False
    return taps


def make_kernel(
    kind: str,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    *,
    order: int = DEFAULT_BESSEL_ORDER,
    cutoff: float | None = None,
    taps=None,
) -> Kernel:
    """Construct a named kernel at the given sampling rate.

    ``bspline2`` uses the integer-grid samples (1/8, 3/4, 1/8) of the
    quadratic B-spline, i.e. of the triple convolution of a one-sample box;
    ``bessel`` samples the analog impulse response and renormalizes; custom
    taps are normalized to unit sum.
    """
    if not 0 < sample_rate < np.inf:
        raise ValueError("sample_rate must be finite and positive")
    if kind == "identity":
        return Kernel("identity", np.array([1.0]), sample_rate)
    if kind == "bspline2":
        return Kernel("bspline2", np.array([1.0, 6.0, 1.0]) / 8.0, sample_rate)
    if kind == "bessel":
        cutoff = DEFAULT_BESSEL_CUTOFF_FRACTION * sample_rate if cutoff is None else float(cutoff)
        return Kernel("bessel", _bessel_taps(order, cutoff, sample_rate), sample_rate,
                      order=order, cutoff=cutoff)
    if kind == "custom":
        taps = np.asarray(taps, dtype=float)
        if taps.ndim != 1 or len(taps) == 0 or (taps < 0).any() or taps.sum() <= 0:
            raise ValueError("custom taps must be nonnegative with positive sum")
        return Kernel("custom", taps / taps.sum(), sample_rate)
    raise ValueError(f"unknown kernel kind {kind!r}")


def step_from_trace(trace, offset: float, spacing: float, sample_rate: float) -> StepFunction:
    """Map per-sample counts to the conductance step function
    f(t_k) = offset + spacing * S_k, merging equal consecutive samples."""
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    values = np.asarray(trace.values if isinstance(trace, DiscreteTrace) else trace)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("trace must hold at least one sample")
    starts = np.concatenate([[0], np.nonzero(values[1:] != values[:-1])[0] + 1])
    levels = offset + spacing * values[starts].astype(float)
    return StepFunction.on_grid(starts, levels, len(values), sample_rate)


def convolve_sample(f: StepFunction, kernel: Kernel, sample_rate: float, n: int) -> np.ndarray:
    """(rho * f) at t_k = k / sample_rate for k = 1..n, with the first level
    extended leftward so there is no start-up transient."""
    s = f.per_sample(sample_rate)
    if not 1 <= n <= len(s):
        raise ValueError(f"need 1 <= n <= {len(s)}, the samples up to t_max = {f.t_max}")
    s = s[:n]
    m = len(kernel.taps)
    if m == 1:
        return s * kernel.taps[0]
    ext = np.concatenate([np.full(m - 1, s[0]), s])
    return np.convolve(ext, kernel.taps, mode="valid")


def _noise_stream(spec: NoiseSpec, n_draw: int, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "gaussian":
        return rng.standard_normal(n_draw) * spec.sigma
    if spec.kind == "cauchy":
        return rng.standard_cauchy(n_draw) * spec.scale
    # mixture: draw all blocks unconditionally so the stream layout is fixed
    pick_gauss = rng.random(n_draw) < spec.weight_gaussian
    gauss = rng.standard_normal(n_draw) * spec.sigma
    cauchy = rng.standard_cauchy(n_draw) * spec.scale
    return np.where(pick_gauss, gauss, cauchy)


def sample_noise(spec: NoiseSpec, n: int, kernel: Kernel, seed) -> np.ndarray:
    """Draw n noise samples; filtered mode convolves an i.i.d. stream of
    length n + len(taps) - 1 with the kernel.  Every supported noise kind is
    symmetric about zero, so the filtered marginal keeps median zero for any
    kernel."""
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    if spec.filtered and len(kernel.taps) > 1:
        stream = _noise_stream(spec, n + len(kernel.taps) - 1, rng)
        return np.convolve(stream, kernel.taps, mode="valid")
    return _noise_stream(spec, n, rng)


def synthesize_recording(
    theta: ParamVector,
    n: int,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    *,
    offset: float = 0.0,
    spacing: float = 1.0,
    kernel: Kernel | str = "bessel",
    noise: NoiseSpec | None = NoiseSpec(),
    seed=0,
    init="all-closed",
) -> Recording:
    """Simulate a full recording: channel trace, filtered conductance, noise.

    The seed is split into independent Philox streams for the trace and the
    noise, so the same trace can be re-dressed with different noise kinds by
    fixing the seed and changing ``noise``.
    """
    if isinstance(kernel, str):
        kernel = make_kernel(kernel, sample_rate)
    ss = _seed_sequence(seed)
    trace_ss, noise_ss = ss.spawn(2)
    joint = simulate_vnd(theta, n, seed=trace_ss, init=init)
    ladder = LevelLadder(theta.L, offset, spacing)
    discrete = DiscreteTrace(values=joint.sums, ladder=ladder)
    step = step_from_trace(discrete, offset, spacing, sample_rate)
    clean = convolve_sample(step, kernel, sample_rate, n)
    if noise is not None:
        samples = clean + sample_noise(noise, n, kernel, noise_ss)
    else:
        samples = clean
    truth = RecordingTruth(theta=theta, step=step, discrete=discrete, noise=noise, seed=seed)
    return Recording(samples=samples, sample_rate=sample_rate, kernel=kernel, truth=truth)
