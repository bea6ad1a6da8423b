"""File formats: CSV artifacts with JSON sidecars.

All writers format floats via repr (shortest round-trip) except sample times,
which use nine decimal digits; byte-identical reruns only need identical
inputs and seeds.  The rows of a discrete trace are built as one byte array
from exactly rounded nanosecond counts; they hold the bytes that %.9f and %d
give.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import DiscreteTrace, LevelLadder, StepFunction, sample_times
from .idealise import Idealisation
from .model import CooperativityReport, ParamVector
from .synth import Kernel, NoiseSpec, Recording, RecordingTruth


def _rows(row: str, *columns: np.ndarray) -> str:
    """One row per index of the equal-length columns, all formatted by a
    single % operation over a flat tuple of cells.  %.9f, %r and %d give
    the bytes of str.format's {:.9f}, {!r} and {} on floats and ints."""
    width, n = len(columns), len(columns[0])
    cells = [None] * (width * n)
    for k, column in enumerate(columns):
        cells[k::width] = column.tolist()
    return row * n % tuple(cells)


# "000" .. "999", each followed by a spare byte
_DIGIT_BYTES = np.zeros((1000, 4), dtype=np.uint8)
_DIGIT_BYTES[:, :3] = ord("0") + np.arange(1000)[:, None] // [100, 10, 1] % 10
# the last k digits of each value as one word: "7", "07", and "007" with the
# spare byte, which the column written after it overwrites
_DIGIT_WORDS = {1: _DIGIT_BYTES[:, 2].copy(),
                2: _DIGIT_BYTES[:, 1:3].copy().view(np.uint16)[:, 0],
                3: _DIGIT_BYTES.view(np.uint32)[:, 0]}


def _nanoseconds(times: np.ndarray) -> np.ndarray:
    """round-half-even(t * 1e9) of each time t, exactly, for t * 1e9 < 2**52:
    the nanosecond count whose digits %.9f prints.  The product p = t * 1e9
    rounds, so its exact error e comes from Dekker's product with t split by
    Veltkamp (1e9 has 21 significant bits and needs no split).  Below 2**52
    each integer is a multiple of ulp(p), |e| <= ulp(p)/2, and e can decide
    only a p that lies exactly halfway; e == 0 there is a true tie, which
    rint has broken to even as %.9f does."""
    p = times * 1e9
    scaled = times * 134217729.0  # 2**27 + 1
    hi = scaled - (scaled - times)
    err = (hi * 1e9 - p) + (times - hi) * 1e9
    n = np.rint(p)
    half = p - n
    n += (half == 0.5) & (err > 0)
    n -= (half == -0.5) & (err < 0)
    return n.astype(np.int64)


def _put_digits(rows: np.ndarray, start: int, width: int, x: np.ndarray) -> None:
    """Write the nonnegative ints x as ``width`` zero-padded decimal digits
    into columns start .. start + width - 1 of the byte rows, three at a
    time.  A group of three is stored as a 4-byte word, so the column after
    the digits must be written afterwards."""
    groups = []
    for _ in range(0, width, 3):
        x, group = np.divmod(x, 1000)
        groups.append(group)
    col, end = start, start + width
    for group in reversed(groups):
        k = (end - col - 1) % 3 + 1
        words = _DIGIT_WORDS[k]
        rows[:, col:col + words.itemsize].view(words.dtype)[:, 0] = words[group]
        col += k


def _discrete_rows(times: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The bytes of _rows("%.9f,%d\n", times, counts) as one uint8 array, for
    increasing nonnegative times below 2**52 ns and nonnegative int64 counts.
    Each row is laid out with the seconds and the count right-aligned in
    their widest widths; one mask drops the pad bytes before them."""
    # below 2**52 ns both parts fit int32, whose division is the faster
    seconds, fraction = np.divmod(_nanoseconds(times), 10 ** 9)
    seconds, fraction = seconds.astype(np.int32), fraction.astype(np.int32)
    ws, wc = len(str(seconds[-1])), len(str(counts.max()))
    rows = np.empty((len(times), ws + wc + 12), dtype=np.uint8)
    _put_digits(rows, 0, ws, seconds)
    _put_digits(rows, ws + 1, 9, fraction)
    _put_digits(rows, ws + 11, wc, counts)
    rows[:, ws] = ord(".")
    rows[:, ws + 10] = ord(",")
    rows[:, -1] = ord("\n")
    if ws == wc == 1:
        return rows.reshape(-1)
    # a digit column of place 10**k > 1 is a pad where the number is below 10**k
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, :ws - 1] = seconds[:, None] >= 10 ** np.arange(ws - 1, 0, -1)
    keep[:, ws + 11:-2] = counts[:, None] >= 10 ** np.arange(wc - 1, 0, -1)
    return rows[keep]


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def meta_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def theta_to_dict(theta: ParamVector) -> dict:
    return {"L": theta.L, "lam": [float(v) for v in theta.lam],
            "eta": [float(v) for v in theta.eta]}


def theta_from_dict(d) -> ParamVector:
    return ParamVector(d["L"], np.asarray(d["lam"]), np.asarray(d["eta"]))


def kernel_to_dict(kernel: Kernel) -> dict:
    out = {"kind": kernel.kind, "taps": [float(t) for t in kernel.taps],
           "sample_rate": float(kernel.sample_rate)}
    if kernel.order is not None:
        out["order"] = int(kernel.order)
    if kernel.cutoff is not None:
        out["cutoff"] = float(kernel.cutoff)
    return out


def kernel_from_dict(d) -> Kernel:
    return Kernel(d["kind"], np.asarray(d["taps"]), d["sample_rate"],
                  order=d.get("order"), cutoff=d.get("cutoff"))


def noise_to_dict(spec: NoiseSpec | None) -> dict | None:
    if spec is None:
        return None
    return {"kind": spec.kind, "sigma": spec.sigma, "scale": spec.scale,
            "weight_gaussian": spec.weight_gaussian, "filtered": spec.filtered}


def noise_from_dict(d) -> NoiseSpec | None:
    if d is None:
        return None
    return NoiseSpec(**d)


def write_recording(recording: Recording, path) -> None:
    """CSV with a `time,current` header plus a .meta.json sidecar holding the
    sampling rate, kernel, noise spec and simulation truth.  The truth is
    stored per switch (its step function and ladder), not per sample."""
    path = Path(path)
    path.write_text("time,current\n" + _rows("%.9f,%r\n", recording.times(), recording.samples))
    meta = {
        "sample_rate": float(recording.sample_rate),
        "kernel": kernel_to_dict(recording.kernel),
        "n_samples": len(recording),
    }
    if recording.truth is not None:
        truth = recording.truth
        meta["truth"] = {
            "theta": theta_to_dict(truth.theta),
            "step_breaks": [float(b) for b in truth.step.breaks],
            "step_levels": [float(v) for v in truth.step.levels],
            "ladder": {"L": truth.discrete.ladder.L,
                       "offset": truth.discrete.ladder.offset,
                       "spacing": truth.discrete.ladder.spacing},
            "noise": noise_to_dict(truth.noise),
            "seed": truth.seed if isinstance(truth.seed, int) else str(truth.seed),
        }
    dump_json(meta, meta_path(path))


def _first_sample_line(path: Path) -> int:
    """Index of the first sample row of a recording, idealisation or
    discrete-trace CSV.  Leading blank lines are skipped, and so is a header:
    a first non-blank line that does not start like a number.  Raises
    ValueError when no sample row follows."""
    after_header = False
    with path.open() as fh:
        for i, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            if after_header or text[0].isdigit() or text[0] in "-+.":
                return i
            after_header = True
    raise ValueError(f"{path} holds no samples")


def _sidecar_rate(meta) -> float:
    """A sidecar's sample_rate, which must be a finite positive number."""
    rate = meta["sample_rate"]
    if not isinstance(rate, (int, float)) or not 0 < rate < np.inf:
        raise ValueError(f"sidecar sample_rate {rate!r} is not finite and positive")
    return float(rate)


def read_recording(path, sample_rate: float | None = None) -> Recording:
    """Read a CSV of time and current columns (with or without a header;
    further columns are ignored); the sidecar .meta.json restores the kernel
    and truth when present, otherwise the sampling rate must be supplied or
    is inferred from the time column, and an identity kernel is assumed.
    A sidecar sample_rate that is not its kernel's finite positive rate, a
    given sample_rate that is not the sidecar's, or truth whose theta is
    invalid or whose n_samples or step_breaks do not span the CSV's
    samples, raises."""
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", usecols=(0, 1), ndmin=2,
                      skiprows=_first_sample_line(path))
    samples = data[:, 1]
    meta_file = meta_path(path)
    truth = None
    if meta_file.exists():
        meta = load_json(meta_file)
        kernel = kernel_from_dict(meta["kernel"])
        rate = _sidecar_rate(meta)
        if sample_rate is not None and sample_rate != rate:
            raise ValueError(f"sample_rate {sample_rate!r} was given, but the sidecar's "
                             f"sample_rate is {rate!r}")
        if rate != kernel.sample_rate:
            raise ValueError(f"sidecar sample_rate {rate!r} is not its kernel's "
                             f"sample_rate {kernel.sample_rate!r}")
        if "truth" in meta:
            if len(samples) != meta["n_samples"]:
                raise ValueError(f"{path} holds {len(samples)} samples but its sidecar's "
                                 f"truth describes {meta['n_samples']}")
            t = meta["truth"]
            ladder = LevelLadder(**t["ladder"])
            step = StepFunction(np.asarray(t["step_breaks"]), np.asarray(t["step_levels"]))
            per_sample = step.per_sample(rate)
            if len(per_sample) != len(samples):
                raise ValueError(f"{path} holds {len(samples)} samples but its sidecar's "
                                 f"step_breaks span {len(per_sample)}")
            rungs = np.rint((per_sample - ladder.offset) / ladder.spacing)
            truth = RecordingTruth(
                theta=theta_from_dict(t["theta"]),
                step=step,
                discrete=DiscreteTrace(values=rungs.astype(np.int64), ladder=ladder),
                noise=noise_from_dict(t.get("noise")),
                seed=t.get("seed"),
            )
    else:
        if sample_rate is None:
            # infer the rate from the time column spacing
            dt = np.diff(data[:, 0])
            if len(dt) == 0 or dt.min() <= 0:
                raise ValueError("cannot infer sample rate; pass it explicitly")
            sample_rate = 1.0 / float(np.median(dt))
        rate = float(sample_rate)
        kernel = Kernel("identity", np.array([1.0]), rate)
    return Recording(samples=samples, sample_rate=rate, kernel=kernel, truth=truth)


def write_idealisation(ideal: Idealisation, path) -> None:
    path = Path(path)
    breaks = ideal.fit.breaks
    path.write_text("segment_start_time,segment_end_time,level\n"
                    + _rows("%.9f,%.9f,%r\n", breaks[:-1], breaks[1:], ideal.fit.levels))
    dump_json({
        "alpha": ideal.alpha,
        "n_switches": ideal.n_switches,
        "feasible": ideal.feasible,
        "sample_rate": ideal.sample_rate,
    }, meta_path(path))


def read_idealisation(path) -> Idealisation:
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", usecols=(0, 1, 2), ndmin=2,
                      skiprows=_first_sample_line(path))
    meta = load_json(meta_path(path))
    fit = StepFunction(np.append(data[:, 0], data[-1, 1]), data[:, 2])
    return Idealisation(fit=fit, alpha=meta["alpha"], n_switches=meta["n_switches"],
                        feasible=meta["feasible"], sample_rate=_sidecar_rate(meta))


def write_discrete(trace: DiscreteTrace, sample_rate: float, path) -> None:
    """CSV with a `time,open_channels` header, times at nine decimals, plus a
    .meta.json sidecar with the rate and ladder.  A rate that is not finite
    and positive raises before anything is written."""
    if not 0 < sample_rate < np.inf:
        raise ValueError("sample_rate must be finite and positive")
    path = Path(path)
    times = sample_times(len(trace), sample_rate)
    # the byte rows round exactly below 2**52 ns; later times take _rows
    if float(times[-1]) * 1e9 < 2.0 ** 52:
        with path.open("wb") as fh:
            fh.write(b"time,open_channels\n")
            fh.write(_discrete_rows(times, trace.values.astype(np.int64)))
    else:
        path.write_text("time,open_channels\n" + _rows("%.9f,%d\n", times, trace.values))
    dump_json({
        "sample_rate": float(sample_rate),
        "ladder": {"L": trace.ladder.L, "offset": trace.ladder.offset,
                   "spacing": trace.ladder.spacing, "sse": trace.ladder.sse},
    }, meta_path(path))


def read_discrete(path) -> tuple[DiscreteTrace, float]:
    path = Path(path)
    values = np.loadtxt(path, delimiter=",", usecols=1, dtype=np.int64, ndmin=1,
                        skiprows=_first_sample_line(path))
    meta = load_json(meta_path(path))
    ladder = LevelLadder(L=meta["ladder"]["L"], offset=meta["ladder"]["offset"],
                         spacing=meta["ladder"]["spacing"], sse=meta["ladder"].get("sse", 0.0))
    return DiscreteTrace(values=values, ladder=ladder), _sidecar_rate(meta)


def write_histogram(bin_left, bin_right, count, path) -> None:
    columns = (np.asarray(c, dtype=float) for c in (bin_left, bin_right, count))
    Path(path).write_text("bin_left,bin_right,count\n" + _rows("%r,%r,%r\n", *columns))


def report_to_dict(report: CooperativityReport, fit_diagnostics: dict | None = None,
                   objective: float | None = None, metrics: dict | None = None) -> dict:
    out = {
        "theta_hat": theta_to_dict(report.theta_hat),
        "lambda_ratios": [float(v) for v in report.lambda_ratios],
        "eta_open_ratios": [float(v) for v in report.eta_open_ratios],
        "eta_close_ratios": [float(v) for v in report.eta_close_ratios],
        "verdict": report.verdict.value,
        "tolerance": report.tolerance,
    }
    if objective is not None:
        out["objective"] = float(objective)
    if fit_diagnostics is not None:
        out["diagnostics"] = fit_diagnostics
    if metrics is not None:
        out["metrics"] = metrics
    return out
