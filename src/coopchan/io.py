"""File formats: CSV artifacts with JSON sidecars.

All writers format floats via repr (shortest round-trip) except times, which
use nine decimal digits; byte-identical reruns only need identical inputs and
seeds.  A discrete trace is written one row per run of equal counts, as the
integer sample numbers k = 1..n (t_k = k / sample_rate) of its first and last
sample and its count; per-sample traces, one time and count a row, are still
read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import DiscreteTrace, LevelLadder, StepFunction, run_starts
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


def _csv_start(path: Path) -> tuple[int, str]:
    """Index of the first sample row of a recording, idealisation or
    discrete-trace CSV, and its header ("" when it has none).  Leading blank
    lines are skipped, and so is a header: a first non-blank line that does
    not start like a number.  Raises ValueError when no sample row follows."""
    header = ""
    with path.open() as fh:
        for i, line in enumerate(fh):
            text = line.strip()
            if not text:
                continue
            if header or text[0].isdigit() or text[0] in "-+.":
                return i, header
            header = text
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
                      skiprows=_csv_start(path)[0])
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
                      skiprows=_csv_start(path)[0])
    meta = load_json(meta_path(path))
    fit = StepFunction(np.append(data[:, 0], data[-1, 1]), data[:, 2])
    return Idealisation(fit=fit, alpha=meta["alpha"], n_switches=meta["n_switches"],
                        feasible=meta["feasible"], sample_rate=_sidecar_rate(meta))


_RUN_HEADER = "first_sample,last_sample,open_channels"


def write_discrete(trace: DiscreteTrace, sample_rate: float, path) -> None:
    """CSV with a `first_sample,last_sample,open_channels` header and one row
    per maximal run of equal counts, its first and last sample numbered
    1..n, plus a .meta.json sidecar with the rate and ladder.  A rate that
    is not finite and positive raises before anything is written."""
    if not 0 < sample_rate < np.inf:
        raise ValueError("sample_rate must be finite and positive")
    path = Path(path)
    starts = run_starts(trace.values)
    lasts = np.append(starts[1:], len(trace))
    path.write_text(_RUN_HEADER + "\n"
                    + _rows("%d,%d,%d\n", starts + 1, lasts, trace.values[starts]))
    dump_json({
        "sample_rate": float(sample_rate),
        "ladder": {"L": trace.ladder.L, "offset": trace.ladder.offset,
                   "spacing": trace.ladder.spacing, "sse": trace.ladder.sse},
    }, meta_path(path))


def read_discrete(path) -> tuple[DiscreteTrace, float]:
    """A discrete trace and its rate.  A file with the run header holds runs,
    which must tile samples 1..n in order; any other file holds one
    `time,open_channels` row per sample, with or without a header."""
    path = Path(path)
    start, header = _csv_start(path)
    if header == _RUN_HEADER:
        first, last, counts = np.loadtxt(path, delimiter=",", usecols=(0, 1, 2), dtype=np.int64,
                                         ndmin=2, skiprows=start).T
        if first[0] != 1 or (first[1:] != last[:-1] + 1).any() or (last < first).any():
            raise ValueError(f"{path}: the runs do not tile samples 1..n in order")
        values = np.repeat(counts, last - first + 1)
    else:
        values = np.loadtxt(path, delimiter=",", usecols=1, dtype=np.int64, ndmin=1,
                            skiprows=start)
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
