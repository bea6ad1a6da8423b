"""Command-line front end.

Exit codes: 0 success, 2 invalid configuration or unreadable input, 3 I/O
failure, 4 stage failure (artifacts produced before the failure are kept).
Every command writes a resolved-config snapshot (run_config.json) into its
output directory before it does any work, so reruns with the same snapshot
are byte identical.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import io as cio
from . import plots
from .diagnostics import NoVisits, dwell_times, markov_property_test
from .idealise import muscle_fit
from .infer import cooperativity_report, empirical_transition_matrix, mde_fit
from .model import ParamVector
from .pipeline import discretise_idealisation, level_histogram, run_pipeline
from .studies import STUDY_TABLES
from .synth import NoiseSpec, make_kernel, synthesize_recording

ENV_OUT_DIR = "COOPCHAN_OUT_DIR"


class InvalidConfig(click.UsageError):
    pass


def _load_config(config_path: str | None) -> dict:
    if not config_path:
        return {}
    try:
        cfg = cio.load_json(config_path)
    except FileNotFoundError as err:
        raise InvalidConfig(f"config file not found: {err}") from err
    except ValueError as err:
        raise InvalidConfig(f"config file is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise InvalidConfig("config file must hold a JSON object")
    return cfg


def _resolve(config: dict, flags: dict) -> dict:
    """Explicit flags override config-file values; None means unset."""
    resolved = dict(config)
    for key, value in flags.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_input(reader, path, *args):
    """A command's --input file: a missing file exits 3, a malformed one 2."""
    try:
        return reader(path, *args)
    except FileNotFoundError as err:
        _fail(3, str(err))
    except (ValueError, KeyError) as err:
        _fail(2, f"cannot read {path}: {err}")


def _parse_theta(theta_str: str | None, channels: int | None) -> ParamVector:
    if theta_str is None:
        raise InvalidConfig("simulate needs --theta (2L comma-separated stay probabilities)")
    try:
        flat = np.array([float(v) for v in theta_str.replace(" ", "").split(",") if v])
    except ValueError as err:
        raise InvalidConfig(f"cannot parse --theta: {err}") from err
    if channels is not None and len(flat) != 2 * channels:
        raise InvalidConfig(f"--theta has {len(flat)} entries, expected {2 * channels}")
    try:
        return ParamVector.from_flat(flat)
    except ValueError as err:
        raise InvalidConfig(str(err)) from err


def _int_at_least(resolved: dict, key: str, default: int, least: int) -> int:
    """Integer option ``key``; a value below ``least`` is invalid configuration."""
    value = int(resolved.get(key, default))
    if value < least:
        raise InvalidConfig(f"--{key} must be at least {least}, got {value}")
    return value


@click.group()
def main():
    """Analysis of cooperative gating in ion-channel ensembles from
    sum-conductance recordings."""


def _command(fn):
    """Register ``fn(*arguments, resolved, out)`` as a subcommand with
    --config and --out.  Flags override the config's values; the output
    directory and its run_config.json snapshot are written first, under the
    command's name followed by its arguments.  Failures exit 3 for I/O and
    4 for a stage's ValueError; InvalidConfig is click's usage error, 2."""
    name = fn.__name__.replace("_", "-")
    arguments = [p.name for p in getattr(fn, "__click_params__", [])
                 if isinstance(p, click.Argument)]

    @main.command(name)
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="JSON config; explicit flags override it.")
    @click.option("--out", default=None, help="Output directory.")
    @functools.wraps(fn)
    def run(config_path, **flags):
        args = [flags.pop(a) for a in arguments]
        resolved = _resolve(_load_config(config_path), flags)
        try:
            out = Path(resolved.get("out") or os.environ.get(ENV_OUT_DIR, "coopchan-out"))
            out.mkdir(parents=True, exist_ok=True)
            snapshot = {"command": ":".join([name, *args]), **resolved, "out": str(out)}
            cio.dump_json(snapshot, out / "run_config.json")
            fn(*args, resolved, out)
        except OSError as err:
            _fail(3, str(err))
        except ValueError as err:
            _fail(4, str(err))
    return run


@_command
@click.option("--theta", default=None, help="2L stay probabilities, comma separated.")
@click.option("--channels", type=int, default=None, help="Channel count L (checked against --theta).")
@click.option("--n", type=int, default=None, help="Number of samples (default 1200).")
@click.option("--rate", type=float, default=None, help="Sampling rate in Hz (default 10000).")
@click.option("--offset", type=float, default=None, help="Baseline conductance (default 0).")
@click.option("--spacing", type=float, default=None, help="Conductance per open channel (default 1).")
@click.option("--kernel", "kernel_kind", type=click.Choice(["identity", "bspline2", "bessel"]),
              default=None, help="Acquisition low-pass kernel (default bessel).")
@click.option("--bessel-order", type=int, default=None)
@click.option("--bessel-cutoff", type=float, default=None, help="Hz (default 0.1 * rate).")
@click.option("--noise", "noise_kind", type=click.Choice(["gaussian", "cauchy", "mixture", "none"]),
              default=None, help="Noise model (default gaussian).")
@click.option("--sigma", type=float, default=None, help="Gaussian std (default 0.1).")
@click.option("--cauchy-scale", type=float, default=None, help="Cauchy scale (default 0.05).")
@click.option("--mixture-weight", type=float, default=None, help="Gaussian weight (default 0.85).")
@click.option("--raw-noise", is_flag=True, default=None, help="Skip filtering the noise stream.")
@click.option("--seed", type=int, default=None, help="RNG seed (default 0).")
def simulate(resolved, out):
    """Simulate a recording and write recording.csv plus metadata."""
    theta = _parse_theta(resolved.get("theta"), resolved.get("channels"))
    n = int(resolved.get("n", 1200))
    rate = float(resolved.get("rate", 10_000.0))
    kernel = make_kernel(resolved.get("kernel_kind", "bessel"), rate,
                         order=int(resolved.get("bessel_order") or 4),
                         cutoff=resolved.get("bessel_cutoff"))
    noise_kind = resolved.get("noise_kind", "gaussian")
    if noise_kind == "none":
        noise = None
    else:
        noise = NoiseSpec(
            kind=noise_kind,
            sigma=float(resolved.get("sigma", 0.1)),
            scale=float(resolved.get("cauchy_scale", 0.05)),
            weight_gaussian=float(resolved.get("mixture_weight", 0.85)),
            filtered=not bool(resolved.get("raw_noise", False)),
        )
    rec = synthesize_recording(theta, n, rate,
                               offset=float(resolved.get("offset", 0.0)),
                               spacing=float(resolved.get("spacing", 1.0)),
                               kernel=kernel, noise=noise,
                               seed=_int_at_least(resolved, "seed", 0, 0))
    cio.write_recording(rec, out / "recording.csv")
    click.echo(f"wrote {out / 'recording.csv'} ({n} samples)")


def _plot_idealisation(path, rec, ideal, title: str) -> None:
    times = rec.times()
    plots.svg_lines(path, times, [rec.samples, ideal.fit.sample(times)], title=title)


@_command
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--alpha", type=float, default=None, help="Over-segmentation level (default 0.1).")
@click.option("--rate", type=float, default=None, help="Sampling rate when no sidecar metadata exists.")
@click.option("--plots", "want_plots", is_flag=True, default=None)
def idealise(resolved, out):
    """Fit a minimum-switch step function to a recording."""
    rec = _read_input(cio.read_recording, resolved["input_path"], resolved.get("rate"))
    alpha = float(resolved.get("alpha", 0.1))
    ideal = muscle_fit(rec, alpha=alpha)
    cio.write_idealisation(ideal, out / "idealisation.csv")
    if resolved.get("want_plots"):
        _plot_idealisation(out / "idealisation.svg", rec, ideal,
                           f"idealisation (alpha={alpha}, switches={ideal.n_switches})")
    click.echo(f"switches: {ideal.n_switches} feasible: {ideal.feasible}")


@_command
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="idealisation.csv from the idealise command.")
@click.option("--L", "channels", type=int, default=None, help="Skip channel-count selection.")
@click.option("--max-L", "max_l", type=int, default=None, help="Cap for selected L (default 20).")
@click.option("--gap-factor", type=float, default=None, help="Gap splitting factor (default 3).")
def discretise(resolved, out):
    """Map idealised levels to open-channel counts."""
    ideal = _read_input(cio.read_idealisation, resolved["input_path"])
    trace = discretise_idealisation(ideal, resolved.get("channels"),
                                    max_L=int(resolved.get("max_l", 20)),
                                    gap_factor=float(resolved.get("gap_factor", 3.0)))
    cio.write_discrete(trace, ideal.sample_rate, out / "discrete.csv")
    ladder = trace.ladder
    click.echo(f"L: {ladder.L} offset: {ladder.offset:.6g} spacing: {ladder.spacing:.6g}")


@_command
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="discrete.csv from the discretise command.")
@click.option("--tolerance", type=float, default=None, help="Verdict ratio tolerance (default 1e-3).")
@click.option("--branch", type=click.Choice(["auto", "plus", "minus"]), default=None)
def infer(resolved, out):
    """Fit the coupled-chain parameters and classify cooperativity."""
    trace, _ = _read_input(cio.read_discrete, resolved["input_path"])
    fit = mde_fit(empirical_transition_matrix(trace), trace.ladder.L,
                  branch=resolved.get("branch", "auto"))
    report = cooperativity_report(fit.theta_hat, tol=float(resolved.get("tolerance", 1e-3)))
    cio.dump_json(cio.report_to_dict(report, fit.diagnostics, fit.objective),
                  out / "report.json")
    click.echo(f"verdict: {report.verdict.value} objective: {fit.objective:.3e}")


def _pipeline_once(rec, resolved, out: Path, L_override, suffix=""):
    alpha = float(resolved.get("alpha", 0.1))

    def persist_stage(name, value):
        # write each stage's artifact as soon as it exists, so a later
        # stage failure leaves the completed work behind
        if name == "idealise":
            cio.write_idealisation(value, out / f"idealisation{suffix}.csv")
            counts, edges = level_histogram(value, rec.sample_rate)
            cio.write_histogram(edges[:-1], edges[1:], counts,
                                out / f"levels_histogram{suffix}.csv")
        elif name == "discretise":
            cio.write_discrete(value, rec.sample_rate, out / f"discrete{suffix}.csv")

    result = run_pipeline(
        rec,
        alpha=alpha,
        L=L_override,
        max_L=int(resolved.get("max_l", 20)),
        gap_factor=float(resolved.get("gap_factor", 3.0)),
        tolerance=float(resolved.get("tolerance", 1e-3)),
        stage_hook=persist_stage,
    )
    cio.dump_json(
        cio.report_to_dict(result.report, result.fit.diagnostics, result.fit.objective,
                           metrics={**result.metrics, "selected_L": result.selected_L,
                                    "alpha": alpha, "feasible": result.idealisation.feasible}),
        out / f"report{suffix}.json")
    if resolved.get("want_plots"):
        _plot_idealisation(out / f"trace{suffix}.svg", rec, result.idealisation,
                           "recording and idealisation")
        counts, edges = level_histogram(result.idealisation, rec.sample_rate)
        plots.svg_hist(out / f"levels{suffix}.svg", edges, counts,
                       title="idealised conductance levels")
    return result


@_command
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--alpha", type=float, default=None)
@click.option("--L", "channels", type=int, default=None, help="Skip channel-count selection.")
@click.option("--L-sweep", "l_sweep", default=None, metavar="A:B",
              help="Run once per L in the range, e.g. 2:6.")
@click.option("--max-L", "max_l", type=int, default=None)
@click.option("--gap-factor", type=float, default=None)
@click.option("--tolerance", type=float, default=None)
@click.option("--rate", type=float, default=None)
@click.option("--plots", "want_plots", is_flag=True, default=None)
def pipeline(resolved, out):
    """Full analysis: idealise, discretise, infer, report."""
    rec = _read_input(cio.read_recording, resolved["input_path"], resolved.get("rate"))
    sweep = resolved.get("l_sweep")
    if sweep:
        try:
            lo, hi = (int(v) for v in str(sweep).split(":"))
        except ValueError as err:
            raise InvalidConfig(f"cannot parse --L-sweep {sweep!r}") from err
        if hi < lo:
            raise InvalidConfig(f"--L-sweep {sweep!r} is an empty range")
        for L in range(lo, hi + 1):
            result = _pipeline_once(rec, resolved, out, L, suffix=f"_L{L}")
            click.echo(f"L={L}: verdict {result.report.verdict.value}")
    else:
        result = _pipeline_once(rec, resolved, out, resolved.get("channels"))
        click.echo(f"selected L: {result.selected_L} "
                   f"verdict: {result.report.verdict.value} "
                   f"switches: {result.idealisation.n_switches}")


@_command
@click.option("--input", "input_path", required=True, type=click.Path())
def markov_test(resolved, out):
    """Chi-square test of the Markov property on a discrete trace."""
    trace, _ = _read_input(cio.read_discrete, resolved["input_path"])
    res = markov_property_test(trace)
    cio.dump_json({
        "statistic": res.statistic,
        "dof": res.dof,
        "p_value": res.p_value,
        "contingency": {str(s): t.tolist() for s, t in res.contingency.items()},
    }, out / "markov_test.json")
    click.echo(f"p_value: {res.p_value:.6g} (statistic {res.statistic:.4g}, dof {res.dof})")


@_command
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--state", type=int, default=None, help="Single state (default: all visited).")
@click.option("--plots", "want_plots", is_flag=True, default=None)
def dwell(resolved, out):
    """Per-state dwell-time histograms with exponential fits."""
    trace, rate = _read_input(cio.read_discrete, resolved["input_path"])
    states = ([resolved["state"]] if resolved.get("state") is not None
              else sorted(np.unique(trace.values).tolist()))
    summary = {}
    for s in states:
        try:
            fit = dwell_times(trace, int(s), rate)
        except NoVisits:
            summary[str(s)] = {"rate": None, "n_dwells": 0, "note": "no interior dwells"}
            continue
        cio.write_histogram(fit.hist_edges[:-1], fit.hist_edges[1:], fit.hist_counts,
                            out / f"dwell_state{s}.csv")
        summary[str(s)] = {"rate": fit.rate, "n_dwells": len(fit.samples),
                           "mean_dwell_s": float(fit.samples.mean())}
        if resolved.get("want_plots"):
            centers = 0.5 * (fit.hist_edges[:-1] + fit.hist_edges[1:])
            width = fit.hist_edges[1] - fit.hist_edges[0]
            overlay_y = len(fit.samples) * width * fit.rate * np.exp(-fit.rate * centers)
            plots.svg_hist(out / f"dwell_state{s}.svg", fit.hist_edges, fit.hist_counts,
                           title=f"dwell times, state {s} (rate {fit.rate:.4g}/s)",
                           overlay=(centers, overlay_y))
    cio.dump_json(summary, out / "dwell.json")
    click.echo(f"states analysed: {', '.join(summary)}")


@_command
@click.argument("study", type=click.Choice(list(STUDY_TABLES)))
@click.option("--reps", type=int, default=None, help="Repetitions per cell (study-specific default).")
@click.option("--seed", type=int, default=None, help="Base seed (default 0).")
@click.option("--threads", type=int, default=None, help="Worker processes (default 1).")
def reproduce(study, resolved, out):
    """Seeded Monte-Carlo studies; writes per-repetition CSV and a summary."""
    table, default_reps = STUDY_TABLES[study]
    reps = _int_at_least(resolved, "reps", default_reps, 1)
    threads = _int_at_least(resolved, "threads", 1, 1)
    seed = _int_at_least(resolved, "seed", 0, 0)
    lines, summary = table(study, reps, base_seed=seed, threads=threads)
    (out / f"{study}.csv").write_text("\n".join(lines) + "\n")
    cio.dump_json(summary, out / f"{study}.json")
    click.echo(f"study {study} complete; summary in {out / (study + '.json')}")


if __name__ == "__main__":
    main()
