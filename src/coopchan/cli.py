"""Command-line front end.

Exit codes: 0 success, 2 invalid configuration or unreadable input, 3 I/O
failure, 4 stage failure (artifacts produced before the failure are kept).
Every command writes a snapshot of the options the user set (run_config.json)
into its output directory before it does any work; a rerun given it as
--config, with the same arguments, is byte identical.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

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
# the sources of the option values a run_config.json snapshot records
_USER_SET = (ParameterSource.COMMANDLINE, ParameterSource.DEFAULT_MAP)


def _load_config(ctx, param, config_path: str | None) -> None:
    """The eager --config option: the file's values become the command's
    default_map, so click parses each as it parses the same flag.  JSON null
    means unset; a key that names no option is invalid configuration, apart
    from the "command" a run_config.json snapshot carries."""
    if not config_path:
        return
    try:
        cfg = cio.load_json(config_path)
    except OSError as err:
        raise click.UsageError(f"cannot read config file: {err}") from err
    except ValueError as err:
        raise click.UsageError(f"config file is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise click.UsageError("config file must hold a JSON object")
    options = {p.name for p in ctx.command.params if isinstance(p, click.Option) and p.expose_value}
    unknown = sorted(set(cfg) - options - {"command"})
    if unknown:
        raise click.UsageError(f"config file names no option of {ctx.info_name}: {', '.join(unknown)}")
    ctx.default_map = {key: str(value) for key, value in cfg.items()
                       if key != "command" and value is not None}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_input(reader, path, *args):
    """A command's --input file: a missing file exits 3, a malformed one 2.
    A sidecar of the wrong JSON shape, such as a list or a null where an
    object is read, fails with TypeError, and runs that claim more samples
    than memory holds with MemoryError."""
    try:
        return reader(path, *args)
    except FileNotFoundError as err:
        _fail(3, str(err))
    except (ValueError, KeyError, TypeError, MemoryError) as err:
        _fail(2, f"cannot read {path}: {err}")


def _parse_theta(theta_str: str | None, channels: int | None) -> ParamVector:
    if theta_str is None:
        raise click.UsageError("simulate needs --theta (2L comma-separated stay probabilities)")
    try:
        flat = np.array([float(v) for v in theta_str.replace(" ", "").split(",")])
    except ValueError as err:
        raise click.UsageError(f"cannot parse --theta: {err}") from err
    if channels is not None and len(flat) != 2 * channels:
        raise click.UsageError(f"--theta has {len(flat)} entries, expected {2 * channels}")
    try:
        return ParamVector.from_flat(flat)
    except ValueError as err:
        raise click.UsageError(str(err)) from err


def _built(flags: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a constructor fed the values of ``flags``:
    the ValueError of a value it rejects is invalid configuration."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise click.UsageError(f"invalid {flags}: {err}") from err


class _FloatRange(click.FloatRange):
    """click.FloatRange that rejects NaN too, which no bound catches: NaN fails every comparison."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if np.isnan(rv):
            self.fail(f"{rv} is not in the range {self._describe_range()}.", param, ctx)
        return rv


_POSITIVE = click.IntRange(min=1)
_NONNEGATIVE = click.IntRange(min=0)
_FINITE_POSITIVE = _FloatRange(0.0, np.inf, min_open=True, max_open=True)

# options that more than one command takes
_alpha_option = click.option("--alpha", type=_FloatRange(0.0, 1.0, min_open=True, max_open=True),
                             default=0.1, help="Over-segmentation level.")
_rate_option = click.option("--rate", type=float, default=None,
                            help="Sampling rate when no sidecar metadata exists.")
_plots_option = click.option("--plots", "want_plots", is_flag=True, help="Also draw SVG figures.")
_L_option = click.option("--L", "channels", type=_POSITIVE, default=None,
                         help="Skip channel-count selection.")
_max_L_option = click.option("--max-L", "max_l", type=_POSITIVE, default=20,
                             help="Cap for selected L.")
_tolerance_option = click.option("--tolerance", type=_FloatRange(0.0, min_open=True), default=1e-3,
                                 help="Verdict ratio tolerance.")


@click.group(context_settings={"show_default": True})
def main():
    """Analysis of cooperative gating in ion-channel ensembles from
    sum-conductance recordings."""


def _command(fn):
    """Register ``fn(*arguments, resolved, out)`` as a subcommand with
    --config and --out.  Flags override the config's values; the output
    directory and its run_config.json snapshot of the options the user set
    are written first, under the command's name followed by its arguments.
    Failures exit 3 for I/O and 4 for a stage's ValueError; click.UsageError
    is invalid configuration, 2."""
    name = fn.__name__.replace("_", "-")
    arguments = [p.name for p in getattr(fn, "__click_params__", [])
                 if isinstance(p, click.Argument)]

    @main.command(name)
    @click.option("--config", type=click.Path(), is_eager=True, expose_value=False,
                  callback=_load_config, help="JSON config; explicit flags override it.")
    @click.option("--out", help="Output directory [default: $COOPCHAN_OUT_DIR or ./coopchan-out].")
    @functools.wraps(fn)
    def run(**resolved):
        args = [resolved.pop(a) for a in arguments]
        source = click.get_current_context().get_parameter_source
        try:
            out = Path(resolved["out"] or os.environ.get(ENV_OUT_DIR, "coopchan-out"))
            out.mkdir(parents=True, exist_ok=True)
            user_set = {key: value for key, value in resolved.items() if source(key) in _USER_SET}
            snapshot = {"command": ":".join([name, *args]), **user_set, "out": str(out)}
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
@click.option("--n", type=_POSITIVE, default=1200, help="Number of samples.")
@click.option("--rate", type=_FINITE_POSITIVE, default=10_000.0, help="Sampling rate in Hz.")
@click.option("--offset", type=_FloatRange(-np.inf, np.inf, min_open=True, max_open=True),
              default=0.0, help="Baseline conductance.")
@click.option("--spacing", type=_FINITE_POSITIVE, default=1.0, help="Conductance per open channel.")
@click.option("--kernel", "kernel_kind", type=click.Choice(["identity", "bspline2", "bessel"]),
              default="bessel", help="Acquisition low-pass kernel.")
@click.option("--bessel-order", type=_POSITIVE, default=4)
@click.option("--bessel-cutoff", type=float, default=None, help="Hz (default 0.1 * rate).")
@click.option("--noise", "noise_kind", type=click.Choice(["gaussian", "cauchy", "mixture", "none"]),
              default="gaussian", help="Noise model.")
@click.option("--sigma", type=float, default=0.1, help="Gaussian std.")
@click.option("--cauchy-scale", type=float, default=0.05, help="Cauchy scale.")
@click.option("--mixture-weight", type=float, default=0.85, help="Gaussian weight.")
@click.option("--raw-noise", is_flag=True, help="Skip filtering the noise stream.")
@click.option("--seed", type=_NONNEGATIVE, default=0, help="RNG seed.")
def simulate(resolved, out):
    """Simulate a recording and write recording.csv plus metadata."""
    theta = _parse_theta(resolved["theta"], resolved["channels"])
    kernel = _built("--bessel-order/--bessel-cutoff", make_kernel, resolved["kernel_kind"],
                    resolved["rate"], order=resolved["bessel_order"],
                    cutoff=resolved["bessel_cutoff"])
    if resolved["noise_kind"] == "none":
        noise = None
    else:
        noise = _built(
            "--sigma/--cauchy-scale/--mixture-weight",
            NoiseSpec,
            kind=resolved["noise_kind"],
            sigma=resolved["sigma"],
            scale=resolved["cauchy_scale"],
            weight_gaussian=resolved["mixture_weight"],
            filtered=not resolved["raw_noise"],
        )
    rec = synthesize_recording(theta, resolved["n"], resolved["rate"], offset=resolved["offset"],
                               spacing=resolved["spacing"], kernel=kernel, noise=noise,
                               seed=resolved["seed"])
    cio.write_recording(rec, out / "recording.csv")
    click.echo(f"wrote {out / 'recording.csv'} ({resolved['n']} samples)")


def _plot_idealisation(path, rec, ideal, title: str) -> None:
    plots.svg_lines(path, rec.times(), [rec.samples, ideal.fit.per_sample(rec.sample_rate)],
                    title=title)


@_command
@click.option("--input", "input_path", required=True, type=click.Path())
@_alpha_option
@_rate_option
@_plots_option
def idealise(resolved, out):
    """Fit a minimum-switch step function to a recording."""
    rec = _read_input(cio.read_recording, resolved["input_path"], resolved["rate"])
    ideal = muscle_fit(rec, alpha=resolved["alpha"])
    cio.write_idealisation(ideal, out / "idealisation.csv")
    if resolved["want_plots"]:
        _plot_idealisation(out / "idealisation.svg", rec, ideal,
                           f"idealisation (alpha={resolved['alpha']}, switches={ideal.n_switches})")
    click.echo(f"switches: {ideal.n_switches} feasible: {ideal.feasible}")


@_command
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="idealisation.csv from the idealise command.")
@_L_option
@_max_L_option
def discretise(resolved, out):
    """Map idealised levels to open-channel counts."""
    ideal = _read_input(cio.read_idealisation, resolved["input_path"])
    trace = discretise_idealisation(ideal, resolved["channels"], max_L=resolved["max_l"])
    cio.write_discrete(trace, ideal.sample_rate, out / "discrete.csv")
    ladder = trace.ladder
    click.echo(f"L: {ladder.L} offset: {ladder.offset:.6g} spacing: {ladder.spacing:.6g}")


@_command
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="discrete.csv from the discretise command.")
@_tolerance_option
def infer(resolved, out):
    """Fit the coupled-chain parameters and classify cooperativity."""
    trace, _ = _read_input(cio.read_discrete, resolved["input_path"])
    fit = mde_fit(empirical_transition_matrix(trace), trace.ladder.L)
    report = cooperativity_report(fit.theta_hat, tol=resolved["tolerance"])
    cio.dump_json(cio.report_to_dict(report, fit.diagnostics, fit.objective),
                  out / "report.json")
    click.echo(f"verdict: {report.verdict.value} objective: {fit.objective:.3e}")


def _pipeline_once(rec, resolved, out: Path, L_override, suffix=""):
    alpha = resolved["alpha"]

    def persist_stage(name, value):
        # write each stage's artifact as soon as it exists, so a later
        # stage failure leaves the completed work behind
        if name == "idealise":
            cio.write_idealisation(value, out / f"idealisation{suffix}.csv")
            counts, edges = level_histogram(value, rec.sample_rate)
            cio.write_histogram(edges[:-1], edges[1:], counts,
                                out / f"levels_histogram{suffix}.csv")
            if resolved["want_plots"]:
                _plot_idealisation(out / f"trace{suffix}.svg", rec, value,
                                   "recording and idealisation")
                plots.svg_hist(out / f"levels{suffix}.svg", edges, counts,
                               title="idealised conductance levels")
        elif name == "discretise":
            cio.write_discrete(value, rec.sample_rate, out / f"discrete{suffix}.csv")

    result = run_pipeline(
        rec,
        alpha=alpha,
        L=L_override,
        max_L=resolved["max_l"],
        tolerance=resolved["tolerance"],
        stage_hook=persist_stage,
    )
    cio.dump_json(
        cio.report_to_dict(result.report, result.fit.diagnostics, result.fit.objective,
                           metrics={**result.metrics, "selected_L": result.selected_L,
                                    "alpha": alpha, "feasible": result.idealisation.feasible}),
        out / f"report{suffix}.json")
    return result


@_command
@click.option("--input", "input_path", required=True, type=click.Path())
@_alpha_option
@_L_option
@click.option("--L-sweep", "l_sweep", default=None, metavar="A:B",
              help="Run once per L in the range, e.g. 2:6.")
@_max_L_option
@_tolerance_option
@_rate_option
@_plots_option
def pipeline(resolved, out):
    """Full analysis: idealise, discretise, infer, report."""
    L = resolved["channels"]
    sweep = resolved["l_sweep"]
    if sweep and L is not None:
        raise click.UsageError("--L and --L-sweep conflict: give one channel count or a range")
    if sweep:
        try:
            lo, hi = (int(v) for v in sweep.split(":"))
        except ValueError as err:
            raise click.UsageError(f"cannot parse --L-sweep {sweep!r}") from err
        if hi < lo:
            raise click.UsageError(f"--L-sweep {sweep!r} is an empty range")
        if lo < 1:
            raise click.UsageError(f"--L-sweep {sweep!r} starts below 1")
    rec = _read_input(cio.read_recording, resolved["input_path"], resolved["rate"])
    if sweep:
        for L in range(lo, hi + 1):
            result = _pipeline_once(rec, resolved, out, L, suffix=f"_L{L}")
            click.echo(f"L={L}: verdict {result.report.verdict.value}")
    else:
        result = _pipeline_once(rec, resolved, out, L)
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
@click.option("--state", type=_NONNEGATIVE, default=None, help="Single state (default: all visited).")
@_plots_option
def dwell(resolved, out):
    """Per-state dwell-time histograms with exponential fits."""
    state = resolved["state"]
    trace, rate = _read_input(cio.read_discrete, resolved["input_path"])
    states = ([state] if state is not None
              else sorted(np.unique(trace.values).tolist()))
    summary = {}
    for s in states:
        try:
            fit = dwell_times(trace, s, rate)
        except NoVisits:
            summary[str(s)] = {"rate": None, "n_dwells": 0, "note": "no interior dwells"}
            continue
        cio.write_histogram(fit.hist_edges[:-1], fit.hist_edges[1:], fit.hist_counts,
                            out / f"dwell_state{s}.csv")
        summary[str(s)] = {"rate": fit.rate, "n_dwells": len(fit.samples),
                           "mean_dwell_s": float(fit.samples.mean())}
        if resolved["want_plots"]:
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
@click.option("--reps", type=_POSITIVE, default=None,
              help="Repetitions per cell (study-specific default).")
@click.option("--seed", type=_NONNEGATIVE, default=0, help="Base seed.")
@click.option("--threads", type=_POSITIVE, default=1, help="Worker processes.")
def reproduce(study, resolved, out):
    """Seeded Monte-Carlo studies; writes per-repetition CSV and a summary."""
    table, default_reps = STUDY_TABLES[study]
    lines, summary = table(study, resolved["reps"] or default_reps, base_seed=resolved["seed"],
                           threads=resolved["threads"])
    (out / f"{study}.csv").write_text("\n".join(lines) + "\n")
    cio.dump_json(summary, out / f"{study}.json")
    click.echo(f"study {study} complete; summary in {out / (study + '.json')}")


if __name__ == "__main__":
    main()
