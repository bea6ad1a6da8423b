"""The benchmark's workloads.

Each workload makes its inputs from the seed (``setup``), names the
operations of one pass (``batch``), runs one operation (``op``) and checks
its outputs (``check``).  An operation calls the program the way its
users do: ``run_pipeline``, and the study repetitions' own sequence of calls.
A traced run times the same calls through ``Tracer.instrument`` on
``TRACED_MODULES``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from coopchan import (
    NoiseSpec,
    ParamVector,
    dwell_times,
    empirical_transition_matrix,
    make_kernel,
    markov_property_test,
    mde_fit,
    run_pipeline,
    simulate_vnd,
    synthesize_recording,
)
from coopchan import pipeline as cpipeline
from coopchan.io import (
    dump_json,
    meta_path,
    read_recording,
    report_to_dict,
    write_discrete,
    write_histogram,
    write_idealisation,
    write_recording,
)
from coopchan.pipeline import PipelineResult, level_histogram
from coopchan.studies import (
    L2_SCENARIOS,
    NOISE_SPECS,
    SCENARIO_BESSEL_CUTOFF,
    SCENARIO_N,
    SCENARIO_RATE,
    rep_seed,
)

ALPHA = 0.1  # the CLI's and the studies' default
RATE = 10_000.0
# the modules whose calls into coopchan a traced run times: the workloads'
# own calls, and run_pipeline's calls into the stages
TRACED_MODULES = (sys.modules[__name__], cpipeline)


@dataclass
class Inputs:
    seed: int
    n: int
    work_dir: Path
    recordings: tuple[Path, ...] = ()


@dataclass
class Outcome:
    """What one operation produced, and the work it did."""

    L_hat: int
    values: np.ndarray
    q_hat: object
    fit: object
    theta_true: ParamVector | None = None
    recording: object = None
    ideal: object = None
    ladder: object = None
    extra: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def replay_key(self) -> tuple:
        """What a rerun of the operation must reproduce exactly."""
        ideal = (None if self.ideal is None
                 else (self.ideal.fit.breaks.tobytes(), self.ideal.fit.levels.tobytes()))
        return self.L_hat, ideal, self.fit.theta_hat.flat.tobytes()


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _fit_counts(counts: dict, q_hat, fit) -> None:
    _add(counts, "infer.mde_fit_calls", 1)
    _add(counts, "infer.rows_fitted", int(q_hat.row_mask().sum()))
    _add(counts, "infer.branch_solves", len(fit.diagnostics.get("branch_objectives", {})) or 1)


def _pipeline_outcome(result: PipelineResult, recording) -> Outcome:
    out = Outcome(L_hat=result.selected_L, values=result.discrete.values, q_hat=result.q_hat,
                  fit=result.fit, recording=recording, ideal=result.idealisation,
                  ladder=result.ladder,
                  theta_true=recording.truth.theta if recording.truth is not None else None)
    _add(out.counts, "idealise.samples", len(recording))
    _add(out.counts, "idealise.segments", len(result.idealisation.fit.levels))
    _fit_counts(out.counts, result.q_hat, result.fit)
    return out


class LongRecording:
    """Long acceptance-9 recordings, each analysed as ``coopchan pipeline
    --input`` does: CSV read, pipeline with the CLI's artefact-writing stage
    hook, report JSON.  A pass analyses every recording made at set-up."""

    name = "long-recording"
    n = 300_000
    recordings = 2
    theta = ParamVector.constant(3, 0.998, 0.998)

    def setup(self, seed: int, work_dir: Path, n: int | None = None) -> Inputs:
        n = n or self.n
        paths = []
        kernel = make_kernel("bessel", RATE, cutoff=2_500.0)
        for k in range(self.recordings):
            rec = synthesize_recording(self.theta, n, RATE, kernel=kernel,
                                       noise=NoiseSpec("gaussian", sigma=0.1),
                                       seed=rep_seed(seed, k))
            paths.append(work_dir / f"recording{k}.csv")
            write_recording(rec, paths[-1])
        (work_dir / "out").mkdir(exist_ok=True)
        return Inputs(seed=seed, n=n, work_dir=work_dir, recordings=tuple(paths))

    def batch(self) -> list:
        return list(range(self.recordings))

    def op(self, inp: Inputs, key) -> Outcome:
        csv = inp.recordings[key]
        out = inp.work_dir / "out"
        rec = read_recording(csv)

        def persist_stage(name, value):
            # the CLI's stage hook: each artefact is written once it exists
            if name == "idealise":
                write_idealisation(value, out / "idealisation.csv")
                counts, edges = level_histogram(value, rec.sample_rate)
                write_histogram(edges[:-1], edges[1:], counts, out / "levels_histogram.csv")
            elif name == "discretise":
                write_discrete(value, rec.sample_rate, out / "discrete.csv")

        result = run_pipeline(rec, alpha=ALPHA, stage_hook=persist_stage)
        level_histogram(result.idealisation, rec.sample_rate)
        dump_json(report_to_dict(result.report, result.fit.diagnostics, result.fit.objective,
                                 metrics={**result.metrics, "selected_L": result.selected_L,
                                          "alpha": ALPHA,
                                          "feasible": result.idealisation.feasible}),
                  out / "report.json")
        outcome = _pipeline_outcome(result, rec)
        _add(outcome.counts, "io.bytes_read", csv.stat().st_size + meta_path(csv).stat().st_size)
        # every operation writes the same file names, so the directory holds
        # this operation's artefacts
        _add(outcome.counts, "io.bytes_written", sum(p.stat().st_size for p in out.iterdir()))
        return outcome

    def check(self, inp: Inputs, key, out: Outcome) -> None:
        checks.check_idealisation(out.recording, out.ideal)
        truth = out.recording.truth.discrete
        checks.check_channel_count(out.ideal.fit.levels, out.ladder, truth.ladder)
        checks.check_ladder(out.ideal.fit.levels, out.ideal.fit.durations(), out.ladder,
                            (truth.ladder.offset, truth.ladder.spacing))
        checks.check_fit(out.values, out.L_hat, out.q_hat, out.fit, out.theta_true)


class ScenarioBatch:
    """Repetitions of the fig-errors studies: n = 1200, L = 2 given, every
    scenario under every noise kind; a pass is ``reps`` repetitions of each
    of the nine cells."""

    name = "scenario-batch"
    n = SCENARIO_N
    reps = 24

    def setup(self, seed: int, work_dir: Path, n: int | None = None) -> Inputs:
        return Inputs(seed=seed, n=n or self.n, work_dir=work_dir)

    def batch(self) -> list:
        return [(scenario, noise, rep) for rep in range(self.reps)
                for scenario in L2_SCENARIOS for noise in NOISE_SPECS]

    def op(self, inp: Inputs, key) -> Outcome:
        # the sequence of calls of the study's repetition (_classification_rep)
        scenario, noise, rep = key
        theta = ParamVector.from_flat(L2_SCENARIOS[scenario])
        kernel = make_kernel("bessel", SCENARIO_RATE, cutoff=SCENARIO_BESSEL_CUTOFF)
        rec = synthesize_recording(theta, inp.n, SCENARIO_RATE, kernel=kernel,
                                   noise=NoiseSpec(**NOISE_SPECS[noise]),
                                   seed=rep_seed(inp.seed, rep))
        result = run_pipeline(rec, alpha=ALPHA, L=2)
        outcome = _pipeline_outcome(result, rec)
        outcome.extra["result"] = result
        _add(outcome.counts, "synth.samples", inp.n)
        return outcome

    def check(self, inp: Inputs, key, out: Outcome) -> None:
        checks.check_idealisation(out.recording, out.ideal)
        checks.check_fit(out.values, out.L_hat, out.q_hat, out.fit, out.theta_true)


class LongChain:
    """Repetitions of the consistency study at n = 1e6 (L = 2, every stay
    probability 0.99), each followed by the Markov-property test and the
    dwell-time fits of every state; a pass is ``reps`` repetitions."""

    name = "long-chain-L2"
    n = 1_000_000
    reps = 2
    theta = ParamVector.constant(2, 0.99, 0.99)

    def setup(self, seed: int, work_dir: Path, n: int | None = None) -> Inputs:
        return Inputs(seed=seed, n=n or self.n, work_dir=work_dir)

    def batch(self) -> list:
        return list(range(self.reps))

    def op(self, inp: Inputs, key) -> Outcome:
        # the sequence of calls of the study's repetition (_consistency_rep)
        trace = simulate_vnd(self.theta, inp.n, seed=rep_seed(inp.seed, key))
        L = self.theta.L
        q_hat = empirical_transition_matrix(trace.sums, L=L)
        fit = mde_fit(q_hat, L)
        markov = markov_property_test(trace.sums)
        dwells = [dwell_times(trace.sums, state, RATE) for state in range(L + 1)]
        outcome = Outcome(L_hat=L, values=trace.sums, q_hat=q_hat, fit=fit,
                          theta_true=self.theta, extra={"markov": markov, "dwells": dwells})
        _add(outcome.counts, "model.channel_steps", inp.n * L)
        _fit_counts(outcome.counts, q_hat, fit)
        return outcome

    def check(self, inp: Inputs, key, out: Outcome) -> None:
        checks.check_fit(out.values, out.L_hat, out.q_hat, out.fit, out.theta_true)
        checks.check_sampling_error(out.q_hat, out.theta_true)
        checks.check_markov_test(out.values, out.extra["markov"])
        for state, fit in enumerate(out.extra["dwells"]):
            checks.check_dwell(out.values, state, RATE, fit)


WORKLOADS = {w.name: w for w in (LongRecording(), ScenarioBatch(), LongChain())}
