"""End-to-end analysis of one recording: idealise, discretise, infer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DiscreteTrace, LevelLadder
from .discretise import discretise_trace, equal_spacing_cluster, select_L
from .idealise import Idealisation, muscle_fit
from .infer import MdeResult, cooperativity_report, empirical_transition_matrix, mde_fit
from .model import CooperativityReport, TransitionMatrix
from .synth import Recording


@dataclass
class PipelineResult:
    idealisation: Idealisation
    ladder: LevelLadder
    discrete: DiscreteTrace
    q_hat: TransitionMatrix
    fit: MdeResult
    report: CooperativityReport
    selected_L: int
    metrics: dict = field(default_factory=dict)


def _truth_metrics(recording: Recording, ideal: Idealisation, trace: DiscreteTrace,
                   fit: MdeResult) -> dict:
    truth = recording.truth
    times = recording.times()
    level_err = ideal.fit.sample(times) - truth.step.sample(times)
    true_vals = truth.discrete.values
    est_vals = trace.values
    # the fitted ladder may be anchored above the true baseline when low
    # states never occur; compare on the best common alignment
    shift = int(np.round(np.median(true_vals - est_vals)))
    mismatch = float(np.mean(est_vals + shift != true_vals))
    metrics = {
        "idealisation_sse": float(np.mean(level_err ** 2)),
        "idealisation_switches": int(ideal.n_switches),
        "true_switches": int((np.diff(true_vals) != 0).sum()),
        "discrete_mismatch_rate": mismatch,
        "discrete_shift": shift,
    }
    if truth.theta.L == fit.theta_hat.L:
        metrics["theta_l2_error"] = float(
            np.linalg.norm(fit.theta_hat.flat - truth.theta.flat))
    return metrics


def fit_ladder(levels, weights, L: int | None = None, max_L: int = 20,
               gap_factor: float = 3.0) -> LevelLadder:
    """The ladder of L + 1 equally spaced rungs that the weighted levels
    group into, L selected from the level gaps unless given.  A single
    distinct level cannot anchor a spacing; it becomes rung 0 of a ladder
    spaced at the data scale."""
    if L is None:
        L = select_L(levels, weights, max_L=max_L, gap_factor=gap_factor)
    if len(np.unique(levels)) >= 2:
        return equal_spacing_cluster(levels, weights, L=int(L))
    scale = max(abs(float(levels[0])), 1.0)
    return LevelLadder(L=int(L), offset=float(levels[0]), spacing=scale)


def discretise_idealisation(ideal: Idealisation, L: int | None = None, max_L: int = 20,
                            gap_factor: float = 3.0) -> DiscreteTrace:
    """Open-channel counts of an idealisation: its duration-weighted levels
    fit the ladder, and each sample maps to its nearest rung."""
    ladder = fit_ladder(ideal.fit.levels, ideal.fit.durations(), L, max_L=max_L,
                        gap_factor=gap_factor)
    return discretise_trace(ideal, ladder, ideal.sample_rate)


def run_pipeline(
    recording: Recording,
    alpha: float = 0.1,
    L: int | None = None,
    max_L: int = 20,
    gap_factor: float = 3.0,
    tolerance: float = 1e-3,
    stage_hook=None,
) -> PipelineResult:
    """Idealise the recording, group levels into open-channel counts, and fit
    the coupled-chain parameters.  Passing ``L`` skips the automatic channel
    count selection.  Recordings carrying simulation truth get accuracy
    metrics attached.  ``stage_hook(name, value)``, when given, fires as each
    stage completes, so callers can persist partial results before a later
    stage fails."""
    hook = stage_hook or (lambda name, value: None)
    ideal = muscle_fit(recording, alpha=alpha)
    hook("idealise", ideal)
    trace = discretise_idealisation(ideal, L, max_L=max_L, gap_factor=gap_factor)
    hook("discretise", trace)
    selected_L = trace.ladder.L
    q_hat = empirical_transition_matrix(trace)
    fit = mde_fit(q_hat, selected_L)
    report = cooperativity_report(fit.theta_hat, tol=tolerance)
    metrics = {}
    if recording.truth is not None:
        metrics = _truth_metrics(recording, ideal, trace, fit)
    return PipelineResult(
        idealisation=ideal,
        ladder=trace.ladder,
        discrete=trace,
        q_hat=q_hat,
        fit=fit,
        report=report,
        selected_L=selected_L,
        metrics=metrics,
    )


def level_histogram(ideal: Idealisation, sample_rate: float, n_bins: int = 50):
    """Duration-weighted histogram of idealised levels (per-sample weights)."""
    levels = ideal.fit.levels
    durations = ideal.fit.durations()
    lo, hi = float(levels.min()), float(levels.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(levels, bins=n_bins, range=(lo, hi),
                                 weights=durations * sample_rate)
    return counts, edges
