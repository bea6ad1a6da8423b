"""End-to-end analysis of one recording: idealise, discretise, infer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DiscreteTrace, LevelLadder, checked_levels
from .discretise import discretise_trace, equal_spacing_cluster
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
    rate = recording.sample_rate
    level_err = ideal.fit.per_sample(rate) - truth.step.per_sample(rate)
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


def fit_ladder(levels, weights, L: int | None = None, max_L: int = 20) -> LevelLadder:
    """The ladder of L + 1 equally spaced rungs that the weighted levels
    group into.  Unless L is given, the ladders of L = 1 .. max_L compete on
    their SSE in units of their squared spacing, the shorter winning ties.
    Once the best so far holds the levels within a tenth of its spacing
    (RMS), the first longer ladder that leaves an end rung empty ends the
    search: more rungs could only pad the ends or halve the spacing.  A
    single distinct level cannot anchor a spacing; it becomes rung 0 of a
    ladder spaced at the data scale.  Levels and weights are checked as
    ``checked_levels`` does, and max_L must be at least 1."""
    if max_L < 1:
        raise ValueError("max_L must be >= 1")
    levels, weights = checked_levels(levels, weights)
    if len(np.unique(levels)) == 1:
        scale = max(abs(float(levels[0])), 1.0)
        return LevelLadder(L=1 if L is None else int(L), offset=float(levels[0]), spacing=scale)
    if L is not None:
        return equal_spacing_cluster(levels, weights, L=int(L))
    best = equal_spacing_cluster(levels, weights, L=1)
    held = 0.01 * float(np.sum(weights))
    for n in range(2, max_L + 1):
        ladder = equal_spacing_cluster(levels, weights, L=n)
        rungs = ladder.nearest_rung(levels)
        if best.sse < held * best.spacing ** 2 and (rungs.min() > 0 or rungs.max() < n):
            break
        if ladder.sse / ladder.spacing ** 2 < best.sse / best.spacing ** 2:
            best = ladder
    return best


def discretise_idealisation(ideal: Idealisation, L: int | None = None,
                            max_L: int = 20) -> DiscreteTrace:
    """Open-channel counts of an idealisation: its duration-weighted levels
    fit the ladder, and each sample maps to its nearest rung."""
    ladder = fit_ladder(ideal.fit.levels, ideal.fit.durations(), L, max_L=max_L)
    return discretise_trace(ideal, ladder, ideal.sample_rate)


def run_pipeline(
    recording: Recording,
    alpha: float = 0.1,
    L: int | None = None,
    max_L: int = 20,
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
    trace = discretise_idealisation(ideal, L, max_L=max_L)
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
