"""Seeded Monte-Carlo studies: scenario classification, over-segmentation
rate, channel-count estimation at scale, and estimator consistency.

Every repetition derives its own generator from (base_seed, rep), so results
are independent of worker count and arrival order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .idealise import empirical_fdr, muscle_fit
from .infer import empirical_transition_matrix, mde_fit
from .model import ParamVector, classify_cooperativity, simulate_vnd
from .pipeline import fit_ladder, run_pipeline
from .synth import NoiseSpec, make_kernel, synthesize_recording

L2_SCENARIOS = {
    "zero": (0.99, 0.99, 0.99, 0.99),
    "positive": (0.99, 0.985, 0.985, 0.99),
    "negative": (0.985, 0.99, 0.99, 0.985),
}

NOISE_SPECS = {
    "gaussian": dict(kind="gaussian", sigma=0.1),
    "cauchy": dict(kind="cauchy", scale=0.05),
    "mixture": dict(kind="mixture", sigma=0.1, scale=0.05, weight_gaussian=0.85),
}

# desk-scale acquisition model for the n=1200 scenarios: a mild 4-pole
# filter keeps enough of the ~50-sample dwells resolvable by sign tests
SCENARIO_N = 1200
SCENARIO_RATE = 10_000.0
SCENARIO_BESSEL_CUTOFF = 2_500.0


def l20_scenario(name: str) -> ParamVector:
    """The three 20-channel parameter vectors of the at-scale study."""
    if name == "zero":
        lam = np.full(20, 0.99)
        eta = np.full(20, 0.99)
    elif name == "positive":
        lam = np.full(20, 0.98)
        lam[0] = 0.99
        eta = np.full(20, 0.98)
        eta[-1] = 0.99
    elif name == "negative":
        lam = np.full(20, 0.99)
        lam[0] = 0.98
        eta = np.full(20, 0.98)
        eta[0] = 0.99
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return ParamVector(20, lam, eta)


def rep_seed(base_seed: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(rep,))


def _map(worker, args, threads: int):
    if threads <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, args))


# -- scenario classification (n = 1200, three noise kinds) --------------------

def _classification_rep(args) -> dict:
    scenario, noise_kind, rep, base_seed = args
    theta = ParamVector.from_flat(L2_SCENARIOS[scenario])
    kernel = make_kernel("bessel", SCENARIO_RATE, cutoff=SCENARIO_BESSEL_CUTOFF)
    rec = synthesize_recording(
        theta, SCENARIO_N, SCENARIO_RATE,
        kernel=kernel,
        noise=NoiseSpec(**NOISE_SPECS[noise_kind]),
        seed=rep_seed(base_seed, rep),
    )
    result = run_pipeline(rec, alpha=0.1, L=2)
    return {
        "rep": rep,
        "verdict": result.report.verdict.value,
        "l2_error": result.metrics.get("theta_l2_error"),
        "switches": result.idealisation.n_switches,
    }


def classification_study(scenario: str, noise_kind: str, reps: int,
                         base_seed: int = 0, threads: int = 1) -> list[dict]:
    args = [(scenario, noise_kind, rep, base_seed) for rep in range(reps)]
    return _map(_classification_rep, args, threads)


# -- over-segmentation rate on constant truth ---------------------------------

def _fdr_rep(args) -> int:
    alpha, rep, base_seed, n, sigma = args
    theta = ParamVector(1, [1.0], [1.0])  # all-closed stays closed: constant truth
    rec = synthesize_recording(
        theta, n, 1.0,
        kernel=make_kernel("bspline2", 1.0),
        noise=NoiseSpec("gaussian", sigma=sigma),
        seed=rep_seed(base_seed, rep),
    )
    return muscle_fit(rec, alpha=alpha).n_switches


def fdr_study(alpha: float, reps: int, base_seed: int = 0, n: int = 2000,
              sigma: float = 0.1, threads: int = 1) -> dict:
    args = [(alpha, rep, base_seed, n, sigma) for rep in range(reps)]
    k_hats = _map(_fdr_rep, args, threads)
    return {
        "alpha": alpha,
        "k_hats": k_hats,
        "empirical_fdr": empirical_fdr(0, k_hats),
    }


# -- channel-count estimation at scale (L = 20, n = 100k) ---------------------

def _channel_count_rep(args) -> dict:
    scenario, rep, base_seed, n = args
    theta = l20_scenario(scenario)
    trace = simulate_vnd(theta, n, seed=rep_seed(base_seed, rep))
    s = trace.sums.astype(float)
    levels, counts = np.unique(s, return_counts=True)
    ladder = fit_ladder(levels, counts.astype(float))
    L_hat = ladder.L
    values = ladder.nearest_rung(s)
    q_hat = empirical_transition_matrix(values, L=L_hat)
    fit = mde_fit(q_hat, L_hat)
    report = classify_cooperativity(fit.theta_hat)
    ratios = np.concatenate([
        report.lambda_ratios, report.eta_open_ratios, report.eta_close_ratios,
    ])
    return {
        "rep": rep,
        "L_hat": int(L_hat),
        "verdict": report.verdict.value,
        "ratios": [float(r) for r in ratios],
        "objective": fit.objective,
    }


def channel_count_study(scenario: str, reps: int, base_seed: int = 0,
                        n: int = 100_000, threads: int = 1) -> list[dict]:
    args = [(scenario, rep, base_seed, n) for rep in range(reps)]
    return _map(_channel_count_rep, args, threads)


# -- consistency of the estimator in trace length -----------------------------

def _consistency_rep(args) -> dict:
    flat_theta, n, rep, base_seed = args
    theta = ParamVector.from_flat(np.asarray(flat_theta))
    trace = simulate_vnd(theta, n, seed=rep_seed(base_seed, rep))
    q_hat = empirical_transition_matrix(trace.sums, L=theta.L)
    fit = mde_fit(q_hat, theta.L)
    return {
        "rep": rep,
        "n": n,
        "l2_error": float(np.linalg.norm(fit.theta_hat.flat - theta.flat)),
        "objective": fit.objective,
    }


def consistency_study(theta: ParamVector, lengths, reps: int, base_seed: int = 0,
                      threads: int = 1) -> list[dict]:
    flat = tuple(float(v) for v in theta.flat)
    args = [(flat, int(n), rep, base_seed + 7919 * i)
            for i, n in enumerate(lengths) for rep in range(reps)]
    return _map(_consistency_rep, args, threads)


def verdict_accuracy(results: list[dict], truth: str) -> float:
    good = sum(r["verdict"] == truth for r in results)
    return good / len(results) if results else float("nan")


# -- tables of the reproduce command: per-repetition CSV lines and a summary --

ERROR_STUDIES = {"fig-errors-zero": "zero", "fig-errors-pos": "positive",
                 "fig-errors-neg": "negative"}


def errors_table(study: str, reps: int, base_seed: int = 0,
                 threads: int = 1) -> tuple[list[str], dict]:
    """The scenario of a fig-errors study under every noise kind."""
    scenario = ERROR_STUDIES[study]
    summary = {"study": study, "scenario": scenario, "reps": reps, "cells": {}}
    lines = ["noise,rep,l2_error,verdict"]
    for noise_kind in NOISE_SPECS:
        results = classification_study(scenario, noise_kind, reps,
                                       base_seed=base_seed, threads=threads)
        for r in results:
            lines.append(f"{noise_kind},{r['rep']},{r['l2_error']!r},{r['verdict']}")
        errs = [r["l2_error"] for r in results if r["l2_error"] is not None]
        summary["cells"][noise_kind] = {
            "median_l2_error": float(np.median(errs)),
            "verdict_accuracy": verdict_accuracy(results, scenario),
        }
    return lines, summary


def channel_count_table(study: str, reps: int, base_seed: int = 0,
                        threads: int = 1) -> tuple[list[str], dict]:
    """fig-L-hist (the selected L per repetition) or fig-ratio-hist (every
    fitted ratio) of the channel-count study in each scenario."""
    summary = {"study": study, "reps": reps, "scenarios": {}}
    lines = ["scenario,rep,L_hat,verdict"] if study == "fig-L-hist" else ["scenario,rep,ratio"]
    for scenario in ("zero", "positive", "negative"):
        results = channel_count_study(scenario, reps, base_seed=base_seed, threads=threads)
        if study == "fig-L-hist":
            for r in results:
                lines.append(f"{scenario},{r['rep']},{r['L_hat']},{r['verdict']}")
            l_hats = [r["L_hat"] for r in results]
            summary["scenarios"][scenario] = {
                "median_L_hat": float(np.median(l_hats)),
                "underestimate_le_3": float(np.mean([20 - lh <= 3 for lh in l_hats])),
            }
        else:
            pooled = []
            for r in results:
                for ratio in r["ratios"]:
                    lines.append(f"{scenario},{r['rep']},{ratio!r}")
                pooled.extend(r["ratios"])
            summary["scenarios"][scenario] = {
                "median_ratio": float(np.median(pooled)),
                "n_ratios": len(pooled),
            }
    return lines, summary


def fdr_table(study: str, reps: int, base_seed: int = 0,
              threads: int = 1) -> tuple[list[str], dict]:
    """Switch counts on constant truth at alpha = 0.05 and 0.1."""
    summary = {"study": study, "reps": reps, "alphas": {}}
    lines = ["alpha,rep,k_hat"]
    for alpha in (0.05, 0.1):
        res = fdr_study(alpha, reps, base_seed=base_seed, threads=threads)
        for rep, k in enumerate(res["k_hats"]):
            lines.append(f"{alpha!r},{rep},{k}")
        summary["alphas"][repr(alpha)] = {"empirical_fdr": res["empirical_fdr"]}
    return lines, summary


# each study's table and its default repetition count
STUDY_TABLES = {
    **{study: (errors_table, 100) for study in ERROR_STUDIES},
    "fig-L-hist": (channel_count_table, 300),
    "fig-ratio-hist": (channel_count_table, 300),
    "fdr-check": (fdr_table, 500),
}
