"""Output checks: properties every correct result has, computed with the
reference module rather than compared with stored outputs."""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2

import reference
from coopchan import grid_init


class CheckFailed(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_fit(values, L_hat: int, q_hat, fit, theta_true=None) -> None:
    """Q-hat equals the recount; theta-hat lies in [0,1]^2L; the reported
    objective equals the reference objective, and is no higher than at the
    grid start or (when L-hat = L) at the true parameters."""
    counts, row_counts = reference.recount(values, L_hat)
    require(np.array_equal(q_hat.row_counts, row_counts), "row visit counts differ from recount")
    freq = reference.frequencies(counts, row_counts)
    require(np.allclose(q_hat.entries, freq, rtol=0.0, atol=1e-15, equal_nan=True),
            "Q-hat differs from the recounted frequencies")
    lam, eta = fit.theta_hat.lam, fit.theta_hat.eta
    require(len(lam) == L_hat and len(eta) == L_hat, "theta-hat does not have 2 L-hat entries")
    flat = np.concatenate([lam, eta])
    require(np.all((flat >= 0.0) & (flat <= 1.0)), "theta-hat outside [0, 1]")
    ref = reference.objective(lam, eta, freq)
    require(abs(ref - fit.objective) <= 1e-13 + 1e-8 * ref,
            f"objective {fit.objective!r} differs from the reference {ref!r}")
    start = grid_init(q_hat, L_hat)
    require(fit.objective <= reference.objective(start.lam, start.eta, freq) + 1e-12,
            "objective above its grid start")
    if theta_true is not None and theta_true.L == L_hat:
        at_truth = reference.objective(theta_true.lam, theta_true.eta, freq)
        require(fit.objective <= at_truth + 1e-12,
                f"objective {fit.objective!r} above the objective at the truth {at_truth!r}")


def check_idealisation(recording, ideal) -> None:
    """Segments tile 0..n on the sample grid, adjacent levels differ, each
    level is the median of its segment's tested samples (the filter support
    after a switch is not tested) and the fit reports itself feasible."""
    y = recording.samples
    n, rate = len(y), recording.sample_rate
    transient = len(recording.kernel.taps) - 1
    breaks, levels = ideal.fit.breaks, ideal.fit.levels
    require(breaks[0] == 0.0 and abs(breaks[-1] * rate - n) < 1e-6, "segments do not span 0..n")
    starts = np.rint(breaks[1:-1] * rate - 0.5).astype(np.int64)
    require(np.allclose((starts + 0.5) / rate, breaks[1:-1], rtol=0.0, atol=1e-6 / rate),
            "a switch is off the half-sample grid")
    bounds = np.concatenate([[0], starts, [n]])
    require(np.all(np.diff(bounds) > 0), "segments do not tile 0..n")
    require(np.all(levels[1:] != levels[:-1]), "adjacent levels are equal")
    for j, level in enumerate(levels):
        a, b = int(bounds[j]), int(bounds[j + 1])
        s = a if a == 0 else min(a + transient, b)
        tested = y[s:b] if s < b else y[a:b]
        require(level == np.median(tested), f"level of segment {j} is not its median")
    require(ideal.feasible is True, "idealisation reports itself infeasible")
    require(ideal.n_switches == len(levels) - 1, "switch count differs from the segments")


def check_ladder(levels, weights, ladder, reference_ladder=None) -> None:
    """The reported SSE is the ladder's SSE, and no higher than that of a
    reference ladder (the true one, for simulated recordings)."""
    sse = reference.ladder_sse(levels, weights, ladder.L, ladder.offset, ladder.spacing)
    require(abs(sse - ladder.sse) <= 1e-12 + 1e-9 * sse, "ladder SSE differs from its recount")
    if reference_ladder is not None:
        offset, spacing = reference_ladder
        other = reference.ladder_sse(levels, weights, ladder.L, offset, spacing)
        require(ladder.sse <= other + 1e-12 + 1e-9 * other,
                f"ladder SSE {ladder.sse!r} above the true ladder's {other!r}")


def check_channel_count(levels, ladder, true_ladder, tolerance: float = 0.25) -> None:
    """No channel state is lost: L-hat is at least the true L, and every true
    rung that an idealised level sits on has a fitted rung within
    ``tolerance`` true spacings.  Extra states are not flagged: today
    ``select_L`` adds some for short idealised levels between the true rungs
    on some recordings (see CHANGES.md)."""
    L, spacing = true_ladder.L, true_ladder.spacing
    true_rungs = true_ladder.offset + spacing * np.arange(L + 1)
    rungs = ladder.offset + ladder.spacing * np.arange(ladder.L + 1)
    require(ladder.L >= L, f"L-hat {ladder.L} below the true {L}")
    off = np.abs(np.asarray(levels)[:, None] - true_rungs[None, :]) / spacing
    on_rung = off.min(axis=1) <= tolerance
    for k in np.unique(np.argmin(off[on_rung], axis=1)):
        miss = np.min(np.abs(rungs - true_rungs[k])) / spacing
        require(miss <= tolerance, f"no fitted rung near true rung {k}")


def check_sampling_error(q_hat, theta_true, n_se: float = 6.0) -> None:
    """Every visited entry of Q-hat lies within n_se binomial standard errors
    of the reference Q(theta)."""
    q = reference.q_matrix(theta_true.lam, theta_true.eta)
    counts = q_hat.row_counts.astype(float)
    visited = counts > 0
    se = np.sqrt(q * (1.0 - q) / np.where(visited, counts, 1.0)[:, None])
    dev = np.abs(q_hat.entries - q)
    require(np.all((dev <= n_se * se)[visited]),
            f"Q-hat entry beyond {n_se} standard errors of Q(theta)")


def check_markov_test(values, result) -> None:
    """The contingency tables are the recounted (predecessor, successor)
    pairs around each state, and the p-value is the chi-square tail of the
    statistic."""
    values = np.asarray(values, dtype=np.int64)
    m = int(values.max()) + 1
    prev, cur, nxt = values[:-2], values[1:-1], values[2:]
    for s in range(m):
        at_s = cur == s
        if not at_s.any():
            require(s not in result.contingency, f"table for unvisited state {s}")
            continue
        table = np.bincount(prev[at_s] * m + nxt[at_s], minlength=m * m).reshape(m, m)
        require(np.array_equal(result.contingency[s], table), f"contingency table of state {s}")
    require(result.dof >= 1 and np.isfinite(result.statistic) and result.statistic >= 0,
            "invalid test statistic")
    p = float(chi2.sf(result.statistic, result.dof))
    require(abs(p - result.p_value) <= 1e-12, "p-value is not the chi-square tail")


def check_dwell(values, state: int, sample_rate: float, fit) -> None:
    """Dwell samples are the interior runs at the state, in seconds, and the
    rate is one over their mean."""
    run_values, run_lengths = reference.run_lengths(values)
    interior = np.zeros(len(run_values), dtype=bool)
    interior[1:-1] = True
    lengths = np.sort(run_lengths[interior & (run_values == state)])
    got = np.sort(np.rint(np.asarray(fit.samples) * sample_rate).astype(np.int64))
    require(np.array_equal(got, lengths), f"dwell runs of state {state} differ from the recount")
    rate = sample_rate / float(lengths.mean())
    require(abs(fit.rate - rate) <= 1e-9 * rate, f"dwell rate of state {state}")
