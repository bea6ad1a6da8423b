"""Model-adequacy diagnostics for discrete open-channel traces.

A second-order chi-square test probes the Markov property (given the current
state, predecessor and successor should be independent), and per-state dwell
times are fitted by the exponential law they follow under Markov dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .core import DiscreteTrace, run_starts


class AllCellsSparse(ValueError):
    """No state produced a contingency table dense enough to test."""


class NoVisits(ValueError):
    """The requested state has no interior dwell."""


@dataclass(frozen=True)
class MarkovTestResult:
    statistic: float
    dof: int
    p_value: float
    contingency: dict

    def __post_init__(self):
        if self.statistic < 0 or not 0.0 <= self.p_value <= 1.0:
            raise ValueError("invalid test result")


@dataclass(frozen=True)
class DwellFit:
    """Dwell-time summary for one state: rate is 1 / mean dwell (seconds)."""

    state: int
    samples: np.ndarray
    rate: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def _merge_sparse(table: np.ndarray, min_expected: float) -> np.ndarray:
    """Merge the lightest rows/columns until every expected count reaches
    min_expected, or the table is 2x2."""
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0] if table.size else table
    while table.shape[0] >= 2 and table.shape[1] >= 2:
        total = table.sum()
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
        if (expected >= min_expected).all():
            return table
        if table.shape[0] == 2 and table.shape[1] == 2:
            return table
        # merge along the axis whose lightest margin is smallest
        row_sums = table.sum(axis=1)
        col_sums = table.sum(axis=0)
        if (row_sums.min() <= col_sums.min() and table.shape[0] > 2) or table.shape[1] == 2:
            order = np.argsort(row_sums, kind="stable")
            i, j = order[0], order[1]
            table[j] += table[i]
            table = np.delete(table, i, axis=0)
        else:
            order = np.argsort(col_sums, kind="stable")
            i, j = order[0], order[1]
            table[:, j] += table[:, i]
            table = np.delete(table, i, axis=1)
    return table


def markov_property_test(trace, min_expected: float = 5.0) -> MarkovTestResult:
    """Chi-square test of the Markov property.

    For each state s, the (predecessor, successor) pairs around visits to s
    form a contingency table that is independent under the Markov property;
    per-state statistics and degrees of freedom add up.  Sparse rows/columns
    (expected < min_expected) are merged first, the standard rule.
    """
    values = np.asarray(trace.values if isinstance(trace, DiscreteTrace) else trace)
    if len(values) < 3:
        raise ValueError("need at least three samples")
    if values.min() < 0:
        raise ValueError("states must be nonnegative integers")
    n_states = int(values.max()) + 1
    # (current, predecessor, successor) counts in one pass; the key is
    # int64 so that narrow state dtypes cannot overflow
    key = (values[1:-1].astype(np.int64) * n_states + values[:-2]) * n_states + values[2:]
    counts = np.bincount(key, minlength=n_states ** 3).reshape(n_states, n_states, n_states)
    statistic = 0.0
    dof = 0
    contingency = {}
    for s in range(n_states):
        if not counts[s].any():
            continue
        table = counts[s].astype(float)
        contingency[s] = table.copy()
        table = _merge_sparse(table, min_expected)
        if table.shape[0] < 2 or table.shape[1] < 2:
            continue
        total = table.sum()
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
        if (expected < min_expected).any():
            continue
        statistic += float(((table - expected) ** 2 / expected).sum())
        dof += (table.shape[0] - 1) * (table.shape[1] - 1)
    if dof == 0:
        raise AllCellsSparse("no state has a testable contingency table")
    return MarkovTestResult(
        statistic=statistic,
        dof=dof,
        p_value=float(chdtrc(dof, statistic)),
        contingency=contingency,
    )


def dwell_times(trace, state: int, sample_rate: float, n_bins: int = 24) -> DwellFit:
    """Durations of maximal runs at one state, in seconds.

    Runs touching either end of the trace are censored and excluded, so the
    exponential rate 1 / mean is not biased downward.
    """
    values = np.asarray(trace.values if isinstance(trace, DiscreteTrace) else trace)
    if isinstance(trace, DiscreteTrace) and not 0 <= state <= trace.ladder.L:
        raise ValueError(f"state {state} outside 0..{trace.ladder.L}")
    starts = run_starts(values)
    ends = np.append(starts[1:], len(values))
    interior = (values[starts] == state) & (starts > 0) & (ends < len(values))
    lengths = (ends - starts)[interior]
    if len(lengths) == 0:
        raise NoVisits(f"state {state} has no interior dwell")
    samples = lengths / sample_rate
    rate = 1.0 / float(samples.mean())
    counts, edges = np.histogram(samples, bins=n_bins, range=(0.0, float(samples.max())))
    return DwellFit(state=int(state), samples=samples, rate=rate,
                    hist_counts=counts, hist_edges=edges)
