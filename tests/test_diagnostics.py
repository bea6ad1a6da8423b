import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from coopchan.core import DiscreteTrace, LevelLadder
from coopchan.diagnostics import (
    AllCellsSparse,
    MarkovTestResult,
    NoVisits,
    _merge_sparse,
    dwell_times,
    markov_property_test,
)
from coopchan.model import ParamVector, simulate_vnd


def order2_counterexample(n, seed=0):
    """Deterministic second-order binary chain: the next value is 1 exactly
    when the previous two agree.  Its one-step law looks random, but the
    second-order dependence is total, so the Markov test must reject."""
    rng = np.random.default_rng(seed)
    s = np.empty(n, dtype=np.int64)
    s[0] = 0  # (1, 1) would be absorbing under the rule
    s[1] = rng.integers(0, 2)
    for k in range(2, n):
        s[k] = 1 if s[k - 2] == s[k - 1] else 0
    return s


def reference_markov_property_test(values, min_expected=5.0):
    """markov_property_test counting each state's contingency table with its
    own mask and np.add.at: the reference for the one-pass counts."""
    values = np.asarray(values)
    if len(values) < 3:
        raise ValueError("need at least three samples")
    n_states = int(values.max()) + 1
    prev, cur, nxt = values[:-2], values[1:-1], values[2:]
    statistic = 0.0
    dof = 0
    contingency = {}
    for s in range(n_states):
        at_s = cur == s
        if not at_s.any():
            continue
        table = np.zeros((n_states, n_states))
        np.add.at(table, (prev[at_s], nxt[at_s]), 1.0)
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
    return MarkovTestResult(statistic=statistic, dof=dof, p_value=float(chi2.sf(statistic, dof)),
                            contingency=contingency)


def trace_of(values, L):
    return DiscreteTrace(values=np.asarray(values), ladder=LevelLadder(L=L, offset=0.0, spacing=1.0))


class TestMarkovTest:
    def test_iid_size(self):
        rejections = 0
        n_seeds = 120
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            values = rng.integers(0, 2, 10_000)
            res = markov_property_test(values)
            rejections += res.p_value < 0.05
        assert 0.01 * n_seeds <= rejections <= 0.10 * n_seeds

    def test_order2_counterexample_rejected(self):
        for seed in range(20):
            values = order2_counterexample(400, seed=seed)
            res = markov_property_test(values)
            assert res.p_value < 1e-6

    def test_order2_look_marginally_unremarkable(self):
        # the counterexample's single-step transition frequencies are not
        # degenerate, so only the second-order test can see the structure
        values = order2_counterexample(3000, seed=1)
        from coopchan.infer import empirical_transition_matrix
        q = empirical_transition_matrix(values, L=1)
        assert 0.2 < q.entries[0, 1] < 0.8

    def test_vnd_sum_is_markov(self):
        theta = ParamVector.from_flat([0.9, 0.85, 0.85, 0.9])
        rejections = 0
        n_seeds = 25
        for seed in range(n_seeds):
            trace = simulate_vnd(theta, 20_000, seed=seed)
            res = markov_property_test(trace.sums)
            rejections += res.p_value < 0.05
        assert rejections <= 0.2 * n_seeds

    @given(states=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
           n=st.integers(min_value=3, max_value=400),
           dtype=st.sampled_from([np.int8, np.int16, np.int64, np.uint8]),
           min_expected=st.sampled_from([0.5, 5.0]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_counts_match_the_per_state_reference(self, states, n, dtype, min_expected, seed):
        # runs of states drawn from a subset of 0..5, so traces miss states
        # below their maximum, and narrow dtypes whose products overflow
        rng = np.random.default_rng(seed)
        runs = rng.choice(sorted(states), n)
        values = np.repeat(runs, rng.integers(1, 4, n))[:n].astype(dtype)
        try:
            expected = reference_markov_property_test(values, min_expected)
        except AllCellsSparse:
            with pytest.raises(AllCellsSparse):
                markov_property_test(values, min_expected)
            return
        got = markov_property_test(values, min_expected)
        assert (got.statistic, got.dof, got.p_value) == (
            expected.statistic, expected.dof, expected.p_value)
        assert list(got.contingency) == list(expected.contingency)
        for s, table in expected.contingency.items():
            assert got.contingency[s].dtype == table.dtype
            np.testing.assert_array_equal(got.contingency[s], table)

    def test_negative_states_are_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            markov_property_test(np.array([0, 1, -1, 0, 1]))

    def test_too_short(self):
        with pytest.raises(ValueError, match="need at least three samples"):
            markov_property_test(np.array([0, 1]))

    def test_all_sparse(self):
        with pytest.raises(AllCellsSparse):
            markov_property_test(np.array([0, 0, 0, 1, 0]))

    def test_p_value_is_chi2_sf_bit_for_bit(self):
        # a de Bruijn cycle of order 3 visits every (prev, cur, next) once,
        # so ten of them, closed, give exactly independent tables: statistic 0
        cycle = [0, 0, 0, 1, 0, 1, 1, 1]
        rng = np.random.default_rng(21)
        traces = [np.array(cycle * 10 + cycle[:2]), order2_counterexample(2000)]
        traces += [rng.integers(0, k, n) for k in (2, 3, 5) for n in (300, 5000)]
        theta = ParamVector.from_flat([0.9, 0.8, 0.7, 0.95])
        traces += [simulate_vnd(theta, 4000, seed=seed).sums for seed in range(4)]
        results = [markov_property_test(values) for values in traces]
        assert (results[0].statistic, results[0].p_value) == (0.0, 1.0)
        for res in results:
            assert res.p_value == float(chi2.sf(res.statistic, res.dof))

    def test_statistic_fields(self):
        rng = np.random.default_rng(3)
        res = markov_property_test(rng.integers(0, 3, 5000))
        assert res.statistic >= 0
        assert res.dof >= 1
        assert 0 <= res.p_value <= 1
        assert set(res.contingency) <= {0, 1, 2}


class TestDwellTimes:
    def test_interior_dwell(self):
        fit = dwell_times(trace_of([0, 1, 1, 0], 1), state=1, sample_rate=1.0)
        np.testing.assert_array_equal(fit.samples, [2.0])
        assert fit.rate == pytest.approx(0.5)

    def test_boundary_runs_censored(self):
        with pytest.raises(NoVisits):
            dwell_times(trace_of([1, 1, 1, 1], 1), state=1, sample_rate=1.0)
        # runs touching either end are dropped
        fit = dwell_times(trace_of([1, 0, 1, 1, 0, 1], 1), state=1, sample_rate=1.0)
        np.testing.assert_array_equal(fit.samples, [2.0])

    def test_geometric_dwell_mean(self):
        p = 0.9
        rng = np.random.default_rng(12)
        values = np.empty(1_000_000, dtype=np.int64)
        values[0] = 0
        stay = rng.random(len(values) - 1) < p
        values[1:] = 0
        cur = 0
        # two-state chain with symmetric stay probability p
        flips = ~stay
        cur_arr = np.zeros(len(values), dtype=np.int64)
        cur_arr[1:] = np.cumsum(flips) % 2
        fit = dwell_times(trace_of(cur_arr, 1), state=0, sample_rate=1.0)
        mean_samples = fit.samples.mean()
        assert abs(mean_samples - 1 / (1 - p)) / (1 / (1 - p)) < 0.02

    def test_seconds_conversion(self):
        fit = dwell_times(trace_of([0, 1, 1, 1, 0], 1), state=1, sample_rate=100.0)
        np.testing.assert_allclose(fit.samples, [0.03])
        assert fit.rate == pytest.approx(100 / 3)

    def test_dwell_additivity_on_concatenation(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 3, 400)
        values[0] = 0
        values[-1] = 0
        doubled = np.concatenate([values, values])
        for state in (1, 2):
            single = dwell_times(trace_of(values, 2), state, 1.0)
            both = dwell_times(trace_of(doubled, 2), state, 1.0)
            assert len(both.samples) == 2 * len(single.samples)

    def test_histogram_shape(self):
        rng = np.random.default_rng(9)
        vals = (rng.random(5000) < 0.5).astype(int)
        fit = dwell_times(trace_of(vals, 1), state=1, sample_rate=10.0, n_bins=12)
        assert fit.hist_counts.sum() == len(fit.samples)
        assert len(fit.hist_edges) == 13
