import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopchan.model import (
    JointTrace,
    LTooLarge,
    OutOfRange,
    ParamVector,
    TransitionMatrix,
    Verdict,
    classify_cooperativity,
    simulate_vnd,
    sum_transition_matrix,
    sum_leading,
    sum_transition_matrix_bruteforce,
    transition_rows,
)
from coopchan.studies import l20_scenario


class Identifiability(enum.Enum):
    IDENTIFIABLE = "identifiable"
    BRANCH_PLUS = "identifiable on branch +"
    BRANCH_MINUS = "identifiable on branch -"


def is_identifiable(theta: ParamVector) -> Identifiability:
    """Whether the sum-process law pins down theta.

    Odd L is always identifiable; even L is identifiable on the branch
    lam_{L/2} >= 1 - eta_{L/2} (or the reverse), with the '+' branch reported
    at equality.
    """
    if theta.L % 2 == 1:
        return Identifiability.IDENTIFIABLE
    half = theta.L // 2
    if theta.lam[half] >= 1.0 - theta.eta[half - 1]:
        return Identifiability.BRANCH_PLUS
    return Identifiability.BRANCH_MINUS


def random_theta(rng, L, lo=0.0, hi=1.0):
    return ParamVector(L, rng.uniform(lo, hi, L), rng.uniform(lo, hi, L))


def reference_simulate(theta, n, seed, init="all-closed"):
    """The joint chain with the scalar rule applied at every step, on the
    same (n-1, L) Philox block as simulate_vnd."""
    L = theta.L
    x0 = np.zeros(L, dtype=np.int8) if isinstance(init, str) else np.asarray(init).astype(np.int8)
    states = np.empty((n, L), dtype=np.int8)
    states[0] = x0
    if n > 1:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        u = rng.random((n - 1, L)).tolist()
        lam = theta.lam.tolist()
        eta = theta.eta.tolist()
        x = [int(v) for v in x0]
        s = sum(x)
        for k in range(n - 1):
            uk = u[k]
            ls = lam[s] if s < L else 0.0
            es = eta[s - 1] if s >= 1 else 0.0
            new = 0
            for i in range(L):
                if x[i]:
                    x[i] = 1 if uk[i] < es else 0
                else:
                    x[i] = 0 if uk[i] < ls else 1
                new += x[i]
            s = new
            states[k + 1] = x
    return JointTrace(states=states, sums=states.sum(axis=1, dtype=np.int16))


def assert_same_trace(trace, expected):
    assert trace.states.dtype == expected.states.dtype
    assert trace.sums.dtype == expected.sums.dtype
    assert trace.states.shape == expected.states.shape
    assert trace.states.tobytes() == expected.states.tobytes()
    assert trace.sums.tobytes() == expected.sums.tobytes()


stay_probability = st.one_of(
    st.sampled_from([0.0, 1.0, 0.99, 0.999]),
    st.floats(0.0, 1.0, allow_nan=False),
)


class TestValidate:
    def test_paper_scenario_vector_is_ok(self):
        theta = ParamVector(2, [0.99, 0.99], [0.99, 0.99])
        assert theta.flat.tolist() == [0.99] * 4

    def test_out_of_range_reports_entry(self):
        with pytest.raises(OutOfRange) as err:
            ParamVector(1, [1.2], [0.5])
        assert err.value.name == "lambda"
        assert err.value.index == 0

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="expected 2 entries each, got lam: 1, eta: 2"):
            ParamVector(2, [0.5], [0.5, 0.5])

    @pytest.mark.parametrize("lam, eta, name, index", [
        ([0.5, 1.0 + 1e-12], [0.5, 0.5], "lambda", 1),
        ([0.5, 0.5], [-1e-300, 0.5], "eta", 0),
        ([np.nan, 0.5], [0.5, 0.5], "lambda", 0),
        ([0.5, 0.5], [0.5, np.nan], "eta", 1),
    ])
    def test_construction_rejects_an_entry_outside_the_box(self, lam, eta, name, index):
        # a ParamVector is valid once it exists: the constructor checks itself
        with pytest.raises(OutOfRange) as err:
            ParamVector(2, lam, eta)
        assert (err.value.name, err.value.index) == (name, index)
        with pytest.raises(OutOfRange):
            ParamVector.from_flat(lam + eta)

    @pytest.mark.parametrize("L, lam, eta", [
        (2, [0.5], [0.5, 0.5]), (2, [0.5, 0.5], [0.5, 0.5, 0.5]), (1, [0.5, 0.5], [0.5]),
        (0, [], []), (0, [0.5], [0.5]),
    ])
    def test_construction_rejects_wrong_arity(self, L, lam, eta):
        match = "must be >= 1" if L < 1 else f"expected {L} entries each"
        with pytest.raises(ValueError, match=match):
            ParamVector(L, lam, eta)

    def test_flat_round_trip(self):
        theta = ParamVector.from_flat([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert theta.L == 3
        np.testing.assert_array_equal(theta.lam, [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(theta.eta, [0.4, 0.5, 0.6])
        np.testing.assert_array_equal(theta.flat, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])

    def test_flat_of_odd_length(self):
        with pytest.raises(ValueError, match="flat vector of length 3 is not 2L"):
            ParamVector.from_flat([0.5, 0.5, 0.5])


class TestSumTransitionMatrix:
    def test_single_channel_direct(self):
        a, b = 0.7, 0.4
        q = sum_transition_matrix(ParamVector(1, [a], [b])).entries
        np.testing.assert_allclose(q, [[a, 1 - a], [1 - b, b]], atol=1e-15)

    def test_two_channel_known_entries(self):
        theta = ParamVector(2, [0.99, 0.99], [0.99, 0.99])
        q = sum_transition_matrix(theta).entries
        assert q[0, 0] == pytest.approx(0.9801, abs=1e-12)
        assert q[1, 1] == pytest.approx(0.9802, abs=1e-12)

    def test_matches_bruteforce_L3(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            theta = random_theta(rng, 3)
            closed = sum_transition_matrix(theta).entries
            brute = sum_transition_matrix_bruteforce(theta).entries
            assert np.abs(closed - brute).max() < 1e-12

    def test_oracle_equivalence_all_L(self):
        rng = np.random.default_rng(99)
        for L in range(1, 9):
            for _ in range(100):
                theta = random_theta(rng, L)
                closed = sum_transition_matrix(theta).entries
                brute = sum_transition_matrix_bruteforce(theta).entries
                assert np.abs(closed - brute).max() < 1e-12

    def test_row_stochastic_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            L = int(rng.integers(1, 9))
            q = sum_transition_matrix(random_theta(rng, L)).entries
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_boundary_parameters(self):
        # exact 0/1 stay probabilities exercise the 0**0 convention
        for L in (1, 2, 3):
            for lam in (0.0, 1.0):
                for eta in (0.0, 1.0):
                    theta = ParamVector.constant(L, lam, eta)
                    closed = sum_transition_matrix(theta).entries
                    brute = sum_transition_matrix_bruteforce(theta).entries
                    assert np.abs(closed - brute).max() < 1e-12

    def test_zero_cooperative_factorises_binomially(self):
        # equal stay probabilities make the channels independent two-state
        # chains, so each row is a convolution of binomial counts
        rng = np.random.default_rng(3)
        for L in range(1, 7):
            lam, eta = rng.uniform(0.05, 0.95, 2)
            q = sum_transition_matrix(ParamVector.constant(L, lam, eta)).entries
            from scipy.stats import binom

            for i in range(L + 1):
                expected = np.zeros(L + 1)
                for kept in range(i + 1):
                    p_kept = binom.pmf(kept, i, eta)
                    for opened in range(L - i + 1):
                        expected[kept + opened] += p_kept * binom.pmf(opened, L - i, 1 - lam)
                np.testing.assert_allclose(q[i], expected, atol=1e-12)

    def test_bruteforce_refuses_large_L(self):
        with pytest.raises(LTooLarge):
            sum_transition_matrix_bruteforce(ParamVector.constant(21, 0.5, 0.5))


class TestSumLeading:
    # the block shapes the MDE sums over: one candidate, the lock-step
    # shrink grids, the 41- and 61-point scans, and the edge rows' 1-D axes
    @pytest.mark.parametrize("block", [(1, 1, 1), (6, 11, 11), (1, 41, 41), (1, 61, 61),
                                       (6, 11, 1), (1, 1, 61)])
    def test_matches_numpy_last_axis_sum(self, block):
        # below 8 terms, from 8 to 128 and beyond 128 numpy sums in three
        # different orders; a numpy that changes any of them fails here
        rng = np.random.default_rng(sum(block))
        for n in range(1, 201):
            terms = rng.random((*block, n)) * 10.0 ** rng.uniform(-8, 8, (*block, n))
            leading = np.ascontiguousarray(np.moveaxis(terms, -1, 0))
            assert sum_leading(leading).tobytes() == terms.sum(axis=-1).tobytes(), n


class TestSimulate:
    def test_absorbing_all_closed(self):
        theta = ParamVector.constant(3, 1.0, 1.0)
        trace = simulate_vnd(theta, 50, seed=0)
        assert not trace.states.any()

    def test_deterministic_flip(self):
        theta = ParamVector.constant(2, 0.0, 0.0)
        trace = simulate_vnd(theta, 10, seed=1, init=[1, 0])
        expected = np.array([[1, 0], [0, 1]] * 5)
        np.testing.assert_array_equal(trace.states, expected)

    def test_reproducible(self):
        theta = ParamVector(2, [0.99, 0.99], [0.99, 0.99])
        t1 = simulate_vnd(theta, 1200, seed=42)
        t2 = simulate_vnd(theta, 1200, seed=42)
        np.testing.assert_array_equal(t1.states, t2.states)
        t3 = simulate_vnd(theta, 1200, seed=43)
        assert not np.array_equal(t1.states, t3.states)

    def test_empirical_frequencies_approach_law(self):
        theta = ParamVector(2, [0.9, 0.8], [0.7, 0.6])
        trace = simulate_vnd(theta, 200_000, seed=5)
        q = sum_transition_matrix(theta).entries
        s = trace.sums
        counts = np.zeros((3, 3))
        np.add.at(counts, (s[:-1], s[1:]), 1)
        emp = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(emp - q).max() < 0.01

    def test_simulation_law_long_run(self):
        # empirical transition frequencies approach the closed form: at
        # n = 1e6 the max entry deviation stays below 5e-3 for at least 19
        # of 20 seeds
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        q = sum_transition_matrix(theta).entries
        good = 0
        for seed in range(20):
            s = simulate_vnd(theta, 1_000_000, seed=seed).sums
            counts = np.zeros((3, 3))
            np.add.at(counts, (s[:-1], s[1:]), 1)
            emp = counts / counts.sum(axis=1, keepdims=True)
            good += np.abs(emp - q).max() < 5e-3
        assert good >= 19

    def test_sum_matches_states(self):
        trace = simulate_vnd(ParamVector.constant(4, 0.6, 0.6), 500, seed=9)
        np.testing.assert_array_equal(trace.sums, trace.states.sum(axis=1))
        assert trace.sums.min() >= 0 and trace.sums.max() <= 4

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_matches_per_step_reference(self, data, L, n, seed):
        theta = ParamVector(L, data.draw(st.lists(stay_probability, min_size=L, max_size=L)),
                            data.draw(st.lists(stay_probability, min_size=L, max_size=L)))
        init = data.draw(st.one_of(st.just("all-closed"),
                                   st.lists(st.integers(0, 1), min_size=L, max_size=L)))
        assert_same_trace(simulate_vnd(theta, n, seed, init=init),
                          reference_simulate(theta, n, seed, init=init))

    @pytest.mark.parametrize("theta, n", [
        (l20_scenario("zero"), 100_000),
        (l20_scenario("positive"), 100_000),
        (l20_scenario("negative"), 100_000),
        (ParamVector.constant(3, 0.998, 0.998), 300_000),
    ], ids=["l20-zero", "l20-positive", "l20-negative", "acceptance-9"])
    def test_seeded_chains_match_per_step_reference(self, theta, n):
        assert_same_trace(simulate_vnd(theta, n, seed=7), reference_simulate(theta, n, seed=7))


class TestCooperativity:
    def test_zero_scenario(self):
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        assert classify_cooperativity(theta, tol=1e-3).verdict is Verdict.ZERO

    def test_positive_scenario(self):
        theta = ParamVector.from_flat([0.99, 0.985, 0.985, 0.99])
        report = classify_cooperativity(theta, tol=1e-3)
        assert report.verdict is Verdict.POSITIVE
        assert (report.lambda_ratios > 1).all()

    def test_negative_scenario(self):
        theta = ParamVector.from_flat([0.985, 0.99, 0.99, 0.985])
        assert classify_cooperativity(theta, tol=1e-3).verdict is Verdict.NEGATIVE

    def test_mixed_is_indeterminate(self):
        theta = ParamVector(2, [0.99, 0.9], [0.99, 0.9])
        # lam ratio 1.1 > 1, eta_open ratio 0.909 < 1
        assert classify_cooperativity(theta, tol=1e-3).verdict is Verdict.INDETERMINATE

    def test_zero_denominator_indeterminate(self):
        theta = ParamVector(2, [0.5, 0.0], [0.5, 0.5])
        assert classify_cooperativity(theta, tol=1e-3).verdict is Verdict.INDETERMINATE

    def test_single_channel_is_zero(self):
        assert classify_cooperativity(ParamVector(1, [0.3], [0.8])).verdict is Verdict.ZERO

    @given(
        tol=st.floats(min_value=1e-6, max_value=4e-3),
        lam1=st.floats(min_value=0.9, max_value=0.984),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdict_stable_below_smallest_gap(self, tol, lam1):
        # every ratio is at least 0.99/0.984 - 1 > 6e-3 away from 1, so any
        # tolerance below that gap yields the same verdict
        theta = ParamVector(2, [0.99, lam1], [lam1, 0.99])
        assert classify_cooperativity(theta, tol=tol).verdict is Verdict.POSITIVE

    def test_ratio_values(self):
        theta = ParamVector(3, [0.9, 0.6, 0.3], [0.2, 0.4, 0.8])
        report = classify_cooperativity(theta)
        np.testing.assert_allclose(report.lambda_ratios, [0.9 / 0.6, 0.9 / 0.3])
        np.testing.assert_allclose(report.eta_open_ratios, [0.8 / 0.2, 0.8 / 0.4])
        np.testing.assert_allclose(report.eta_close_ratios, [0.4 / 0.2, 0.8 / 0.2])

    @given(
        flat=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=12),
        tol=st.floats(min_value=1e-6, max_value=0.2),
    )
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_independent_rule(self, flat, tol):
        # re-derive the verdict from the ratio definitions with scalar logic
        if len(flat) % 2:
            flat = flat[:-1]
        L = len(flat) // 2
        theta = ParamVector.from_flat(np.array(flat))
        report = classify_cooperativity(theta, tol=tol)
        lam, eta = theta.lam, theta.eta
        if L == 1:
            assert report.verdict is Verdict.ZERO
            return
        lam_ratios = [lam[0] / lam[r] for r in range(1, L)]
        open_ratios = [eta[L - 1] / eta[r - 1] for r in range(1, L)]
        close_ratios = [eta[r] / eta[0] for r in range(1, L)]
        positive = all(v > 1 + tol for v in lam_ratios + open_ratios)
        negative = all(v < 1 - tol for v in lam_ratios + close_ratios)
        zero = all(1 - tol <= v <= 1 + tol
                   for v in lam_ratios + open_ratios + close_ratios)
        if positive:
            expected = Verdict.POSITIVE
        elif negative:
            expected = Verdict.NEGATIVE
        elif zero:
            expected = Verdict.ZERO
        else:
            expected = Verdict.INDETERMINATE
        assert report.verdict is expected


class TestIdentifiability:
    def test_odd_L(self):
        rng = np.random.default_rng(0)
        for L in (1, 3, 5):
            assert is_identifiable(random_theta(rng, L)) is Identifiability.IDENTIFIABLE

    def test_even_branches(self):
        plus = ParamVector(2, [0.5, 0.99], [0.99, 0.5])
        minus = ParamVector(2, [0.5, 0.2], [0.5, 0.5])
        assert is_identifiable(plus) is Identifiability.BRANCH_PLUS
        assert is_identifiable(minus) is Identifiability.BRANCH_MINUS

    def test_equality_reports_plus(self):
        theta = ParamVector(2, [0.5, 0.4], [0.6, 0.5])
        assert is_identifiable(theta) is Identifiability.BRANCH_PLUS

    @given(half=st.integers(min_value=1, max_value=10),
           lam=st.floats(min_value=0.0, max_value=1.0),
           eta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_middle_row_is_mirror_symmetric(self, half, lam, eta):
        # row L/2 of an even L is Bin(L/2, eta) + Bin(L/2, 1 - lam), a law
        # that (lam, eta) -> (1 - eta, 1 - lam) leaves unchanged: the two
        # branches are exact mirrors, and the fit searches only plus
        L = 2 * half
        row = transition_rows(L, half, [[lam]], [[eta]])
        mirror = transition_rows(L, half, [[1.0 - eta]], [[1.0 - lam]])
        np.testing.assert_allclose(row, mirror, rtol=0, atol=1e-15)


class TestTransitionMatrixType:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_masked_rows_exempt(self):
        entries = np.array([[np.nan, np.nan], [0.25, 0.75]])
        tm = TransitionMatrix(entries, row_counts=np.array([0, 8]))
        assert list(tm.row_mask()) == [False, True]

    def test_joint_trace_checks_sums(self):
        with pytest.raises(ValueError):
            JointTrace(states=np.array([[1, 0]]), sums=np.array([2]))
