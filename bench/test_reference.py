"""Fast tests of the benchmark itself: the reference module against the
brute-force oracle, the checks against broken outputs, the operations
against the study functions they mirror, and the traced call against the
untraced one."""

from __future__ import annotations

import itertools
import signal
import time

import numpy as np
import pytest

import checks
import reference
from coopchan import (
    LevelLadder,
    ParamVector,
    mde_fit,
    simulate_vnd,
    sum_transition_matrix_bruteforce,
)
from coopchan.infer import empirical_transition_matrix
from coopchan.studies import classification_study, consistency_study
from coopchan import pipeline as cpipeline
from tracer import LAYERS, Span, Tracer
from worker import CALIBRATION_PERIOD_S, Calibration, Runner
from workloads import TRACED_MODULES, WORKLOADS


def _thetas(L, rng):
    yield ParamVector(L, rng.uniform(0, 1, L), rng.uniform(0, 1, L))
    yield ParamVector(L, rng.uniform(0.9, 1, L), rng.uniform(0.9, 1, L))
    edges = rng.choice([0.0, 1.0, 0.5], size=2 * L)
    yield ParamVector.from_flat(edges)


@pytest.mark.parametrize("L", range(1, 9))
def test_q_matrix_matches_bruteforce(L):
    rng = np.random.default_rng(L)
    for theta in _thetas(L, rng):
        brute = sum_transition_matrix_bruteforce(theta).entries
        np.testing.assert_allclose(reference.q_matrix(theta.lam, theta.eta), brute,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", [1, 2, 5, 8])
def test_objective_matches_bruteforce_distance(L):
    rng = np.random.default_rng(100 + L)
    counts = rng.integers(0, 50, size=(L + 1, L + 1))
    counts[L // 2] = 0  # a row never visited is left out
    freq = reference.frequencies(counts, counts.sum(axis=1))
    theta = next(_thetas(L, rng))
    brute = sum_transition_matrix_bruteforce(theta).entries
    want = sum(float(((brute[i] - freq[i]) ** 2).sum())
               for i in range(L + 1) if counts[i].sum() > 0)
    assert reference.objective(theta.lam, theta.eta, freq) == pytest.approx(want, rel=1e-12)


def test_recount_matches_loop():
    values = np.random.default_rng(7).integers(0, 4, size=500)
    counts, row_counts = reference.recount(values, 3)
    want = np.zeros((4, 4), dtype=np.int64)
    for a, b in zip(values[:-1], values[1:]):
        want[a, b] += 1
    np.testing.assert_array_equal(counts, want)
    np.testing.assert_array_equal(row_counts, want.sum(axis=1))


def test_ladder_sse_matches_exhaustive_rungs():
    rng = np.random.default_rng(3)
    levels = np.concatenate([rng.normal(0, 3, 40), [0.5, 1.5, -7.0, 99.0]])
    weights = rng.uniform(0, 2, len(levels))
    offset, spacing, L = 0.0, 1.0, 4
    want = 0.0
    for x, w in zip(levels, weights):
        rungs = offset + spacing * np.arange(L + 1)
        d = np.abs(x - rungs)
        i = int(np.flatnonzero(d == d.min())[0])  # a midpoint goes to the lower rung
        want += w * (x - rungs[i]) ** 2
    assert reference.ladder_sse(levels, weights, L, offset, spacing) == pytest.approx(want)


def test_run_lengths():
    values, lengths = reference.run_lengths([2, 2, 0, 1, 1, 1, 2])
    assert values.tolist() == [2, 0, 1, 2]
    assert lengths.tolist() == [2, 1, 3, 1]


def test_check_fit_rejects_broken_fits():
    theta = ParamVector.constant(2, 0.9, 0.9)
    values = simulate_vnd(theta, 20_000, seed=11).sums
    q_hat = empirical_transition_matrix(values, L=2)
    fit = mde_fit(q_hat, 2)
    checks.check_fit(values, 2, q_hat, fit, theta)
    broken = [
        type(fit)(fit.theta_hat, fit.objective * 1.01 + 1e-9, fit.diagnostics),
        type(fit)(theta, fit.objective, fit.diagnostics),
        type(fit)(ParamVector(2, [0.5, 0.5], [0.5, 0.5]), 1.0, fit.diagnostics),
    ]
    for bad in broken:
        with pytest.raises(checks.CheckFailed):
            checks.check_fit(values, 2, q_hat, bad, theta)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(values[::-1], 2, q_hat, fit, theta)


def test_check_channel_count():
    truth = LevelLadder(L=3, offset=0.0, spacing=1.0)
    levels = np.array([0.01, 1.02, 1.98, 3.0, 0.3])  # one stray level
    # today's ladders: the true one, extra rungs on top, half the spacing
    for good in (LevelLadder(3, 0.02, 0.99), LevelLadder(5, 0.02, 0.99),
                 LevelLadder(6, 0.02, 0.494)):
        checks.check_channel_count(levels, good, truth)
    broken = [
        LevelLadder(2, 0.0, 1.5),  # a state lost
        LevelLadder(2, 1.0, 1.0),  # rung 0 lost
        LevelLadder(3, 0.0, 1.5),  # as many rungs, in the wrong places
    ]
    for bad in broken:
        with pytest.raises(checks.CheckFailed):
            checks.check_channel_count(levels, bad, truth)


def test_calibration_slices_are_taken_out_of_the_timing():
    calibration = Calibration()
    previous = signal.getsignal(signal.SIGALRM)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with calibration.running():
        # the slices interrupt the busy wait, so it ends on time regardless
        _, seconds = calibration.timed(busy, 4 * CALIBRATION_PERIOD_S)
    assert len(calibration.slices) >= 2
    assert calibration.stolen > sum(calibration.slices)
    assert seconds + calibration.stolen == pytest.approx(4 * CALIBRATION_PERIOD_S, abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runner_counts_failures_when_every_operation_fails():
    class Failing:
        def batch(self):
            return [0, 1]

        def op(self, inputs, key):
            raise RuntimeError("broken")

    runner = Runner(Failing(), None, Calibration())
    runner.run(0.0)
    assert (runner.attempted, runner.failed, runner.passes) == (2, 2, 1)
    assert runner.pass_seconds() is None and runner.op_p50_seconds() is None


def test_tracer_self_times():
    tracer = Tracer()
    tracer.spans = [Span("bench.op", 0.0, 10.0, None, "a"),
                    Span("pipeline.run_pipeline", 1.0, 9.0, 0, "a"),
                    Span("idealise.muscle_fit", 2.0, 5.0, 1, "a"),
                    Span("io.write_idealisation", 5.0, 6.0, 1, "a")]
    assert tracer.self_times() == {"bench": 2.0, "pipeline": 4.0, "idealise": 3.0, "io": 1.0}
    assert tracer.total("idealise.muscle_fit") == 3.0
    merged = Tracer(spans=[Span("synth.make_kernel", 0.0, 1.0, None, "setup")])
    merged.extend(tracer)
    assert [s.parent for s in merged.spans] == [None, None, 1, 2, 2]
    assert merged.self_times() == {**tracer.self_times(), "synth": 1.0}


def test_scenario_op_mirrors_classification_study():
    workload = WORKLOADS["scenario-batch"]
    inputs = workload.setup(5, None)
    assert len(workload.batch()) == 9 * workload.reps
    for scenario, noise in itertools.product(("zero", "negative"), ("gaussian", "cauchy")):
        (want,) = classification_study(scenario, noise, reps=1, base_seed=5)
        out = workload.op(inputs, (scenario, noise, 0))
        result = out.extra["result"]
        assert result.report.verdict.value == want["verdict"]
        assert result.metrics.get("theta_l2_error") == want["l2_error"]
        assert result.idealisation.n_switches == want["switches"]


def test_chain_op_mirrors_consistency_study():
    workload = WORKLOADS["long-chain-L2"]
    inputs = workload.setup(5, None, n=100_000)
    (want,) = consistency_study(workload.theta, lengths=(100_000,), reps=1, base_seed=5)
    out = workload.op(inputs, 0)
    assert out.fit.objective == want["objective"]
    workload.check(inputs, 0, out)


@pytest.mark.parametrize("name,n,key", [
    ("long-recording", 20_000, 1),
    ("scenario-batch", None, ("positive", "mixture", 1)),
    ("long-chain-L2", 100_000, 1),
])
def test_traced_call_matches_untraced_call(name, n, key, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.setup(9, tmp_path, n=n)
    plain = workload.op(inputs, key)
    tracer = Tracer()
    with tracer.instrument(*TRACED_MODULES), tracer.span("bench.op"):
        traced = workload.op(inputs, key)
    assert traced.replay_key() == plain.replay_key()
    assert traced.counts == plain.counts
    workload.check(inputs, key, plain)
    root = tracer.spans[0]
    assert sum(tracer.self_times().values()) == pytest.approx(root.duration)
    assert {s.layer for s in tracer.spans} <= set(LAYERS)


def test_instrument_times_run_pipelines_own_calls():
    workload = WORKLOADS["scenario-batch"]
    inputs = workload.setup(3, None)
    originals = dict(vars(cpipeline))
    tracer = Tracer()
    with tracer.instrument(*TRACED_MODULES):
        workload.op(inputs, ("zero", "gaussian", 0))
    assert dict(vars(cpipeline)) == originals
    run = next(i for i, s in enumerate(tracer.spans) if s.name == "pipeline.run_pipeline")
    stages = [s.name for s in tracer.spans if s.parent == run]
    assert stages == ["idealise.muscle_fit", "discretise.equal_spacing_cluster",
                      "discretise.discretise_trace", "infer.empirical_transition_matrix",
                      "infer.mde_fit", "infer.cooperativity_report"]
    assert [s.name for s in tracer.spans if s.parent is None] == [
        "synth.make_kernel", "synth.synthesize_recording", "pipeline.run_pipeline"]
