import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coopchan import io as cio
from coopchan.cli import main
from coopchan.core import DiscreteTrace, LevelLadder, StepFunction
from coopchan.idealise import Idealisation, muscle_fit
from coopchan.model import OutOfRange, ParamVector, simulate_vnd
from coopchan.synth import NoiseSpec, Recording, make_kernel, synthesize_recording


@pytest.fixture
def runner():
    return CliRunner()


def read_bytes(path):
    return Path(path).read_bytes()


# The CSV writers as they were, formatting one row at a time with
# str.format: the reference for the bytes of cio's writers.

def reference_recording_csv(rec):
    rows = map("{:.9f},{!r}".format, rec.times().tolist(), rec.samples.tolist())
    return "time,current\n" + "\n".join(rows) + "\n"


def reference_idealisation_csv(ideal):
    breaks = ideal.fit.breaks
    rows = map("{:.9f},{:.9f},{!r}".format, breaks[:-1].tolist(), breaks[1:].tolist(),
               ideal.fit.levels.tolist())
    return "segment_start_time,segment_end_time,level\n" + "\n".join(rows) + "\n"


def reference_discrete_csv(trace):
    # one row per maximal run, found sample by sample
    values, rows, first = trace.values.tolist(), [], 1
    for k, v in enumerate(values, start=1):
        if k == len(values) or values[k] != v:
            rows.append(f"{first},{k},{v}")
            first = k + 1
    return "first_sample,last_sample,open_channels\n" + "\n".join(rows) + "\n"


def per_sample_discrete_csv(trace, sample_rate, header=True):
    """A trace as one time and count a row, as discrete traces were written
    before they were written as runs."""
    rows = [f"{(k + 1) / sample_rate:.9f},{v}" for k, v in enumerate(trace.values.tolist())]
    return "time,open_channels\n" * header + "\n".join(rows) + "\n"


def reference_histogram_csv(bin_left, bin_right, count):
    lines = ["bin_left,bin_right,count"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r}"
              for a, b, c in zip(bin_left, bin_right, count)]
    return "\n".join(lines) + "\n"


def sidecar_recording(path):
    """A simulated 300-sample recording with truth, written to ``path``."""
    rec = synthesize_recording(ParamVector(1, [0.99], [0.99]), 300, 1000.0, kernel="bspline2",
                               noise=NoiseSpec("gaussian", sigma=0.05), seed=3)
    cio.write_recording(rec, path)


awkward_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, -1e22, 0.1, 1 / 3,
                     2.0 ** 53 + 2, 123456.789, 1e-310]),
)


class TestIORoundTrips:
    def test_recording_round_trip(self, tmp_path):
        theta = ParamVector.from_flat([0.99, 0.99, 0.99, 0.99])
        rec = synthesize_recording(theta, 300, 1000.0,
                                   noise=NoiseSpec("mixture"), seed=5)
        path = tmp_path / "rec.csv"
        cio.write_recording(rec, path)
        back = cio.read_recording(path)
        np.testing.assert_array_equal(back.samples, rec.samples)
        assert back.sample_rate == rec.sample_rate
        np.testing.assert_array_equal(back.kernel.taps, rec.kernel.taps)
        np.testing.assert_array_equal(back.truth.discrete.values, rec.truth.discrete.values)
        np.testing.assert_array_equal(back.truth.theta.flat, rec.truth.theta.flat)

    @pytest.mark.parametrize("offset, spacing, rate", [
        (0.0, 1.0, 10_000.0), (-2.5, 0.3, 1000.0), (1e-11, 7e-13, 3.0)])
    @pytest.mark.parametrize("n", [1, 2, 299, 300, 2001])
    def test_recording_truth_is_rebuilt_from_its_switches(self, tmp_path, offset, spacing,
                                                          rate, n):
        theta = ParamVector.from_flat([0.9, 0.8, 0.7, 0.6, 0.85, 0.75])
        rec = synthesize_recording(theta, n, rate, offset=offset, spacing=spacing,
                                   kernel="identity", noise=NoiseSpec(), seed=n)
        path = tmp_path / "rec.csv"
        cio.write_recording(rec, path)
        assert "values" not in cio.load_json(cio.meta_path(path))["truth"]
        back = cio.read_recording(path).truth
        np.testing.assert_array_equal(back.discrete.values, rec.truth.discrete.values)
        assert back.discrete.ladder == rec.truth.discrete.ladder
        assert back.step.breaks.tobytes() == rec.truth.step.breaks.tobytes()
        assert back.step.levels.tobytes() == rec.truth.step.levels.tobytes()

    @given(samples=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=1, max_size=50),
           header=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_recording_samples_round_trip_bit_for_bit(self, samples, header):
        rec = Recording(samples=np.array(samples), sample_rate=250.0,
                        kernel=make_kernel("identity", 250.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rec.csv"
            cio.write_recording(rec, path)
            if not header:
                path.write_text(path.read_text().split("\n", 1)[1])
            back = cio.read_recording(path)
        assert back.samples.tobytes() == rec.samples.tobytes()
        assert back.sample_rate == rec.sample_rate

    def test_recording_rows_match_row_formatter(self, tmp_path):
        # the writer's bytes equal the per-row f-string formatting of times
        # at nine decimals and samples by repr, on awkward floats too
        rng = np.random.default_rng(12)
        samples = np.concatenate([
            rng.normal(size=200), rng.standard_cauchy(100) * 1e6,
            [0.0, -0.0, 5e-324, -2.2e-308, 1e-310, 1.0, -3.0, 2.0 ** 60, 1e22, 0.1, 1 / 3],
        ])
        rng.shuffle(samples)
        rec = Recording(samples=samples, sample_rate=3.0, kernel=make_kernel("identity", 3.0))
        path = tmp_path / "rec.csv"
        cio.write_recording(rec, path)
        rows = [f"{t:.9f},{repr(float(v))}" for t, v in zip(rec.times(), rec.samples)]
        assert path.read_text() == "\n".join(["time,current"] + rows) + "\n"

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8])
    def test_discrete_rows_match_row_formatter(self, tmp_path, dtype):
        # one row per maximal run of equal counts: its first and last sample,
        # numbered from 1, and its count, all as integers whatever the integer
        # dtype of the trace.  Repeated draws put equal counts side by side,
        # which join into one run; the rate goes to the sidecar alone
        rng = np.random.default_rng(13)
        values = np.repeat(rng.integers(0, 21, 600), rng.integers(1, 40, 600)).astype(dtype)
        trace = DiscreteTrace(values=values, ladder=LevelLadder(L=20, offset=0.0, spacing=1.0))
        path = tmp_path / "disc.csv"
        for rate in (3.0, 1e4, 1024.0, 1e-3):
            cio.write_discrete(trace, rate, path)
            assert path.read_text() == reference_discrete_csv(trace)
            assert cio.load_json(cio.meta_path(path))["sample_rate"] == rate

    @pytest.mark.parametrize("rate, n", [(1e-3, 4600), (1e-300, 3)])
    def test_cell_formatted_discrete_rows_raise_no_warning(self, tmp_path, rate, n):
        # sample times past 2**52 ns, or past any float, are never formed:
        # the rows hold sample numbers, so a tiny rate writes and reads back
        ladder = LevelLadder(L=2, offset=0.0, spacing=1.0)
        trace = DiscreteTrace(values=np.arange(n) // 7 % 3, ladder=ladder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cio.write_discrete(trace, rate, tmp_path / "disc.csv")
            back, back_rate = cio.read_discrete(tmp_path / "disc.csv")
        assert read_bytes(tmp_path / "disc.csv") == reference_discrete_csv(trace).encode()
        assert back.values.tobytes() == trace.values.astype(np.int64).tobytes()
        assert back_rate == rate

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -1.0])
    def test_discrete_writer_rejects_a_bad_rate(self, tmp_path, rate):
        # an infinite rate used to write every time as 0.000000000 and a
        # sidecar that read_discrete refuses
        ladder = LevelLadder(L=1, offset=0.0, spacing=1.0)
        trace = DiscreteTrace(values=np.array([0, 1]), ladder=ladder)
        with pytest.raises(ValueError, match="sample_rate must be finite and positive"):
            cio.write_discrete(trace, rate, tmp_path / "disc.csv")
        assert list(tmp_path.iterdir()) == []

    def test_idealisation_rows_match_row_formatter(self, tmp_path):
        # segment bounds at nine decimals and levels by repr, on awkward
        # floats too
        rng = np.random.default_rng(14)
        levels = np.concatenate([
            rng.normal(size=200), rng.standard_cauchy(100) * 1e6,
            [0.0, 1.0, -0.0, 5e-324, -2.2e-308, 1e-310, -3.0, 2.0 ** 60, 1e22, 0.1, 1 / 3],
        ])
        ends = np.cumsum(rng.integers(1, 50, len(levels)))
        breaks = np.concatenate([[0.0], (ends[:-1] - 0.5) / 3.0, [ends[-1] / 3.0]])
        ideal = Idealisation(fit=StepFunction(breaks, levels), alpha=0.1,
                             n_switches=len(levels) - 1, feasible=True, sample_rate=3.0)
        path = tmp_path / "ideal.csv"
        cio.write_idealisation(ideal, path)
        rows = [f"{breaks[j]:.9f},{breaks[j + 1]:.9f},{repr(float(lv))}"
                for j, lv in enumerate(levels)]
        assert path.read_text() == "\n".join(["segment_start_time,segment_end_time,level"]
                                             + rows) + "\n"

    @given(values=st.lists(awkward_floats, min_size=1, max_size=41),
           counts=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=41),
           dtype=st.sampled_from([np.int8, np.int16, np.int64, np.uint8]),
           rate=st.sampled_from([1.0, 3.0, 7.0, 10_000.0, 2.5e4, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_writers_match_the_per_row_reference(self, values, counts, dtype, rate):
        # n = 1, 2 and odd n come from the drawn list lengths
        rec = Recording(samples=np.array(values), sample_rate=rate,
                        kernel=make_kernel("identity", rate))
        levels = [v for k, v in enumerate(values) if k == 0 or v != values[k - 1]]
        breaks = np.concatenate([[0.0], np.arange(1, len(levels)) - 0.5, [len(levels)]]) / rate
        ideal = Idealisation(fit=StepFunction(breaks, np.array(levels)), alpha=0.1,
                             n_switches=len(levels) - 1, feasible=True, sample_rate=rate)
        trace = DiscreteTrace(values=np.array(counts, dtype=dtype),
                              ladder=LevelLadder(L=20, offset=0.0, spacing=1.0))
        # histogram bins from the floats, counts as integers or floats
        m = min(len(values), len(counts))
        bins = (np.array(values[:m]), np.array(values[::-1][:m]))
        int_counts, float_counts = np.array(counts[:m], dtype=dtype), np.array(values[:m])
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cio.write_recording(rec, tmp / "rec.csv")
            cio.write_idealisation(ideal, tmp / "ideal.csv")
            cio.write_discrete(trace, rate, tmp / "disc.csv")
            cio.write_histogram(*bins, int_counts, tmp / "hist_int.csv")
            cio.write_histogram(*bins, float_counts, tmp / "hist_float.csv")
            assert read_bytes(tmp / "rec.csv") == reference_recording_csv(rec).encode()
            assert read_bytes(tmp / "ideal.csv") == reference_idealisation_csv(ideal).encode()
            assert read_bytes(tmp / "disc.csv") == reference_discrete_csv(trace).encode()
            assert read_bytes(tmp / "hist_int.csv") == \
                reference_histogram_csv(*bins, int_counts).encode()
            assert read_bytes(tmp / "hist_float.csv") == \
                reference_histogram_csv(*bins, float_counts).encode()

    def test_truth_theta_out_of_range_is_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        meta = cio.load_json(cio.meta_path(path))
        meta["truth"]["theta"]["lam"][0] = 1.7
        cio.dump_json(meta, cio.meta_path(path))
        with pytest.raises(OutOfRange, match=r"lambda\[0\] = 1.7"):
            cio.read_recording(path)

    @pytest.mark.parametrize("keep", [200, 299])
    def test_truncated_recording_is_rejected(self, tmp_path, keep):
        # the sidecar's truth describes n_samples samples; a CSV cut short
        # cannot be compared with it
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1 + keep]))
        with pytest.raises(ValueError, match=f"holds {keep} samples .* describes 300"):
            cio.read_recording(path)

    def test_csv_layout_rules(self, tmp_path):
        # leading blank lines and an optional header are skipped, further
        # columns are ignored
        path = tmp_path / "lab.csv"
        path.write_text("\n  \ntime,current,voltage\n0.5,1.25,-80\n1.0,-2.5e-3,-80\n")
        rec = cio.read_recording(path)
        np.testing.assert_array_equal(rec.samples, [1.25, -2.5e-3])
        assert rec.sample_rate == 2.0

    @pytest.mark.parametrize("text", ["", "\n\n", "time,current\n", "\ntime,current\n\n"])
    def test_recording_without_samples_is_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no samples"):
            cio.read_recording(path, sample_rate=10.0)

    def test_headerless_csv_ingestion(self, tmp_path):
        path = tmp_path / "bare.csv"
        rows = [f"{k / 100.0:.9f},{0.1 * k}" for k in range(1, 51)]
        path.write_text("\n".join(rows) + "\n")
        rec = cio.read_recording(path)
        assert len(rec) == 50
        assert rec.sample_rate == pytest.approx(100.0)
        assert rec.kernel.kind == "identity"

    def test_idealisation_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        theta = ParamVector(1, [0.999], [0.998])
        rec = synthesize_recording(theta, 2000, 1.0, kernel="bspline2",
                                   noise=NoiseSpec("gaussian", sigma=0.05), seed=3)
        ideal = muscle_fit(rec, alpha=0.1)
        path = tmp_path / "ideal.csv"
        cio.write_idealisation(ideal, path)
        back = cio.read_idealisation(path)
        np.testing.assert_allclose(back.fit.breaks, ideal.fit.breaks)
        np.testing.assert_array_equal(back.fit.levels, ideal.fit.levels)
        assert back.n_switches == ideal.n_switches

    @given(gaps=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=30),
           levels=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=30, max_size=30, unique=True),
           rate=st.sampled_from([1.0, 250.0, 1e4, 2e4]),
           alpha=st.floats(min_value=1e-3, max_value=0.5), feasible=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_idealisation_round_trip_bit_for_bit(self, gaps, levels, rate, alpha, feasible):
        # switches sit half-way between samples, as muscle_fit places them
        ends = np.cumsum(gaps)
        breaks = np.concatenate([[0.0], (ends[:-1] - 0.5) / rate, [ends[-1] / rate]])
        levels = [lv for j, lv in enumerate(levels[:len(gaps)])
                  if j == 0 or lv != levels[j - 1]]
        assume(len(levels) == len(gaps))
        ideal = Idealisation(fit=StepFunction(breaks, np.array(levels)), alpha=alpha,
                             n_switches=len(gaps) - 1, feasible=feasible, sample_rate=rate)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ideal.csv"
            cio.write_idealisation(ideal, path)
            back = cio.read_idealisation(path)
        assert back.fit.breaks.tobytes() == ideal.fit.breaks.tobytes()
        assert back.fit.levels.tobytes() == ideal.fit.levels.tobytes()
        assert (back.alpha, back.n_switches, back.feasible, back.sample_rate) == \
            (alpha, len(gaps) - 1, feasible, rate)

    @given(L=st.integers(min_value=1, max_value=20),
           runs=st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                                   st.integers(min_value=1, max_value=30)),
                         min_size=1, max_size=40),
           dtype=st.sampled_from([np.int8, np.uint8, np.int64]),
           offset=st.floats(allow_nan=False, allow_infinity=False),
           spacing=st.floats(min_value=1e-300, max_value=1e300),
           sse=st.floats(min_value=0.0, max_value=1e300),
           rate=st.one_of(st.sampled_from([5e-324, 1e-300, 1e-3, 1e300, 1.7e308]),
                          st.floats(min_value=5e-324, max_value=1.7e308)))
    @example(L=1, runs=[(1, 1)], dtype=np.int8, offset=0.0, spacing=1.0, sse=0.0, rate=1.0)
    @example(L=20, runs=[(20, 30)], dtype=np.uint8, offset=-2.5, spacing=1e-300, sse=1e300,
             rate=5e-324)
    @settings(max_examples=150, deadline=None)
    def test_discrete_round_trip_bit_for_bit(self, L, runs, dtype, offset, spacing, sse, rate):
        # n = 1 and a single run among the traces; drawn runs of equal counts
        # side by side are one run in the file
        counts, lengths = np.array(runs).T
        values = np.repeat(counts % (L + 1), lengths).astype(dtype)
        trace = DiscreteTrace(values=values,
                              ladder=LevelLadder(L=L, offset=offset, spacing=spacing, sse=sse))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "disc.csv"
            cio.write_discrete(trace, rate, path)
            text = path.read_text()
            back, back_rate = cio.read_discrete(path)
        assert text == reference_discrete_csv(trace)
        assert back.values.tobytes() == values.astype(np.int64).tobytes()
        assert back.ladder.L == L
        assert (np.array([back.ladder.offset, back.ladder.spacing, back.ladder.sse]).tobytes()
                == np.array([offset, spacing, sse]).tobytes())
        assert back_rate == rate

    def test_discrete_round_trip(self, tmp_path):
        trace = DiscreteTrace(values=np.array([0, 1, 2, 1, 0]),
                              ladder=LevelLadder(L=2, offset=0.1, spacing=0.9))
        path = tmp_path / "disc.csv"
        cio.write_discrete(trace, 50.0, path)
        back, rate = cio.read_discrete(path)
        np.testing.assert_array_equal(back.values, trace.values)
        assert rate == 50.0
        assert back.ladder.offset == 0.1


def test_import_leaves_out_scipy_stats_and_signal():
    # both cost most of a fresh import; scipy.signal loads when Bessel taps
    # are first built
    code = ("import sys, coopchan, coopchan.cli; "
            "print(sorted({'scipy.stats', 'scipy.signal'} & set(sys.modules)))")
    src = str(Path(cio.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestCli:
    def test_simulate_writes_artifacts(self, runner, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(main, [
            "simulate", "--theta", "0.99,0.99,0.99,0.99", "--n", "400",
            "--rate", "1000", "--seed", "7", "--kernel", "bspline2",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "recording.csv").exists()
        assert (out / "recording.meta.json").exists()
        snapshot = json.loads((out / "run_config.json").read_text())
        assert snapshot["command"] == "simulate"
        assert snapshot["seed"] == 7

    def test_simulate_deterministic_bytes(self, runner, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "simulate", "--theta", "0.99,0.99,0.99,0.99", "--n", "500",
                "--seed", "11", "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outs.append(out)
        assert read_bytes(outs[0] / "recording.csv") == read_bytes(outs[1] / "recording.csv")
        assert read_bytes(outs[0] / "recording.meta.json") == read_bytes(outs[1] / "recording.meta.json")

    def test_pipeline_end_to_end(self, runner, tmp_path):
        sim = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", "--theta", "0.998,0.998,0.998,0.998", "--n", "4000",
            "--rate", "1000", "--kernel", "bspline2", "--sigma", "0.1",
            "--seed", "3", "--out", str(sim),
        ])
        assert result.exit_code == 0, result.output
        out = tmp_path / "pipe"
        result = runner.invoke(main, [
            "pipeline", "--input", str(sim / "recording.csv"),
            "--out", str(out), "--plots",
        ])
        assert result.exit_code == 0, result.output
        for name in ("idealisation.csv", "levels_histogram.csv", "discrete.csv",
                     "report.json", "trace.svg", "levels.svg", "run_config.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] in ("zero", "positive", "negative", "indeterminate")
        assert "theta_hat" in report and "metrics" in report
        assert report["metrics"]["selected_L"] >= 1

    def test_pipeline_deterministic_bytes(self, runner, tmp_path):
        sim = tmp_path / "sim"
        runner.invoke(main, [
            "simulate", "--theta", "0.998,0.998,0.998,0.998", "--n", "3000",
            "--rate", "1000", "--kernel", "bspline2", "--seed", "5", "--out", str(sim),
        ])
        hashes = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "pipeline", "--input", str(sim / "recording.csv"),
                "--L", "2", "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            blob = b"".join(read_bytes(out / f)
                            for f in ("idealisation.csv", "discrete.csv", "report.json"))
            hashes.append(blob)
        assert hashes[0] == hashes[1]

    def test_l_sweep(self, runner, tmp_path):
        sim = tmp_path / "sim"
        runner.invoke(main, [
            "simulate", "--theta", "0.998,0.998,0.998,0.998", "--n", "3000",
            "--rate", "1000", "--kernel", "bspline2", "--seed", "5", "--out", str(sim),
        ])
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "pipeline", "--input", str(sim / "recording.csv"),
            "--L-sweep", "2:4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for L in (2, 3, 4):
            assert (out / f"report_L{L}.json").exists()

    def test_markov_and_dwell_commands(self, runner, tmp_path):
        from coopchan.model import simulate_vnd

        theta = ParamVector.from_flat([0.9, 0.9, 0.9, 0.9])
        trace = DiscreteTrace(values=simulate_vnd(theta, 20_000, seed=2).sums,
                              ladder=LevelLadder(L=2, offset=0.0, spacing=1.0))
        pipe = tmp_path / "pipe"
        pipe.mkdir()
        cio.write_discrete(trace, 1000.0, pipe / "discrete.csv")
        out = tmp_path / "diag"
        result = runner.invoke(main, [
            "markov-test", "--input", str(pipe / "discrete.csv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "markov_test.json").read_text())
        assert 0.0 <= payload["p_value"] <= 1.0
        result = runner.invoke(main, [
            "dwell", "--input", str(pipe / "discrete.csv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "dwell.json").read_text())
        assert summary  # at least one state analysed
        for state, info in summary.items():
            if info["n_dwells"]:
                assert info["rate"] == pytest.approx(1.0 / info["mean_dwell_s"])

    def test_dwell_state_without_visits_is_recorded(self, runner, tmp_path):
        trace = DiscreteTrace(values=np.array([0, 1, 1, 0, 1, 0]),
                              ladder=LevelLadder(L=3, offset=0.0, spacing=1.0))
        pipe = tmp_path / "p"
        pipe.mkdir()
        cio.write_discrete(trace, 10.0, pipe / "discrete.csv")
        out = tmp_path / "d"
        result = runner.invoke(main, [
            "dwell", "--input", str(pipe / "discrete.csv"), "--state", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "dwell.json").read_text())
        assert summary["3"]["n_dwells"] == 0
        assert summary["3"]["rate"] is None

    def test_dwell_state_above_L_exit_code(self, runner, tmp_path):
        # a state the trace's ladder cannot hold is a value the stage rejects
        src = self._staged_inputs(tmp_path)["dwell"]
        result = runner.invoke(main, ["dwell", "--input", str(src), "--state", "3",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 4
        assert "state 3 outside 0..2" in result.output

    @pytest.mark.parametrize("reps", ["0", "-1"])
    @pytest.mark.parametrize("study", ["fdr-check", "fig-errors-zero"])
    def test_reproduce_without_repetitions_exit_code(self, runner, tmp_path, study, reps):
        out = tmp_path / "study"
        result = runner.invoke(main, ["reproduce", study, "--reps", reps, "--out", str(out)])
        assert result.exit_code == 2
        assert "--reps" in result.output
        assert not (out / f"{study}.json").exists()
        assert not (out / f"{study}.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_reproduce_without_workers_exit_code(self, runner, tmp_path, threads):
        out = tmp_path / "study"
        result = runner.invoke(main, ["reproduce", "fdr-check", "--reps", "1",
                                      "--threads", threads, "--out", str(out)])
        assert result.exit_code == 2
        assert "--threads" in result.output
        assert not (out / "fdr-check.json").exists()

    @pytest.mark.parametrize("factor", ["-2", "0", "nan", "inf", "3.0"])
    def test_bad_gap_factor_exit_code(self, runner, tmp_path, factor):
        # the channel count comes from the ladder fit, which has no gap
        # factor: any value, as a flag or a config key, is invalid
        # configuration on both commands that choose L, and no stage runs
        sidecar_recording(tmp_path / "rec.csv")
        inputs = {"pipeline": tmp_path / "rec.csv",
                  "discretise": self._staged_inputs(tmp_path)["discretise"]}
        cfg = tmp_path / "cfg.json"
        cio.dump_json({"gap_factor": float(factor)}, cfg)
        for command, path in inputs.items():
            args = [command, "--input", str(path)]
            done = runner.invoke(main, [*args, "--out", str(tmp_path / command)])
            assert done.exit_code == 0, done.output
            for extra, message in ((["--gap-factor", factor], "--gap-factor"),
                                   (["--config", str(cfg)], "gap_factor")):
                out = tmp_path / f"{command}-{extra[0]}"
                result = runner.invoke(main, [*args, *extra, "--out", str(out)])
                assert result.exit_code == 2, (command, extra)
                assert message in result.output
                assert not out.exists()

    def test_removed_branch_option_exit_code(self, runner, tmp_path):
        # the middle row of an even L is fitted on the plus branch alone, so
        # --branch, or a branch key in a config file, is invalid configuration
        src = self._staged_inputs(tmp_path)["infer"]
        done = runner.invoke(main, ["infer", "--input", str(src), "--out", str(tmp_path / "ok")])
        assert done.exit_code == 0, done.output
        cfg = tmp_path / "cfg.json"
        cio.dump_json({"branch": "plus"}, cfg)
        for extra, message in ((["--branch", "plus"], "--branch"),
                               (["--config", str(cfg)], "branch")):
            out = tmp_path / extra[0]
            result = runner.invoke(main, ["infer", "--input", str(src), *extra, "--out", str(out)])
            assert result.exit_code == 2, extra
            assert message in result.output
            assert not out.exists()

    @pytest.mark.parametrize("edit", ["theta", "truncate", "step_breaks"])
    def test_bad_sidecar_truth_exit_code(self, runner, tmp_path, edit):
        # an impossible truth theta, a CSV cut short of the sidecar's
        # n_samples, or truth steps that run past the CSV's 300 samples are
        # unreadable input: no stage runs
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        if edit in ("theta", "step_breaks"):
            meta = cio.load_json(cio.meta_path(path))
            if edit == "theta":
                meta["truth"]["theta"]["lam"][0] = 1.7
            else:
                assert meta["truth"]["step_breaks"][-1] == 0.3
                meta["truth"]["step_breaks"][-1] = 0.4
            cio.dump_json(meta, cio.meta_path(path))
        else:
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:201]))
        out = tmp_path / "out"
        result = runner.invoke(main, ["pipeline", "--input", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert "cannot read" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("command", [
        ["simulate", "--theta", "0.9,0.9"],
        ["reproduce", "fdr-check", "--reps", "1"],
    ])
    def test_negative_seed_exit_code(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, [*command, "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
        assert not out.exists()

    def test_empty_l_sweep_exit_code(self, runner, tmp_path):
        rec = synthesize_recording(ParamVector(1, [0.99], [0.99]), 500, 1000.0,
                                   kernel="bspline2", noise=NoiseSpec("gaussian", sigma=0.05),
                                   seed=3)
        cio.write_recording(rec, tmp_path / "rec.csv")
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "pipeline", "--input", str(tmp_path / "rec.csv"), "--L-sweep", "3:2",
            "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "empty range" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    def test_l_with_l_sweep_exit_code(self, runner, tmp_path):
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["pipeline", "--input", str(path), "--L", "3",
                                      "--L-sweep", "1:2", "--out", str(out)])
        assert result.exit_code == 2
        assert "--L and --L-sweep conflict" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    def test_invalid_config_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--theta", "0.5,0.5,0.5", "--out", str(tmp_path),
        ])
        assert result.exit_code == 2
        result = runner.invoke(main, ["simulate", "--out", str(tmp_path)])
        assert result.exit_code == 2
        # an empty entry is unparsable, not dropped: "0.9,,0.9" is not one channel
        result = runner.invoke(main, ["simulate", "--theta", "0.9,,0.9", "--n", "100",
                                      "--out", str(tmp_path / "empty")])
        assert result.exit_code == 2
        assert "cannot parse --theta" in result.output
        assert not (tmp_path / "empty" / "recording.csv").exists()

    def test_missing_input_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "pipeline", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
        ])
        assert result.exit_code == 3

    def test_failed_run_keeps_its_snapshot(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "infer", "--input", str(tmp_path / "nope.csv"), "--tolerance", "0.01",
            "--out", str(out),
        ])
        assert result.exit_code == 3
        snapshot = json.loads((out / "run_config.json").read_text())
        assert snapshot == {"command": "infer", "input_path": str(tmp_path / "nope.csv"),
                            "tolerance": 0.01, "out": str(out)}

    @pytest.mark.parametrize("command", ["pipeline", "idealise"])
    def test_sidecar_without_kernel_exit_code(self, runner, tmp_path, command):
        src = tmp_path / "rec.csv"
        src.write_text("".join(f"{k / 100:.9f},{k % 5 * 0.1!r}\n" for k in range(1, 200)))
        cio.dump_json({"sample_rate": 100.0}, cio.meta_path(src))
        result = runner.invoke(main, [command, "--input", str(src), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "kernel" in result.output

    def test_header_only_input_exit_code(self, runner, tmp_path):
        src = tmp_path / "header.csv"
        src.write_text("time,current\n")
        result = runner.invoke(main, [
            "pipeline", "--input", str(src), "--rate", "1000", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "no samples" in result.output

    @staticmethod
    def _staged_inputs(tmp_path):
        theta = ParamVector.from_flat([0.9, 0.9, 0.9, 0.9])
        trace = DiscreteTrace(values=simulate_vnd(theta, 2000, seed=4).sums,
                              ladder=LevelLadder(L=2, offset=0.0, spacing=1.0))
        cio.write_discrete(trace, 1000.0, tmp_path / "discrete.csv")
        ideal = Idealisation(fit=StepFunction([0.0, 0.5, 1.25, 2.0], [0.0, 1.0, 0.5]),
                             alpha=0.1, n_switches=2, feasible=True, sample_rate=1000.0)
        cio.write_idealisation(ideal, tmp_path / "idealisation.csv")
        return {"discretise": tmp_path / "idealisation.csv",
                "infer": tmp_path / "discrete.csv",
                "markov-test": tmp_path / "discrete.csv",
                "dwell": tmp_path / "discrete.csv"}

    def _with_input(self, tmp_path, command):
        """``command`` with an --input that its command can read."""
        if command[0] in ("pipeline", "idealise"):
            sidecar_recording(tmp_path / "rec.csv")
            return [*command, "--input", str(tmp_path / "rec.csv")]
        if command[0] in ("discretise", "dwell", "infer"):
            return [*command, "--input", str(self._staged_inputs(tmp_path)[command[0]])]
        return command

    def test_blank_line_in_staged_input_is_skipped(self, runner, tmp_path):
        # the staged readers skip blank lines as read_recording does, so a
        # blank line after row 4 reads to the same report
        src = self._staged_inputs(tmp_path)["infer"]
        gap = tmp_path / "gap" / "discrete.csv"
        gap.parent.mkdir()
        lines = src.read_text().splitlines(keepends=True)
        gap.write_text("".join(lines[:5] + ["\n"] + lines[5:]))
        gap.with_suffix(".meta.json").write_bytes(src.with_suffix(".meta.json").read_bytes())
        for path, out in ((src, tmp_path / "a"), (gap, tmp_path / "b")):
            result = runner.invoke(main, ["infer", "--input", str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert read_bytes(tmp_path / "a" / "report.json") == \
            read_bytes(tmp_path / "b" / "report.json")

    @pytest.mark.parametrize("command", ["discretise", "infer", "markov-test", "dwell"])
    def test_one_column_row_exit_code(self, runner, tmp_path, command):
        src = self._staged_inputs(tmp_path)[command]
        lines = src.read_text().splitlines(keepends=True)
        lines[2] = lines[2].split(",")[0] + "\n"
        src.write_text("".join(lines))
        result = runner.invoke(main, [command, "--input", str(src), "--out",
                                      str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "cannot read" in result.output

    @pytest.mark.parametrize("header", [True, False])
    def test_per_sample_discrete_input_infers_as_its_runs(self, runner, tmp_path, header):
        # a per-sample trace, with or without its header (a user's, or a
        # discrete.csv written before runs), reads to the values of the run
        # file of the same trace, and infer writes the same report on both
        runs = self._staged_inputs(tmp_path)["infer"]
        assert runs.read_text().startswith("first_sample,last_sample,open_channels\n")
        trace, rate = cio.read_discrete(runs)
        samples = tmp_path / "samples" / "discrete.csv"
        samples.parent.mkdir()
        samples.write_text(per_sample_discrete_csv(trace, rate, header))
        cio.meta_path(samples).write_bytes(cio.meta_path(runs).read_bytes())
        back, back_rate = cio.read_discrete(samples)
        assert back.values.tobytes() == trace.values.tobytes() and back.ladder == trace.ladder
        assert back_rate == rate
        for path, out in ((runs, tmp_path / "a"), (samples, tmp_path / "b")):
            result = runner.invoke(main, ["infer", "--input", str(path), "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert read_bytes(tmp_path / "a" / "report.json") == \
            read_bytes(tmp_path / "b" / "report.json")

    @pytest.mark.parametrize("rows", [
        "2,3,0\n4,9,1\n", "0,3,0\n4,9,1\n", "1,3,0\n5,9,1\n", "1,3,0\n3,9,1\n",
        "1,3,0\n4,3,1\n4,9,0\n", "4,9,1\n1,3,0\n",
    ], ids=["from-2", "from-0", "gap", "overlap", "reversed", "out-of-order"])
    def test_runs_that_do_not_tile_exit_code(self, runner, tmp_path, rows):
        # run rows must tile samples 1..n in order; "reversed" ends a run
        # before it starts but still chains its neighbours
        src = self._staged_inputs(tmp_path)["infer"]
        src.write_text("first_sample,last_sample,open_channels\n" + rows)
        out = tmp_path / "out"
        result = runner.invoke(main, ["infer", "--input", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert "do not tile samples 1..n" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("command, edit", [
        ("idealise", [1, 2]), ("idealise", "x"), ("idealise", {"kernel": None}),
        ("idealise", {"truth": None}), ("discretise", [1]), ("infer", {"ladder": None}),
    ], ids=["recording-list", "recording-string", "null-kernel", "null-truth",
            "idealisation-list", "null-ladder"])
    def test_sidecar_of_the_wrong_shape_exit_code(self, runner, tmp_path, command, edit):
        # a list or string in place of the sidecar object, or null in place
        # of one of its objects, is unreadable input, not a traceback
        if command == "idealise":
            src = tmp_path / "rec.csv"
            sidecar_recording(src)
        else:
            src = self._staged_inputs(tmp_path)[command]
        meta = cio.load_json(cio.meta_path(src))
        cio.dump_json({**meta, **edit} if isinstance(edit, dict) else edit, cio.meta_path(src))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--input", str(src), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "cannot read" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("L, code", [(2.9, 2), (2.5, 2), (float("inf"), 2), (2, 0), (2.0, 0)])
    def test_sidecar_L_must_be_whole(self, runner, tmp_path, L, code):
        # a ladder of 2.9 channels used to be read as 2 without a word, and
        # an infinite one ended in OverflowError
        src = self._staged_inputs(tmp_path)["infer"]
        meta = cio.load_json(cio.meta_path(src))
        meta["ladder"]["L"] = L
        cio.dump_json(meta, cio.meta_path(src))
        result = runner.invoke(main, ["infer", "--input", str(src), "--out", str(tmp_path / "out")])
        assert result.exit_code == code, result.output
        if code:
            assert f"L must be an integer, got {L!r}" in result.output

    def test_runs_beyond_memory_exit_code(self, runner, tmp_path, monkeypatch):
        # a run file may claim any number of samples; expanding more than
        # memory holds is unreadable input.  The reader is replaced, since a
        # real allocation of that size is not something to try in a test
        src = self._staged_inputs(tmp_path)["infer"]

        def too_large(path):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(cio, "read_discrete", too_large)
        result = runner.invoke(main, ["infer", "--input", str(src), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "cannot read" in result.output and "Unable to allocate" in result.output

    def test_stage_failure_keeps_partial_artifacts(self, runner, tmp_path):
        # a one-sample recording idealises fine but cannot be fitted; the
        # pipeline exits 4 leaving the artifacts produced up to that point
        src = tmp_path / "one.csv"
        src.write_text("1.000000000,0.5\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "pipeline", "--input", str(src), "--rate", "1", "--out", str(out),
        ])
        assert result.exit_code == 4
        assert (out / "idealisation.csv").exists()
        assert (out / "run_config.json").exists()
        assert not (out / "report.json").exists()

    def test_late_stage_failure_keeps_plots(self, runner, tmp_path):
        # the plots need only the idealisation, so they are drawn with it and
        # survive a failure of the fit stage: a one-sample recording has no
        # transition to count
        src = tmp_path / "one.csv"
        src.write_text("1.000000000,0.5\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["pipeline", "--input", str(src), "--rate", "1",
                                      "--plots", "--out", str(out)])
        assert result.exit_code == 4
        assert sorted(p.name for p in out.iterdir()) == [
            "discrete.csv", "discrete.meta.json", "idealisation.csv", "idealisation.meta.json",
            "levels.svg", "levels_histogram.csv", "run_config.json", "trace.svg"]

    def test_constant_recording_discretises_like_the_pipeline(self, runner, tmp_path):
        # a single idealised level: discretise takes the pipeline's fallback
        # ladder and writes the same trace
        src = tmp_path / "flat.csv"
        src.write_text("".join(f"{k / 1000:.9f},0.5\n" for k in range(1, 501)))
        for command in ("idealise", "pipeline"):
            result = runner.invoke(main, [command, "--input", str(src), "--rate", "1000",
                                          "--out", str(tmp_path / command)])
            assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "discretise", "--input", str(tmp_path / "idealise" / "idealisation.csv"),
            "--out", str(tmp_path / "discretise"),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("L: 1 ")
        assert (read_bytes(tmp_path / "discretise" / "discrete.csv")
                == read_bytes(tmp_path / "pipeline" / "discrete.csv"))

    def test_pipeline_on_headerless_csv_with_rate(self, runner, tmp_path):
        rng = np.random.default_rng(6)
        y = np.repeat([0.0, 1.0], 1000) + 0.1 * rng.standard_normal(2000)
        src = tmp_path / "lab.csv"
        src.write_text("\n".join(f"{(k + 1) / 1000:.9f},{float(v)!r}" for k, v in enumerate(y)) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "pipeline", "--input", str(src), "--rate", "1000", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["selected_L"] == 1

    def test_reproduce_with_worker_processes(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, threads in ((out1, "1"), (out2, "2")):
            result = runner.invoke(main, [
                "reproduce", "fdr-check", "--reps", "4", "--seed", "3",
                "--threads", threads, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
        assert (out1 / "fdr-check.csv").read_text() == (out2 / "fdr-check.csv").read_text()

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "0.99,0.99,0.99,0.99", "n": 300, "seed": 1}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--n", "200", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        snapshot = json.loads((out / "run_config.json").read_text())
        assert snapshot["n"] == 200  # flag beats config
        assert snapshot["seed"] == 1  # config fills the gap
        n_rows = len((out / "recording.csv").read_text().strip().splitlines()) - 1
        assert n_rows == 200

    def test_config_null_means_unset(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "0.99,0.99", "n": None}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len((out / "recording.csv").read_text().splitlines()) - 1 == 1200
        assert "n" not in json.loads((out / "run_config.json").read_text())

    @pytest.mark.parametrize("command, cfg, flag", [
        (["simulate"], {"theta": "0.9,0.9", "n": [5]}, "--n"),
        (["reproduce", "fdr-check"], {"reps": "many"}, "--reps"),
        (["simulate"], {"theta": "0.9,0.9", "kernel_kind": "boxcar"}, "--kernel"),
    ], ids=["list", "word", "choice"])
    def test_config_value_is_parsed_as_its_flag(self, runner, tmp_path, command, cfg, flag):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, [*command, "--config", str(tmp_path / "cfg.json"),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert flag in result.output
        assert not out.exists()

    @pytest.mark.parametrize("plots, svg", [("no", False), ("yes", True)])
    def test_config_plots_value_is_a_boolean(self, runner, tmp_path, plots, svg):
        sidecar_recording(tmp_path / "rec.csv")
        (tmp_path / "cfg.json").write_text(json.dumps({"want_plots": plots}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["idealise", "--input", str(tmp_path / "rec.csv"),
                                      "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "idealisation.svg").exists() == svg

    def test_config_input_path_satisfies_input(self, runner, tmp_path):
        sidecar_recording(tmp_path / "rec.csv")
        (tmp_path / "cfg.json").write_text(json.dumps({"input_path": str(tmp_path / "rec.csv")}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["idealise", "--config", str(tmp_path / "cfg.json"),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "idealisation.csv").exists()

    @pytest.mark.parametrize("stage", ["idealise", "discretise", "infer"])
    def test_pipeline_options_read_as_the_stage_options(self, stage):
        # an option pipeline shares with a stage command has the stage's
        # --help line: its text, range and default
        def help_lines(name):
            with click.Context(main, show_default=True) as parent:
                ctx = click.Context(main.commands[name], parent=parent, info_name=name)
                return {p.name: p.get_help_record(ctx) for p in main.commands[name].params
                        if p.name not in ("config", "out", "input_path")}
        pipeline = help_lines("pipeline")
        for name, line in help_lines(stage).items():
            assert pipeline[name] == line, name
            assert line[1], name

    def test_unknown_config_key_exit_code(self, runner, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"theta": "0.9,0.9", "samples": 300}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "cfg.json"),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "names no option of simulate: samples" in result.output
        assert not out.exists()

    def test_snapshot_as_config_reruns_byte_identically(self, runner, tmp_path):
        # each run_config.json, passed back as --config, rewrites every file
        # of its directory with the same bytes, the snapshot included
        sim, pipe, study = tmp_path / "sim", tmp_path / "pipe", tmp_path / "study"
        commands = [
            ["simulate", "--theta", "0.998,0.996,0.996,0.998", "--n", "3000", "--rate", "1000",
             "--kernel", "bspline2", "--sigma", "0.1", "--seed", "21", "--out", str(sim)],
            ["pipeline", "--input", str(sim / "recording.csv"), "--L", "2", "--alpha", "0.2",
             "--plots", "--out", str(pipe)],
            ["reproduce", "fdr-check", "--reps", "2", "--seed", "3", "--out", str(study)],
        ]
        for command in commands:
            result = runner.invoke(main, command)
            assert result.exit_code == 0, result.output
        for command, out in zip(commands, (sim, pipe, study)):
            first = {p.name: p.read_bytes() for p in out.iterdir()}
            head = command[:2] if command[0] == "reproduce" else command[:1]
            result = runner.invoke(main, [*head, "--config", str(out / "run_config.json")])
            assert result.exit_code == 0, result.output
            assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    @pytest.mark.parametrize("command, flag", [
        (["pipeline", "--L", "0"], "--L"),
        (["pipeline", "--max-L", "0"], "--max-L"),
        (["pipeline", "--L-sweep", "0:1"], "--L-sweep"),
        (["discretise", "--L", "0"], "--L"),
        (["discretise", "--max-L", "0"], "--max-L"),
        (["simulate", "--theta", "0.9,0.9", "--n", "0"], "--n"),
        (["simulate", "--theta", "0.9,0.9", "--bessel-order", "0"], "--bessel-order"),
        (["dwell", "--state", "-1"], "--state"),
        (["idealise", "--alpha", "0"], "--alpha"),
        (["idealise", "--alpha", "1.5"], "--alpha"),
        (["idealise", "--alpha", "nan"], "--alpha"),
        (["pipeline", "--alpha", "1"], "--alpha"),
        (["pipeline", "--alpha", "nan"], "--alpha"),
        (["infer", "--tolerance", "0"], "--tolerance"),
        (["infer", "--tolerance", "nan"], "--tolerance"),
        (["pipeline", "--tolerance", "-1"], "--tolerance"),
        (["pipeline", "--tolerance", "nan"], "--tolerance"),
    ], ids=["pipeline-L", "pipeline-max-L", "pipeline-L-sweep", "discretise-L",
            "discretise-max-L", "simulate-n", "simulate-bessel-order", "dwell-state",
            "idealise-alpha-0", "idealise-alpha-1.5", "idealise-alpha-nan", "pipeline-alpha-1",
            "pipeline-alpha-nan", "infer-tolerance-0", "infer-tolerance-nan",
            "pipeline-tolerance-neg", "pipeline-tolerance-nan"])
    def test_integer_below_its_floor_exit_code(self, runner, tmp_path, command, flag):
        # an option value outside the range its type declares, integer
        # floors and the (0, 1) of --alpha and the positive --tolerance
        # alike, NaN included, exits 2 while click parses the options, so
        # nothing is written; the start of --L-sweep is checked by the
        # command, after the snapshot and before any stage
        out = tmp_path / "out"
        result = runner.invoke(main, [*self._with_input(tmp_path, command), "--out", str(out)])
        assert result.exit_code == 2
        if flag == "--L-sweep":
            assert "--L-sweep '0:1' starts below 1" in result.output
            assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]
        else:
            assert f"Invalid value for '{flag}'" in result.output
            assert not out.exists()

    @pytest.mark.parametrize("command, cfg, flag", [
        (["idealise"], {"alpha": 1.5}, "--alpha"),
        (["idealise"], {"alpha": float("nan")}, "--alpha"),
        (["pipeline"], {"channels": 0}, "--L"),
        (["pipeline"], {"tolerance": 0}, "--tolerance"),
        (["discretise"], {"max_l": 0}, "--max-L"),
        (["infer"], {"tolerance": float("nan")}, "--tolerance"),
        (["dwell"], {"state": -1}, "--state"),
        (["simulate", "--theta", "0.9,0.9"], {"n": 0}, "--n"),
        (["simulate", "--theta", "0.9,0.9"], {"bessel_order": 0}, "--bessel-order"),
        (["simulate", "--theta", "0.9,0.9"], {"rate": float("inf")}, "--rate"),
        (["simulate", "--theta", "0.9,0.9"], {"spacing": -1.0}, "--spacing"),
        (["simulate", "--theta", "0.9,0.9"], {"offset": float("nan")}, "--offset"),
        (["simulate", "--theta", "0.9,0.9"], {"seed": -1}, "--seed"),
        (["reproduce", "fdr-check"], {"reps": 0}, "--reps"),
        (["reproduce", "fdr-check"], {"threads": 0}, "--threads"),
    ], ids=["idealise-alpha", "idealise-alpha-nan", "pipeline-L", "pipeline-tolerance",
            "discretise-max-L", "infer-tolerance-nan", "dwell-state", "simulate-n",
            "simulate-bessel-order", "simulate-rate-inf", "simulate-spacing",
            "simulate-offset-nan", "simulate-seed", "reproduce-reps", "reproduce-threads"])
    def test_config_value_outside_its_range_exit_code(self, runner, tmp_path, command, cfg,
                                                      flag):
        # a config value reaches its option's type through the default map,
        # so it is checked by the same code as the flag
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, [*self._with_input(tmp_path, command),
                                      "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("config", ["missing.json", "."], ids=["missing", "directory"])
    def test_config_that_cannot_be_read_exit_code(self, runner, tmp_path, config):
        out = tmp_path / "out"
        result = runner.invoke(main, ["infer", "--input", str(tmp_path / "x.csv"),
                                      "--config", str(tmp_path / config), "--out", str(out)])
        assert result.exit_code == 2
        assert "cannot read config file" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_idealisation_level_exit_code(self, runner, tmp_path, level):
        # an unreadable input, not a failure of the discretisation
        src = self._staged_inputs(tmp_path)["discretise"]
        lines = src.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{level}\n"
        src.write_text("".join(lines))
        out = tmp_path / "out"
        result = runner.invoke(main, ["discretise", "--input", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert "cannot read" in result.output
        assert "levels must be finite" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("rate", [-1000.0, 0.0, 2000.0, float("nan"), float("inf")])
    def test_bad_sidecar_sample_rate_exit_code(self, runner, tmp_path, rate):
        # the sidecar's rate must be its kernel's (1 kHz here), checked before
        # the truth is rebuilt from it and before any stage runs
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        meta = cio.load_json(cio.meta_path(path))
        meta["sample_rate"] = rate
        cio.dump_json(meta, cio.meta_path(path))
        out = tmp_path / "out"
        result = runner.invoke(main, ["pipeline", "--input", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert "sidecar sample_rate" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("rate", ["inf", "nan", "0", "-5"])
    @pytest.mark.parametrize("command", ["pipeline", "idealise"])
    def test_bad_rate_option_exit_code(self, runner, tmp_path, command, rate):
        # --rate for a recording without a sidecar must be finite and
        # positive; inf used to run the idealisation and then exit 4
        src = tmp_path / "rec.csv"
        src.write_text("0.001,0.1\n0.002,0.2\n0.003,1.1\n0.004,1.0\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--input", str(src), "--rate", rate,
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "sample_rate must be finite and positive" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("rate", ["inf", "nan", "0", "-5"])
    def test_simulate_bad_rate_exit_code(self, runner, tmp_path, rate):
        # outside the range of the option's type: nothing is written
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--theta", "0.9,0.9", "--n", "10",
                                      "--rate", rate, "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--rate'" in result.output
        assert "is not in the range 0.0<x<inf" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--bessel-cutoff", "0"], "--bessel-cutoff"),
        (["--bessel-cutoff", "500"], "--bessel-cutoff"),
        (["--bessel-cutoff", "nan"], "--bessel-cutoff"),
        (["--rate", "10000", "--bessel-order", "40"], "--bessel-order"),
        (["--sigma", "-1"], "--sigma"),
        (["--sigma", "nan"], "--sigma"),
        (["--noise", "mixture", "--sigma", "0"], "--sigma"),
        (["--noise", "cauchy", "--cauchy-scale", "0"], "--cauchy-scale"),
        (["--mixture-weight", "2"], "--mixture-weight"),
        (["--spacing", "0"], "--spacing"),
        (["--spacing", "nan"], "--spacing"),
        (["--offset", "nan"], "--offset"),
        (["--offset", "inf"], "--offset"),
    ])
    def test_simulate_bad_option_value_exit_code(self, runner, tmp_path, args, flag):
        # a value the kernel, the noise or the ladder would reject is invalid
        # configuration, found before the chain is simulated: by click, with
        # nothing written, for the ranges --spacing and --offset declare, and
        # by the kernel's or the noise's constructor after the snapshot
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--theta", "0.9,0.9", "--n", "10",
                                      "--rate", "1000", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        if flag in ("--spacing", "--offset"):
            assert f"Invalid value for '{flag}'" in result.output
            assert not out.exists()
        else:
            assert flag in result.output
            assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("args", [
        ["--noise", "cauchy", "--sigma", "-1"],
        ["--noise", "none", "--sigma", "nan"],
        ["--cauchy-scale", "0"],
        ["--kernel", "identity", "--bessel-cutoff", "0"],
    ])
    def test_simulate_accepts_values_it_does_not_use(self, runner, tmp_path, args):
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--theta", "0.9,0.9", "--n", "10",
                                      "--rate", "1000", *args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "recording.csv").exists()

    @pytest.mark.parametrize("command", ["pipeline", "idealise"])
    def test_sidecar_with_non_finite_taps_exit_code(self, runner, tmp_path, command):
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        meta = cio.load_json(cio.meta_path(path))
        meta["kernel"]["taps"] = [float("nan"), 0.5, 0.5]
        cio.dump_json(meta, cio.meta_path(path))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--input", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert "taps must be finite" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("rate", ["5000", "inf", "nan"])
    @pytest.mark.parametrize("command", ["pipeline", "idealise"])
    def test_rate_option_beside_a_sidecar_exit_code(self, runner, tmp_path, command, rate):
        # the sidecar's rate is 1 kHz; any other --rate is unreadable input
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--input", str(path), "--rate", rate,
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert f"sample_rate {float(rate)!r} was given" in result.output
        assert "sidecar's sample_rate is 1000.0" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    @pytest.mark.parametrize("command", ["pipeline", "idealise"])
    def test_rate_option_equal_to_the_sidecar_is_accepted(self, runner, tmp_path, command):
        path = tmp_path / "rec.csv"
        sidecar_recording(path)
        outs = [tmp_path / "given", tmp_path / "unset"]
        for out, extra in zip(outs, (["--rate", "1000"], [])):
            result = runner.invoke(main, [command, "--input", str(path), *extra,
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
        artifacts = sorted(p.name for p in outs[1].iterdir() if p.name != "run_config.json")
        assert artifacts
        for name in artifacts:
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name), name

    @pytest.mark.parametrize("rate", [-10000.0, 0.0, float("nan"), float("inf"), None, "fast"])
    @pytest.mark.parametrize("command", ["discretise", "dwell", "infer"])
    def test_bad_staged_sidecar_sample_rate_exit_code(self, runner, tmp_path, command, rate):
        # an idealisation or discrete-trace sidecar's rate is checked on
        # reading, also by infer, which does not use it
        src = self._staged_inputs(tmp_path)[command]
        meta = cio.load_json(cio.meta_path(src))
        meta["sample_rate"] = rate
        cio.dump_json(meta, cio.meta_path(src))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--input", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert "sidecar sample_rate" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]

    def test_staged_commands_chain(self, runner, tmp_path):
        # idealise -> discretise -> infer as separate invocations agrees with
        # the one-shot pipeline on the same recording
        sim = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", "--theta", "0.998,0.996,0.996,0.998", "--n", "6000",
            "--rate", "1000", "--kernel", "bspline2", "--sigma", "0.1",
            "--seed", "21", "--out", str(sim),
        ])
        assert result.exit_code == 0, result.output
        step = tmp_path / "step"
        result = runner.invoke(main, [
            "idealise", "--input", str(sim / "recording.csv"), "--out", str(step),
        ])
        assert result.exit_code == 0, result.output
        disc = tmp_path / "disc"
        result = runner.invoke(main, [
            "discretise", "--input", str(step / "idealisation.csv"),
            "--L", "2", "--out", str(disc),
        ])
        assert result.exit_code == 0, result.output
        rep = tmp_path / "rep"
        result = runner.invoke(main, [
            "infer", "--input", str(disc / "discrete.csv"), "--out", str(rep),
        ])
        assert result.exit_code == 0, result.output
        staged = json.loads((rep / "report.json").read_text())

        pipe = tmp_path / "pipe"
        result = runner.invoke(main, [
            "pipeline", "--input", str(sim / "recording.csv"), "--L", "2",
            "--out", str(pipe),
        ])
        assert result.exit_code == 0, result.output
        oneshot = json.loads((pipe / "report.json").read_text())
        assert staged["verdict"] == oneshot["verdict"]
        np.testing.assert_allclose(staged["theta_hat"]["lam"],
                                   oneshot["theta_hat"]["lam"], atol=1e-9)

    def test_every_command_reruns_byte_identically(self, runner, tmp_path):
        # each command twice, in two directories, on relative paths so that
        # the snapshots agree too
        commands = [
            ["simulate", "--theta", "0.998,0.996,0.996,0.998", "--n", "3000", "--rate", "1000",
             "--kernel", "bspline2", "--seed", "1", "--out", "sim"],
            ["idealise", "--input", "sim/recording.csv", "--plots", "--out", "ideal"],
            ["discretise", "--input", "ideal/idealisation.csv", "--out", "disc"],
            ["infer", "--input", "disc/discrete.csv", "--out", "infer"],
            ["pipeline", "--input", "sim/recording.csv", "--L-sweep", "2:3", "--out", "sweep"],
            ["markov-test", "--input", "chain/discrete.csv", "--out", "markov"],
            ["dwell", "--input", "chain/discrete.csv", "--plots", "--out", "dwell"],
            ["reproduce", "fig-errors-neg", "--reps", "1", "--seed", "2", "--out", "errors"],
            ["reproduce", "fig-ratio-hist", "--reps", "1", "--seed", "2", "--out", "counts"],
            ["reproduce", "fdr-check", "--reps", "1", "--seed", "2", "--out", "fdr"],
        ]
        chain = DiscreteTrace(values=simulate_vnd(ParamVector.constant(2, 0.9, 0.9), 5000,
                                                  seed=2).sums,
                              ladder=LevelLadder(L=2, offset=0.0, spacing=1.0))
        runs = []
        for name in ("a", "b"):
            with runner.isolated_filesystem(temp_dir=tmp_path) as work:
                Path("chain").mkdir()
                cio.write_discrete(chain, 1000.0, Path("chain") / "discrete.csv")
                stdout = []
                for args in commands:
                    result = runner.invoke(main, args)
                    assert result.exit_code == 0, (args, result.output)
                    stdout.append(result.output)
                files = {str(p.relative_to(work)): p.read_bytes()
                         for p in Path(work).rglob("*") if p.is_file()}
            runs.append((stdout, files))
        assert runs[0] == runs[1]
        assert "infer/report.json" in runs[0][1] and "dwell/dwell_state1.svg" in runs[0][1]
        for study, out in (("fig-errors-neg", "errors"), ("fig-ratio-hist", "counts"),
                           ("fdr-check", "fdr")):
            snapshot = json.loads(runs[0][1][f"{out}/run_config.json"])
            assert snapshot["command"] == f"reproduce:{study}"
            assert "study" not in snapshot

    def test_reproduce_fig_errors_small(self, runner, tmp_path):
        out = tmp_path / "study"
        result = runner.invoke(main, [
            "reproduce", "fig-errors-zero", "--reps", "1", "--seed", "4",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = (out / "fig-errors-zero.csv").read_text().strip().splitlines()
        assert rows[0] == "noise,rep,l2_error,verdict"
        assert len(rows) == 1 + 3  # one repetition per noise kind
        summary = json.loads((out / "fig-errors-zero.json").read_text())
        assert set(summary["cells"]) == {"gaussian", "cauchy", "mixture"}

    def test_reproduce_fdr_small(self, runner, tmp_path):
        out = tmp_path / "study"
        result = runner.invoke(main, [
            "reproduce", "fdr-check", "--reps", "3", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "fdr-check.json").read_text())
        assert set(summary["alphas"]) == {"0.05", "0.1"}
        rows = (out / "fdr-check.csv").read_text().strip().splitlines()
        assert rows[0] == "alpha,rep,k_hat"
        assert len(rows) == 1 + 2 * 3
