"""Runs one workload in this process and prints the result as one JSON line.

Started by ``run.py``, which pins the thread pools and puts the checkout's
``src`` and this directory on ``PYTHONPATH``.  A run repeats passes over the
workload's fixed batch of operations.  Untraced runs report the end-to-end
metrics, at a reference machine speed that calibration slices measure
during the run.  Traced runs replay each operation with spans right after
its untraced call, measure allocation peaks in a pass of their own and
report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer
from workloads import TRACED_MODULES, WORKLOADS

PROGRAM_MODULES = ("coopchan", "coopchan.io", "coopchan.pipeline", "coopchan.studies")
SETUP_REPEATS = 3  # set-up time is the median of this many set-ups
FRESH_IMPORTS = 5  # import time is the median over this many fresh interpreters

# The machine's speed drifts by tens of percent over minutes, and
# interpreter-bound and numpy-bound work drift together.  So while an
# untraced run works, a timer interrupts it every CALIBRATION_PERIOD_S for a
# slice of fixed work of both kinds.  The slices sample the machine's speed
# evenly in time; their time is taken out of the measured times, which are
# then reported at the reference speed, where one slice takes
# CALIBRATION_REF_S (README.md).  A slice runs its work once untimed first, so
# that what the interrupted code left in the caches does not change its time.
CALIBRATION_PERIOD_S = 0.28  # slices take about 5% of the run
CALIBRATION_REF_S = 0.0072
CALIBRATION_DATA = np.random.default_rng(0).standard_normal(20_000)


def calibration_work() -> None:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    np.sort(CALIBRATION_DATA)
    np.sort(CALIBRATION_DATA)


class Calibration:
    """Calibration slices, run from a timer signal inside ``running()``."""

    def __init__(self):
        self.slices: list[float] = []
        self.stolen = 0.0  # seconds spent in slices, their untimed first runs included

    def _slice(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_work()
        t1 = time.perf_counter()
        calibration_work()
        t2 = time.perf_counter()
        self.slices.append(t2 - t1)
        self.stolen += t2 - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """``fn(*args)`` and the seconds it took, slices taken out."""
        stolen = self.stolen
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0 - (self.stolen - stolen)

    def slowdown(self) -> float:
        """The machine's mean slowness so far against the reference speed;
        1 when no slice ran, as in traced runs."""
        return statistics.fmean(self.slices) / CALIBRATION_REF_S if self.slices else 1.0


# calls whose time is reported per layer: metric name -> span names
CALL_METRICS = {
    "idealise.muscle_fit_s": ("idealise.muscle_fit",),
    "infer.mde_fit_s": ("infer.mde_fit",),
    "infer.empirical_transition_matrix_s": ("infer.empirical_transition_matrix",),
    "model.simulate_vnd_s": ("model.simulate_vnd",),
    "synth.synthesize_recording_s": ("synth.synthesize_recording",),
    "synth.make_kernel_s": ("synth.make_kernel",),
    "io.read_recording_s": ("io.read_recording",),
    "io.write_artifacts_s": ("io.write_idealisation", "io.write_histogram",
                             "io.write_discrete", "io.dump_json"),
    "io.write_recording_s": ("io.write_recording",),
    "discretise.select_L_s": ("discretise.select_L",),
    "discretise.equal_spacing_cluster_s": ("discretise.equal_spacing_cluster",),
    "discretise.discretise_trace_s": ("discretise.discretise_trace",),
    "diagnostics.markov_property_test_s": ("diagnostics.markov_property_test",),
    "diagnostics.dwell_times_s": ("diagnostics.dwell_times",),
}
COUNT_METRICS = ("idealise.samples", "idealise.segments", "infer.mde_fit_calls",
                 "infer.rows_fitted", "infer.branch_solves", "model.channel_steps",
                 "synth.samples", "io.bytes_read", "io.bytes_written")
PEAK_METRICS = {"idealise.muscle_fit_peak_mib": "idealise.muscle_fit",
                "io.read_recording_peak_mib": "io.read_recording"}


def fresh_import_seconds() -> float:
    code = (f"import time; t = time.perf_counter(); import {', '.join(PROGRAM_MODULES)}; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Passes over the workload's batch of operations until ``seconds`` are
    spent, with their checks and failure counts.  Outputs are checked on the
    first pass; later passes must reproduce them.  Given a tracer, each
    operation is replayed with spans right after its untraced call, so both
    see the same machine state."""

    def __init__(self, workload, inputs, calibration, tracer=None):
        self.workload = workload
        self.calibration = calibration
        self.inputs = inputs
        self.tracer = tracer
        self.keys = workload.batch()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.passes = 0
        self.op_seconds: dict = {}  # key -> seconds of each successful call
        self.first: dict = {}  # key -> replay key of its first successful call
        self.counts: dict = {}

    def run(self, seconds: float) -> None:
        """Whole passes until the next one would end past ``seconds``; at
        least one.  The next pass is expected to take as long as the last
        one's operations, since only the first pass runs the checks."""
        started = time.perf_counter()
        while True:
            busy = 0.0
            for key in self.keys:
                self.attempted += 1
                try:
                    out, op_seconds = self.calibration.timed(self.workload.op, self.inputs, key)
                except Exception:
                    self.failed += 1
                    traceback.print_exc()
                    continue
                busy += op_seconds
                self.op_seconds.setdefault(key, []).append(op_seconds)
                self.verify(key, out)
                # else the next operation's peak memory includes these outputs,
                # and peak_rss_mib would depend on the number of passes
                del out
                if self.tracer is not None:
                    self.replay(f"pass{self.passes}:{key}", key)
            self.passes += 1
            if time.perf_counter() - started + busy > seconds:
                return

    def verify(self, key, out) -> None:
        if key in self.first:
            self.same(key, out, "a repeated call")
            return
        self.first[key] = out.replay_key()
        try:
            self.workload.check(self.inputs, key, out)
        except AssertionError as err:
            self.correct = False
            print(f"check failed on {key}: {err}", file=sys.stderr)
        except Exception:
            # an output the checks cannot even read is not correct either
            self.correct = False
            traceback.print_exc()

    def same(self, key, out, what: str) -> None:
        if out.replay_key() != self.first[key]:
            self.correct = False
            print(f"{what} of {key} differs from the first call", file=sys.stderr)

    def replay(self, op_id: str, key) -> None:
        self.tracer.op = op_id
        with self.tracer.instrument(*TRACED_MODULES), self.tracer.span("bench.op"):
            out = self.workload.op(self.inputs, key)
        self.same(key, out, "the traced replay")
        for name, value in out.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def pass_seconds(self) -> float | None:
        """Mean time of one pass at the reference speed, or None when every
        operation failed."""
        if not self.op_seconds:
            return None
        busy = sum(sum(times) for times in self.op_seconds.values())
        return busy / self.passes / self.calibration.slowdown()

    def op_p50_seconds(self) -> float | None:
        """Median time of one call at the reference speed."""
        times = [t for calls in self.op_seconds.values() for t in calls]
        return statistics.median(times) / self.calibration.slowdown() if times else None


def memory_pass(runner: Runner) -> dict:
    """Allocation peaks of the calls in PEAK_METRICS in the first operation,
    under tracemalloc; skipped when the replay made none of those calls."""
    if not any(s.name in PEAK_METRICS.values() for s in runner.tracer.spans):
        return {name: 0.0 for name in PEAK_METRICS}
    tracer = Tracer(memory=True)
    key = runner.keys[0]
    tracer.op = f"memory:{key}"
    tracemalloc.start()
    try:
        with tracer.instrument(*TRACED_MODULES):
            runner.workload.op(runner.inputs, key)
    finally:
        tracemalloc.stop()
    return {name: tracer.peak(span) for name, span in PEAK_METRICS.items()}


def layer_metrics(runner: Runner, setup_tracer, peaks: dict) -> dict:
    """Per-pass layer metrics of the traced replay.  Calls made during
    set-up (set up once) are added to the per-pass time of the same call."""
    tracer, counts = runner.tracer, runner.counts
    passes = runner.passes
    metrics = {}
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0) / passes, "s")
    for name, spans in CALL_METRICS.items():
        value = sum(tracer.total(s) for s in spans) / passes
        value += sum(setup_tracer.total(s) for s in spans)
        metrics[name] = (value, "s")
    samples = counts.get("idealise.samples", 0)
    metrics["idealise.us_per_sample"] = (
        1e6 * tracer.total("idealise.muscle_fit") / samples if samples else 0.0, "us")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0) / passes, "count")
    for name, value in peaks.items():
        metrics[name] = (value, "MiB")
    traced = tracer.total("bench.op")
    untraced = sum(sum(times) for times in runner.op_seconds.values())
    metrics["trace.overhead_s"] = ((traced - untraced) / passes, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)

    workload = WORKLOADS[args.workload]
    out_root = Path.cwd() / ".bench_out"
    work_dir = out_root / f"{workload.name}-{os.getpid()}"
    try:
        setup_tracer = Tracer(op="setup") if args.trace else None
        calibration = Calibration()
        with nullcontext() if args.trace else calibration.running():
            setup_seconds = []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                shutil.rmtree(work_dir, ignore_errors=True)
                work_dir.mkdir(parents=True)
                with setup_tracer.instrument(*TRACED_MODULES) if args.trace else nullcontext():
                    inputs, seconds = calibration.timed(workload.setup, args.seed, work_dir)
                setup_seconds.append(seconds)
            runner = Runner(workload, inputs, calibration, Tracer() if args.trace else None)
            runner.run(args.seconds)
        if args.trace:
            metrics = layer_metrics(runner, setup_tracer, memory_pass(runner))
            setup_tracer.extend(runner.tracer)
            setup_tracer.write(out_root / f"spans-{workload.name}-seed{args.seed}.json")
        else:
            import_seconds = [fresh_import_seconds() for _ in range(FRESH_IMPORTS)]
            setup = statistics.median(import_seconds) + statistics.median(setup_seconds)
            metrics = {
                # null when every operation failed: the counts still get out
                "wall_s": (runner.pass_seconds(), "s"),
                "op_p50_s": (runner.op_p50_seconds(), "s"),
                "peak_rss_mib": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
                "setup_s": (setup / calibration.slowdown(), "s"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
