"""Reference-only timings for the README: the pipeline on one acceptance-9
recording at n = 1e4, 1e5, 3e5 and 1e6, and one repetition of each study
function.  Not a workload and not gated; takes about two minutes.

    python3 bench/baseline.py          # from the root of a checkout
"""

from __future__ import annotations

import itertools
import os
import sys
import tempfile
import time
from pathlib import Path

for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[pool] = "1"
sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from coopchan import NoiseSpec, ParamVector, make_kernel, synthesize_recording  # noqa: E402
from coopchan import io as cio  # noqa: E402
from coopchan.studies import (  # noqa: E402
    channel_count_study,
    classification_study,
    consistency_study,
    fdr_study,
)
from coopchan import pipeline as cpipeline  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 20240909
SIZES = (10_000, 100_000, 300_000, 1_000_000)


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


def pipeline_rows(tmp: Path):
    theta = ParamVector.constant(3, 0.998, 0.998)
    kernel = make_kernel("bessel", 10_000.0, cutoff=2_500.0)
    for n in SIZES:
        synth_s, rec = timed(synthesize_recording, theta, n, 10_000.0, kernel=kernel,
                             noise=NoiseSpec("gaussian", sigma=0.1), seed=SEED)
        csv = tmp / f"rec{n}.csv"
        write_s, _ = timed(cio.write_recording, rec, csv)
        read_s, rec = timed(cio.read_recording, csv)
        tracer = Tracer()
        with tracer.instrument(cpipeline), tracer.span("pipeline.run_pipeline"):
            result = cpipeline.run_pipeline(rec)
        label = f"pipeline n = {n:.0e}".replace("e+0", "e")
        yield (label, tracer.total("pipeline.run_pipeline"),
               f"idealise {tracer.total('idealise.muscle_fit'):.2f} s, "
               f"MDE {tracer.total('infer.mde_fit'):.2f} s, L-hat {result.selected_L}, "
               f"{len(result.idealisation.fit.levels)} segments; synth {synth_s:.2f} s, "
               f"CSV write {write_s:.2f} s, read {read_s:.2f} s")


def study_rows():
    seconds, (rep,) = timed(classification_study, "zero", "gaussian", reps=1, base_seed=SEED)
    yield "classification_study, 1 rep", seconds, f"zero / gaussian, verdict {rep['verdict']}"
    seconds, res = timed(fdr_study, 0.1, reps=1, base_seed=SEED)
    yield "fdr_study, 1 rep", seconds, f"alpha 0.1, n = 2000, K-hat {res['k_hats'][0]}"
    for scenario in ("zero", "positive", "negative"):
        seconds, (rep,) = timed(channel_count_study, scenario, reps=1, base_seed=SEED)
        yield ("channel_count_study, 1 rep", seconds,
               f"L = 20 {scenario}, n = 1e5, L-hat {rep['L_hat']}")
    theta = ParamVector.constant(2, 0.99, 0.99)
    seconds, _ = timed(consistency_study, theta, lengths=(1_000_000,), reps=1, base_seed=SEED)
    yield "consistency_study, 1 rep", seconds, "L = 2, n = 1e6"


def main() -> int:
    print(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}\n")
    print("| measurement | time | notes |\n|---|---|---|")
    out = Path.cwd() / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name, seconds, notes in itertools.chain(pipeline_rows(Path(tmp)), study_rows()):
            print(f"| {name} | {seconds:.2f} s | {notes} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
