"""Benchmark of coopchan: one seeded workload per call, run from the root of
a checkout.

    python3 bench/run.py --workload long-recording --seed 1 --seconds 30 --trace 0

The workload runs in a process of its own that imports coopchan from the
checkout's ``src`` (nothing is installed), with BLAS and OpenMP pools pinned
to one thread.  The last line of standard output is the result as JSON: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("long-recording", "scenario-batch", "long-chain-L2")
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "coopchan" / "__init__.py").is_file():
        print(f"no coopchan sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({pool: "1" for pool in THREAD_POOLS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if done.returncode != 0:
        print(f"workload {args.workload} exited with code {done.returncode}", file=sys.stderr)
        return done.returncode if done.returncode > 0 else 4
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
