"""Benchmark of lt-spectral: one workload, timed end to end or layer by layer.

    python3 bench/run.py --workload piecewise|smooth|constants --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports lt_spectral from src/ there.
The workload runs in its own single-threaded process (worker.py).  With
--trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {"setup_s": ..., "wall_s": ..., "peak_rss_mb": ...,
                 "radius_p50": ...}}

and with --trace 1 the metrics are the per-layer figures of layers.py.
setup_s is the median of SETUP_STARTS fresh interpreters that import
lt_spectral and build the inputs, half of them started before the workload
and half after it.  wall_s is the median time of a pass over the workload's
cases after an untimed warm-up, over the passes that fit in S seconds on
the reference machine.  README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKER = HERE / "worker.py"

WORKLOADS = ("piecewise", "smooth", "constants")
#: fresh interpreters timed for setup_s.  On a shared virtual machine the
#: CPU speed drifted by +-20% over tens of seconds, so the starts are split
#: around the workload run instead of made back to back.
SETUP_STARTS = 6
#: one thread for BLAS and OpenMP: the workloads are timed single-threaded
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: the whole run, set-up starts included, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "radius_p50": "1"}


class BenchError(Exception):
    pass


def _worker(args, extra, env, deadline):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the {DEADLINE_S:.0f} s deadline") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return lines[-1]


def setup_times(args, env, deadline, starts) -> list[float]:
    """Seconds from starting a fresh interpreter to inputs built."""
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        ready = float(_worker(args, ["--ready"], env, deadline))
        times.append(ready - t0)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "lt_spectral" / "__init__.py").is_file():
        print(f"bench: no lt_spectral package under {SRC}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_ENV}
    try:
        setup = [] if args.trace else setup_times(
            args, env, deadline, SETUP_STARTS // 2)
        out = json.loads(_worker(
            args, ["--seconds", str(args.seconds), "--trace",
                   str(args.trace)], env, deadline))
        if not args.trace:
            setup += setup_times(args, env, deadline,
                                 SETUP_STARTS - len(setup))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for problem in out["problems"][:20]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    if args.trace:
        import layers
        units = {metric[0]: metric[1] for metric in layers.METRICS}
        metrics = {name: {"value": out["layers"][name], "unit": units[name]}
                   for name in units}
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(out["pass_s"]),
                  "peak_rss_mb": out["peak_rss_mb"],
                  "radius_p50": out["radius_p50"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not out["problems"],
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
