"""Run one benchmark workload in this process and print its figures as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --ready

The first form runs one untimed warm-up, then max(1, round(S / pass_s))
timed passes over the workload's cases, where pass_s is the workload's pass
length on the reference machine, so the passes take about S seconds there.
It times every pass, reads the peak resident memory, then checks the
outputs of every pass and prints one JSON line.  With --trace 1 the layer
wrappers are installed first and the line carries the median per-layer
figures of the passes.

The second form imports lt_spectral, builds the workload's inputs and
prints time.perf_counter() at that moment.  On Linux that clock is
system-wide, so run.py can time set-up from the start of a fresh
interpreter.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_workloads():
    """Import lt_spectral from this checkout's src/, never another copy."""
    sys.path.insert(0, str(SRC))
    import lt_spectral
    if Path(lt_spectral.__file__).resolve().parent != SRC / "lt_spectral":
        raise SystemExit(f"lt_spectral imported from {lt_spectral.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads


def run_case(case):
    """(results by kind, failures): failures lists (op, exception)."""
    results, failures = {}, []
    for op in case.ops:
        try:
            results[op.kind] = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append((op, exc))
    return results, failures


def check_case(case, results, failures) -> list[str]:
    problems = [f"{case.name} {op.kind}: {type(exc).__name__}: {exc}"
                for op, exc in failures
                if op.known_failure is None
                or not isinstance(exc, op.known_failure)]
    return problems + [f"{case.name}: {p}" for p in case.check(results)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ready", action="store_true")
    args = p.parse_args(argv)

    workloads = import_workloads()
    wl = workloads.BUILDERS[args.workload]()
    if args.ready:
        print(repr(time.perf_counter()))
        return 0

    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()

    done = [(case, *run_case(case)) for case in wl.warmup]

    rng = random.Random(args.seed)
    passes = max(1, round(args.seconds / wl.pass_s))
    pass_s, layer_passes = [], []
    for _ in range(passes):
        order = list(wl.cases)
        rng.shuffle(order)
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        done += [(case, *run_case(case)) for case in order]
        pass_s.append(time.perf_counter() - t0)
        if tracer is not None:
            layer_passes.append(tracer.metrics())
    # read before the checks, which import mpmath
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = done[len(wl.warmup):]
    problems = [p for case, results, failures in done
                for p in check_case(case, results, failures)]
    radii = [r for case, results, _ in timed[:len(wl.cases)]
             if (r := case.radius(results)) is not None]
    out = {
        "pass_s": pass_s,
        "attempted": sum(len(case.ops) for case, _, _ in timed),
        "failed": sum(len(failures) for _, _, failures in timed),
        "problems": problems,
        "radius_p50": statistics.median(radii) if radii else None,
        "peak_rss_mb": peak_rss_mb,
    }
    if layer_passes:
        out["layers"] = {name: statistics.median(lp[name]
                                                 for lp in layer_passes)
                         for name in layer_passes[0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
