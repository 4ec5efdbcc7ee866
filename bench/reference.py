"""Reference figures for single library calls, and cProfile shares.

    python3 bench/reference.py

Prints the median time of a few single calls that the workloads are built
from, then the share of one call's time that cProfile gives to the hot
functions.  Run it from the root of a checkout, single-threaded as run.py
runs the workloads:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/reference.py
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
import time

from worker import import_workloads

workloads = import_workloads()
from lt_spectral import (bracketing, cli, constants, potential,  # noqa: E402
                         scattering)


def timed(call, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def shares(call, names):
    """Cumulative cProfile time of each function name over the call's."""
    prof = cProfile.Profile()
    prof.runcall(call)
    stats = pstats.Stats(prof).stats
    total = sum(tt for _cc, _nc, tt, _ct, _callers in stats.values())
    found = dict.fromkeys(names, 0.0)
    for (_file, _line, func), (_cc, _nc, _tt, ct, _callers) in stats.items():
        if func in found:
            found[func] = max(found[func], ct)
    return {name: ct / total for name, ct in found.items()}


def _piecewise_seed(seed):
    case = workloads._random_case(seed)

    def call():
        for op in case.ops:
            op.call()
    return call


def main() -> int:
    pt2 = potential.PoschlTeller(2)
    rows = [
        ("certify_theorem1(random_piecewise(0x5EED))",
         lambda: bracketing.certify_theorem1(
             cli.random_piecewise(cli.DEFAULT_SEED)), 5),
        ("sum_rule_residual(PoschlTeller(2))",
         lambda: scattering.sum_rule_residual(pt2), 3),
        ("sum_rule_residual(Gaussian(1))",
         lambda: scattering.sum_rule_residual(potential.Gaussian(1.0)), 1),
        ("theta_weight(ThetaParams(0.5, 0.5, 1.5), 'numeric')",
         lambda: constants.theta_weight(constants.ThetaParams(0.5, 0.5, 1.5),
                                        "numeric"), 3),
        ("constants_row(1.0)", lambda: constants.constants_row(1.0), 200),
    ]
    print("call | median s | repeats")
    for name, call, repeat in rows:
        med, n = timed(call, repeat)
        print(f"{name} | {med:.4g} | {n}")

    print("\ncProfile: share of the call's time spent inside each function")
    piecewise = shares(_piecewise_seed(1),
                       ["eigh_tridiagonal", "_transfer_exact"])
    for name, share in piecewise.items():
        print(f"all five operations on random_piecewise(1) | {name} | "
              f"{share:.0%}")
    pt = shares(lambda: scattering.sum_rule_residual(pt2), ["evaluate"])
    print(f"sum_rule_residual(PoschlTeller(2)) | Potential.evaluate | "
          f"{pt['evaluate']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
