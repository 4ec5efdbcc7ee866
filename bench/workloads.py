"""Inputs, operations and checks of the three benchmark workloads.

A workload is a list of cases.  A case is one input together with the
library calls its CLI commands make on it (its operations) and a check of
their results.  A pass runs every case once; the seed only fixes the order
of the cases, so every pass does the same work and the same known faults
fail in it.  lt_spectral must be importable when this module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lt_spectral import (bracketing, cli, constants, kyfan, potential,
                         scattering, sturm)
from lt_spectral.numerics import BracketError, DivergenceError

import checks

#: cli.random_piecewise seeds; the range starts at 1 and reaches seed 18,
#: whose certificate fails (see README.md)
PIECEWISE_SEEDS = tuple(range(1, 19))
#: (depth, half-width) of centred square wells
SQUARE_WELLS = ((2.0, 1.0), (5.0, 0.5), (1.0, 2.0))
#: the kyfan command's split: theta = 1/2, V0 = V1 = V/2, N = 1
KYFAN_K_MAX = 6

#: (nu, alpha, centre) of Poschl-Teller wells
POSCHL_TELLER = ((1, 2.0, 0.0), (2, 2.0, 0.5), (3, 1.5, -0.25))
#: (amplitude, centre, width) of Gaussians
GAUSSIANS = ((1.5, 0.0, 2.0),)
#: the short explicit k-grid of the smooth reflection calls
SMOOTH_K_GRID = tuple(np.geomspace(0.1, 10.0, 8))

#: the constants table is `constants --gamma-grid 0.5:1.5:GAMMA_COUNT`; the
#: grid is fine enough that the table takes about half of a pass
GAMMA_COUNT = 1001
#: eta of the dual-route Theta comparison, for both (p0, p1)
THETA_ETAS = (0.5,)
THETA_PAIRS = ((1.0, 2.0), (0.5, 1.5))


@dataclass
class Op:
    """One library call.  known_failure is the exception a known fault of
    the program raises here; the run counts it as failed, not as wrong."""

    kind: str
    call: Callable[[], object]
    known_failure: type | None = None


@dataclass
class Case:
    """One input, its operations, and a check of their results.

    check receives the results by operation kind, without the operations
    that failed, and returns a list of problems.  radius gives the case's
    contribution to radius_p50, or None.
    """

    name: str
    ops: list[Op]
    check: Callable[[dict], list[str]]
    radius: Callable[[dict], float | None] = field(
        default=lambda results: None)


@dataclass
class Workload:
    cases: list[Case]
    #: cases run once, untimed, before the first pass
    warmup: list[Case]
    #: seconds of one pass on the reference machine (README.md); a run of
    #: S seconds makes max(1, round(S / pass_s)) passes
    pass_s: float


# -- piecewise -------------------------------------------------------------

def _certificate_radius(results):
    cert = results.get("certify")
    if cert is None:
        return None
    return cert.sum_sqrt.error / cert.sum_sqrt.value


def _moment_error(V, results, cache):
    """Certified error of the sqrt moment that the sum rule subtracts.

    sum_rule_residual and certify_theorem1 both take it from solve_line(V)
    at the default tolerance; when the certificate failed it is computed
    here once and kept in the case's cache.
    """
    cert = results.get("certify")
    if cert is not None:
        return cert.sum_sqrt.error
    if "moment_error" not in cache:
        cache["moment_error"] = sturm.riesz_mean(sturm.solve_line(V),
                                                 0.5).error
    return cache["moment_error"]


def _kyfan(V):
    half = V.amplified(0.5)
    split = kyfan.Splitting(theta=0.5, V0=half, V1=half, N=1)
    return kyfan.verify_splitting(V, split, k_max=KYFAN_K_MAX)


def _jump_case(name, V, bp, vals, half=None, well=None, known=None):
    """A piecewise-constant V with breakpoints bp and values vals.

    half is the half-line well the partition command builds for the same
    seed; well is (depth, half-width) for a centred square well.
    """
    ops = [Op("certify", lambda: bracketing.certify_theorem1(V), known)]
    if half is not None:
        ops.append(Op("partition", lambda: bracketing.build_partition(half)))
    ops += [Op("sumrule", lambda: scattering.sum_rule_residual(V)),
            Op("scatter", lambda: scattering.reflection_coefficient(V)),
            Op("kyfan", lambda: _kyfan(V))]
    integral = checks.piecewise_mass(bp, vals)
    cache = {}

    def check(results):
        out = []
        if "certify" in results:
            cert = results["certify"]
            out += checks.check_certificate(cert, integral)
            for side, part in zip((-1, +1), cert.partitions):
                out += checks.check_partition(
                    part, checks.half_mass(bp, vals, side))
        if "partition" in results:
            out += checks.check_partition(
                results["partition"],
                checks.half_mass(half.breakpoints, half.values, +1))
        if "sumrule" in results:
            out += checks.check_sum_rule(results["sumrule"],
                                         _moment_error(V, results, cache))
        if "scatter" in results:
            data = results["scatter"]
            if well is not None:
                out += checks.check_square_well_reflection(data, *well)
            out += checks.check_transmission_bound(data, integral)
        if "kyfan" in results:
            out += checks.check_splitting(results["kyfan"], KYFAN_K_MAX)
        return out

    return Case(name, ops, check, _certificate_radius)


def _random_case(seed):
    V = cli.random_piecewise(seed)
    half = cli.random_piecewise(seed, domain="half_line")
    # certify_theorem1 raises BracketError at seed 18 (see README.md)
    known = BracketError if seed == 18 else None
    return _jump_case(f"random_piecewise({seed})", V, V.breakpoints,
                      V.values, half=half, known=known)


def _square_case(depth, a):
    V = potential.SquareWell(depth, -a, a)
    return _jump_case(f"SquareWell({depth}, {-a}, {a})", V, [-a, a],
                      [depth], well=(depth, a))


def piecewise() -> Workload:
    cases = [_random_case(s) for s in PIECEWISE_SEEDS]
    cases += [_square_case(*w) for w in SQUARE_WELLS]
    return Workload(cases, [_random_case(PIECEWISE_SEEDS[0])], 26.0)


# -- smooth ----------------------------------------------------------------

def _smooth_ops(V):
    return [Op("certify", lambda: bracketing.certify_theorem1(V)),
            Op("sumrule", lambda: scattering.sum_rule_residual(V)),
            Op("scatter", lambda: scattering.reflection_coefficient(
                V, k_grid=SMOOTH_K_GRID))]


def _poschl_teller_case(nu, alpha, c):
    V = potential.PoschlTeller(nu, c=c, alpha=alpha)
    cache = {}

    def check(results):
        out = []
        if "certify" in results:
            out += checks.check_certificate(
                results["certify"], checks.poschl_teller_integral(nu, alpha))
            out += checks.check_poschl_teller(results["certify"], nu, alpha)
        if "sumrule" in results:
            out += checks.check_sum_rule(results["sumrule"],
                                         _moment_error(V, results, cache))
        if "scatter" in results:
            out += checks.check_reflectionless(results["scatter"])
        return out

    return Case(f"PoschlTeller({nu}, c={c}, alpha={alpha})", _smooth_ops(V),
                check, _certificate_radius)


def _gaussian_case(amplitude, c, width):
    V = potential.Gaussian(amplitude, center=c, width=width)
    integral = checks.gaussian_integral(amplitude, width)
    cache = {}

    def check(results):
        out = []
        if "certify" in results:
            out += checks.check_certificate(results["certify"], integral)
        if "sumrule" in results:
            out += checks.check_sum_rule(results["sumrule"],
                                         _moment_error(V, results, cache))
        if "scatter" in results:
            out += checks.check_transmission_bound(results["scatter"],
                                                   integral)
        return out

    return Case(f"Gaussian({amplitude}, center={c}, width={width})",
                _smooth_ops(V), check, _certificate_radius)


def _smooth_warmup():
    """The first well without its sum rule: the reflection call computes the
    same log integral, so this runs every code path of a pass at about half
    the cost of the case."""
    case = _poschl_teller_case(*POSCHL_TELLER[0])
    case.ops = [op for op in case.ops if op.kind != "sumrule"]
    return case


def smooth() -> Workload:
    cases = [_poschl_teller_case(*w) for w in POSCHL_TELLER]
    cases += [_gaussian_case(*g) for g in GAUSSIANS]
    return Workload(cases, [_smooth_warmup()], 29.0)


# -- constants -------------------------------------------------------------

def _row_case(gamma):
    # the closed Theta route diverges for 1/2 < gamma < 0.52 (README.md)
    known = DivergenceError if 0.5 < gamma < 0.52 else None
    return Case(f"constants_row({gamma!r})",
                [Op("row", lambda: constants.constants_row(gamma), known)],
                lambda results: ([] if "row" not in results
                                 else checks.check_row(results["row"])),
                lambda results: (None if "row" not in results
                                 else checks.row_half_width(results["row"])))


def _crossover():
    g = constants.crossover()
    diff = [constants.doublestar_constant(x) - constants.star_constant(x)
            for x in (g - checks.CROSSOVER_STEP, g + checks.CROSSOVER_STEP)]
    return g, diff[0], diff[1]


def _crossover_case():
    return Case("crossover", [Op("crossover", _crossover)],
                lambda results: ([] if "crossover" not in results else
                                 checks.check_crossover(
                                     *results["crossover"])))


def _varsigma_case():
    return Case("varsigma(3)",
                [Op("varsigma", lambda: constants.varsigma(3.0))],
                lambda results: ([] if "varsigma" not in results else
                                 checks.check_varsigma(results["varsigma"])))


def _theta_case(eta, pair):
    params = constants.ThetaParams(eta, *pair)
    ops = [Op(mode, lambda mode=mode: constants.theta_weight(params, mode))
           for mode in ("closed", "numeric")]

    def check(results):
        if "closed" not in results or "numeric" not in results:
            return []
        return checks.check_theta(eta, pair, results["closed"],
                                  results["numeric"])

    return Case(f"theta_weight({eta}, {pair[0]}, {pair[1]})", ops, check)


def gamma_grid(count=GAMMA_COUNT):
    """The gamma values of `lt-spectral constants --gamma-grid 0.5:1.5:N`."""
    return [0.5 + (1.5 - 0.5) * i / (count - 1) for i in range(count)]


def constants_workload() -> Workload:
    cases = [_row_case(g) for g in gamma_grid()]
    cases += [_crossover_case(), _varsigma_case()]
    cases += [_theta_case(eta, pair) for eta in THETA_ETAS
              for pair in THETA_PAIRS]
    warmup = [_row_case(1.0), _crossover_case(), _varsigma_case(),
              _theta_case(0.5, THETA_PAIRS[0])]
    return Workload(cases, warmup, 8.0)


BUILDERS = {
    "piecewise": piecewise,
    "smooth": smooth,
    "constants": constants_workload,
}
