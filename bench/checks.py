"""Checks of lt_spectral's outputs against independent computations.

Every check returns a list of problems, empty when the output is right.  No
check reads a stored copy of earlier output: each one compares with a closed
form, with an integral or a root computed here with numpy or mpmath, or with
an inequality the method must satisfy.  The checks take the program's result
objects, or anything with the same attributes, so the tests of the benchmark
can feed them planted wrong results.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: relative slack on the partition relation length * mass = 3
PARTITION_RTOL = 1e-8
#: the partition's reported masses against the masses summed here
MASS_ATOL = 1e-9
#: square-well |R(k)|^2 against its closed form
SQUARE_WELL_R2_TOL = 1e-9
#: quadrature tolerance of the log-transmission integral in the sum rule
QUAD_TOL = 1e-6
#: |R(k)| and the log integral of a reflectionless potential
REFLECTIONLESS_TOL = 1e-6
#: relative agreement of the closed and numeric Theta routes
THETA_RTOL = 1e-8
#: varsigma(3) and L_star(1/2) against the mpmath root
VARSIGMA_RTOL = 1e-12
#: distance from the crossover at which L** - L* must have changed sign
CROSSOVER_STEP = 1e-4


@functools.cache
def varsigma3() -> float:
    """The root of x tanh x = 3, found by mpmath and not by the program.

    mpmath is imported here, on the first check that needs the root, so that
    neither setup_s nor peak_rss_mb includes it.
    """
    import mpmath
    with mpmath.workdps(40):
        return float(mpmath.findroot(lambda x: x * mpmath.tanh(x) - 3, 3.0))


# -- integrals computed here -------------------------------------------------

def piecewise_mass(breakpoints, values, a=-math.inf, b=math.inf) -> float:
    """Integral over [a, b] of the piecewise-constant function, by numpy."""
    bp = np.asarray(breakpoints, dtype=float)
    left = np.maximum(bp[:-1], a)
    right = np.minimum(bp[1:], b)
    return float(np.sum(np.asarray(values, dtype=float)
                        * np.clip(right - left, 0.0, None)))


def half_mass(breakpoints, values, side: int):
    """Mass function of x -> V(side * x) on [0, inf)."""
    if side > 0:
        return lambda a, b: piecewise_mass(breakpoints, values, a, b)
    return lambda a, b: piecewise_mass(breakpoints, values, -b, -a)


def gaussian_integral(amplitude: float, width: float) -> float:
    return amplitude * width * math.sqrt(math.pi)


def poschl_teller_integral(nu: float, alpha: float) -> float:
    return 2.0 * nu * (nu + 1.0) * alpha


# -- certificates and partitions ---------------------------------------------

def check_certificate(cert, integral: float) -> list[str]:
    """Verdict pass and (1/4) int V <= S + err, S - err <= (1/2) int V.

    The upper constant 1/2 is sharp (Hundertmark, Lieb and Thomas 1998), so
    a certified interval that misses this window is wrong.
    """
    out = []
    if cert.verdict != "pass":
        out.append(f"verdict {cert.verdict}: {dict(cert.checks)}")
    s, err = cert.sum_sqrt.value, cert.sum_sqrt.error
    if not 0.25 * integral <= s + err:
        out.append(f"sum_sqrt {s} + {err} below (1/4) int V = "
                   f"{0.25 * integral}")
    if not s - err <= 0.5 * integral:
        out.append(f"sum_sqrt {s} - {err} above (1/2) int V = "
                   f"{0.5 * integral}")
    return out


def check_partition(part, mass) -> list[str]:
    """Each finite interval has length * mass = 3, with mass(a, b) from here.

    The interval that closes a truncated tail is exempt, as the partition's
    definition says; so is the last interval when it runs to infinity.
    """
    bp = list(part.breakpoints)
    out = []
    if bp[0] != 0.0:
        out.append(f"first breakpoint {bp[0]} is not 0")
    if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
        out.append("breakpoints are not increasing")
        return out
    if part.degenerate:
        return out
    finite = [k for k in range(len(bp) - 1) if math.isfinite(bp[k + 1])]
    if part.truncated and finite:
        finite.pop()
    for k in finite:
        a, b = bp[k], bp[k + 1]
        m = mass(a, b)
        if abs((b - a) * m / 3.0 - 1.0) > PARTITION_RTOL:
            out.append(f"interval [{a}, {b}]: length * mass = "
                       f"{(b - a) * m!r}, not 3")
        if abs(part.masses[k] - m) > MASS_ATOL * max(1.0, m):
            out.append(f"interval [{a}, {b}]: reported mass "
                       f"{part.masses[k]!r}, summed {m!r}")
    return out


def check_poschl_teller(cert, nu: int, alpha: float) -> list[str]:
    """Eigenvalues -alpha^2 (nu - n)^2 inside their radii, and the certified
    sum interval around alpha nu (nu + 1) / 2."""
    spec = cert.spectrum
    out = []
    exact = [-(alpha * (nu - n)) ** 2 for n in range(nu)]
    if len(spec.eigenvalues) != nu:
        out.append(f"{len(spec.eigenvalues)} eigenvalues, expected {nu}")
    for e, r, x in zip(spec.eigenvalues, spec.radii, exact):
        if abs(e - x) > r:
            out.append(f"eigenvalue {e} +- {r} misses {x}")
    target = alpha * nu * (nu + 1) / 2.0
    s, err = cert.sum_sqrt.value, cert.sum_sqrt.error
    if abs(s - target) > err:
        out.append(f"sum_sqrt {s} +- {err} misses {target}")
    return out


# -- scattering ----------------------------------------------------------------

def check_sum_rule(residual: float, moment_error: float) -> list[str]:
    """|int V - 4 S - log term| <= 4 * certified moment error + QUAD_TOL."""
    budget = 4.0 * moment_error + QUAD_TOL
    if not abs(residual) <= budget:
        return [f"sum-rule residual {residual} exceeds budget {budget}"]
    return []


def square_well_r2(k, depth: float, half_width: float):
    """|R(k)|^2 of the well of the given depth on [-half_width, half_width]:
    V0^2 sin^2(2qa) / (4 k^2 q^2 + V0^2 sin^2(2qa)), q = sqrt(k^2 + V0)."""
    k = np.asarray(k, dtype=float)
    q = np.sqrt(k * k + depth)
    s2 = depth**2 * np.sin(2.0 * q * half_width) ** 2
    return s2 / (4.0 * k * k * q * q + s2)


def check_square_well_reflection(data, depth: float,
                                 half_width: float) -> list[str]:
    r2 = np.abs(np.asarray(data.R_values)) ** 2
    exact = square_well_r2(data.k_grid, depth, half_width)
    worst = int(np.argmax(np.abs(r2 - exact)))
    if abs(r2[worst] - exact[worst]) > SQUARE_WELL_R2_TOL:
        return [f"|R|^2 = {r2[worst]!r} at k = {data.k_grid[worst]}, "
                f"closed form {exact[worst]!r}"]
    return []


def check_reflectionless(data) -> list[str]:
    out = []
    if data.max_reflection() > REFLECTIONLESS_TOL:
        out.append(f"max |R| = {data.max_reflection()} on a reflectionless "
                   "potential")
    if abs(data.log_integral) > REFLECTIONLESS_TOL:
        out.append(f"log integral {data.log_integral} is not 0")
    return out


def check_transmission_bound(data, integral: float) -> list[str]:
    """0 <= -log_integral <= (4 varsigma(3)/3 - 1) int V for V >= 0."""
    lhs = -data.log_integral
    rhs = (4.0 * varsigma3() / 3.0 - 1.0) * integral
    if not -1e-12 <= lhs <= rhs:
        return [f"-log integral {lhs} outside [0, {rhs}]"]
    return []


def check_splitting(report, k_max: int) -> list[str]:
    margins = list(report["margins"])
    out = []
    if len(margins) != k_max:
        out.append(f"{len(margins)} margins, expected {k_max}")
    bad = [m for m in margins if not m >= 0.0]
    if bad or not report["ok"]:
        out.append(f"negative splitting margins {bad}, ok={report['ok']}")
    return out


# -- constants -----------------------------------------------------------------

def check_varsigma(value: float) -> list[str]:
    if abs(value / varsigma3() - 1.0) > VARSIGMA_RTOL:
        return [f"varsigma(3) = {value!r}, mpmath root {varsigma3()!r}"]
    return []


def theta_12(eta: float) -> float:
    """Theta(eta, 1, 2) = 2^eta / (eta (1 - eta) (1 + eta))."""
    return 2.0**eta / (eta * (1.0 - eta) * (1.0 + eta))


def check_theta(eta: float, pair, closed: float, numeric: float) -> list[str]:
    out = []
    if abs(closed - numeric) > THETA_RTOL * abs(closed):
        out.append(f"Theta({eta}, {pair}): closed {closed!r}, "
                   f"numeric {numeric!r}")
    if tuple(pair) == (1.0, 2.0):
        exact = theta_12(eta)
        for route, val in (("closed", closed), ("numeric", numeric)):
            if abs(val - exact) > THETA_RTOL * exact:
                out.append(f"Theta({eta}, 1, 2) {route} {val!r}, "
                           f"formula {exact!r}")
    return out


def check_row(row) -> list[str]:
    """Every upper bound is at least max(L_cl, L_one); L_star(1/2) is
    varsigma(3)/3."""
    floor = max(row.L_cl, row.L_one)
    out = []
    for name in ("L_LT", "L_GGM", "L_star", "L_dstar"):
        val = getattr(row, name)
        if val is not None and not val >= floor:
            out.append(f"gamma {row.gamma}: {name} = {val!r} below "
                       f"max(L_cl, L_one) = {floor!r}")
    if row.gamma == 0.5 and abs(row.L_star / (varsigma3() / 3.0) - 1.0) \
            > VARSIGMA_RTOL:
        out.append(f"L_star(1/2) = {row.L_star!r}, varsigma(3)/3 = "
                   f"{varsigma3() / 3.0!r}")
    return out


def check_crossover(gamma_c: float, diff_below: float,
                    diff_above: float) -> list[str]:
    """L** - L* changes sign across crossover() +- CROSSOVER_STEP."""
    if not diff_below * diff_above < 0.0:
        return [f"L** - L* = {diff_below!r}, {diff_above!r} at "
                f"{gamma_c} -+ {CROSSOVER_STEP}: no sign change"]
    return []


def row_half_width(row) -> float:
    """Relative half-width of [max(L_cl, L_one), L_best], the bracket the
    table gives on the sharp constant L_gamma."""
    lo = max(row.L_cl, row.L_one)
    return (row.L_best - lo) / (row.L_best + lo)
