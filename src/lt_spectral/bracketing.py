"""Neumann-bracketing certificate for the square-root eigenvalue sum.

A nonnegative half-line potential is divided into consecutive intervals
I_k = [l_k, l_{k+1}] with (l_{k+1} - l_k) * int_{I_k} V = 3.  Each interval
then carries exactly one negative Neumann eigenvalue -lambda_1(I_k)^2, with

    mass_k / sqrt(3)  <=  lambda_1(I_k)  <=  (varsigma(3)/3) * mass_k,

and inserting Neumann conditions at the breakpoints only lowers eigenvalues,
so Sigma sqrt|E_i| <= Sigma_k lambda_1(I_k) <= (varsigma(3)/3) * int V.
Together with the scattering lower bound Sigma sqrt|E_i| >= (1/4) int V this
sandwiches the square-root moment sum between explicit multiples of int V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import L_HALF
from .numerics import BracketError, InvariantError, NumericsError, find_root
from .potential import FULL_LINE, HALF_LINE, Potential
from .sturm import (SOLVER_TOL, RieszMean, Spectrum, riesz_mean,
                    solve_interval, solve_line)

#: upper and lower per-interval factors for lambda_1 in terms of the mass
UPPER_FACTOR = L_HALF
LOWER_FACTOR = 1.0 / math.sqrt(3.0)

#: relative slack allowed on the defining relation (l_{k+1}-l_k)*mass_k = 3
PARTITION_RTOL = 1e-8

#: tail mass below this fraction of the total counts as zero
TAIL_ZERO_FRACTION = 1e-12

#: rounding allowance, relative, on the product length * mass at the edge
EDGE_RTOL = 8 * 2.0**-52

#: the most intervals a partition may close by the defining relation; the
#: tests and the random piecewise seeds need fewer than a hundred, a square
#: well of depth v on [0, 1] about sqrt(v / 3)
PARTITION_MAX = 10**4


class BracketingError(NumericsError):
    """A partition invariant or the one-eigenvalue property failed."""


@dataclass(frozen=True)
class Partition:
    """Consecutive intervals with unit product of length and mass (= 3).

    breakpoints start at 0 and may end with inf when the potential has no
    mass beyond the last finite breakpoint.  masses[k] is the integral of V
    over [breakpoints[k], breakpoints[k+1]].  degenerate marks a potential
    with no usable mass at all; truncated marks a positive tail too small to
    close the defining relation, in which case the last interval runs to the
    support edge and is exempt from the product invariant.
    """

    breakpoints: tuple[float, ...]
    masses: tuple[float, ...]
    degenerate: bool = False
    truncated: bool = False

    def __post_init__(self):
        bp, ms = self.breakpoints, self.masses
        if len(bp) < 2 or len(ms) != len(bp) - 1:
            raise InvariantError("need n+1 breakpoints for n intervals")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise InvariantError("breakpoints must be strictly increasing")
        for k in ([] if self.degenerate else self.finite_indices()):
            product = (bp[k + 1] - bp[k]) * ms[k]
            if abs(product - 3.0) > PARTITION_RTOL * 3.0:
                raise InvariantError(
                    f"interval {k}: length*mass = {product!r}, expected 3")

    def __len__(self):
        return len(self.masses)

    @property
    def lambda_upper(self) -> tuple[float, ...]:
        """Per-interval upper bound (varsigma(3)/3) * mass on lambda_1."""
        return tuple(UPPER_FACTOR * m for m in self.masses)

    @property
    def lambda_lower(self) -> tuple[float, ...]:
        """Per-interval lower bound mass / sqrt(3) on lambda_1."""
        return tuple(LOWER_FACTOR * m for m in self.masses)

    def proper(self, k: int) -> bool:
        """Interval k carries the full product relation."""
        return (not math.isinf(self.breakpoints[k + 1])
                and not (self.truncated and k >= len(self.masses) - 2))

    def finite_indices(self) -> list[int]:
        """Indices of intervals that carry the full product relation."""
        return [k for k in range(len(self.masses)) if self.proper(k)]


def build_partition(V: Potential) -> Partition:
    """Divide [0, inf) into intervals with (l_{k+1} - l_k) * mass_k = 3.

    V must be nonnegative with finite integral on the half line.  Each
    breakpoint solves the monotone equation (l - l_k) * int_{l_k}^l V = 3;
    when the remaining tail mass vanishes the last breakpoint is inf.
    BracketingError is raised before a breakpoint past the first
    PARTITION_MAX is sought.
    """
    if V.domain != HALF_LINE:
        raise ValueError("partition requires a half-line potential")
    if not V.is_nonnegative():
        raise ValueError("partition requires V >= 0")
    total = V.integrate()
    if not math.isfinite(total):
        raise ValueError("int V must be finite")
    if total <= 0.0:
        return Partition((0.0, math.inf), (0.0,), degenerate=True)

    tail_zero = TAIL_ZERO_FRACTION * total
    sup_edge = V.support()[1]
    breakpoints = [0.0]
    masses = []
    while True:
        lk = breakpoints[-1]
        tail = total - V.integrate(0.0, lk)
        if tail <= tail_zero:
            breakpoints.append(math.inf)
            masses.append(max(tail, 0.0))
            return Partition(tuple(breakpoints), tuple(masses))

        def g(l):
            return (l - lk) * V.integrate(lk, l) - 3.0

        lo = lk + 3.0 / total
        edge = max(sup_edge, lo)
        # the largest product the remaining mass reaches, at the support
        # edge; it rounds by a few ulps of itself, so a product within them
        # of 3 cannot close an interval past the edge either
        rest = V.integrate(lk, edge) if math.isfinite(edge) else math.inf
        if (edge - lk) * rest <= 3.0 * (1.0 + EDGE_RTOL):
            # positive but unreachable tail: close at the support edge
            breakpoints.append(edge)
            masses.append(rest)
            breakpoints.append(math.inf)
            masses.append(0.0)
            return Partition(tuple(breakpoints), tuple(masses),
                             truncated=True)
        if len(masses) >= PARTITION_MAX:
            raise BracketingError(f"the partition passes its budget of "
                                  f"{PARTITION_MAX} intervals at l = {lk}")
        # at least one float past l_k, where 3 / tail vanishes beside it
        hi = max(lo + 3.0 / tail, math.nextafter(lk, math.inf))
        while g(hi) < 0.0:
            hi = lk + 2.0 * (hi - lk)
        # breakpoints are cheap to locate precisely; the product invariant
        # (1e-8 relative) needs far better than the eigenvalue tolerance
        try:
            lnext = find_root(g, min(lo, hi), hi, 1e-13, 1e-13)
        except BracketError:
            # g(hi) > 0, so g(lo) > 0 too: the tail lies within 3/int V of
            # l_k, where g(lo) is 0 up to rounding, so lo closes the
            # interval; the product check below still guards it
            lnext = lo
        mass = V.integrate(lk, lnext)
        if abs((lnext - lk) * mass - 3.0) > PARTITION_RTOL * 3.0:
            # within half the slack of the invariant, as a margin
            lnext = _bisect_to_value(g, min(lo, hi), hi, lnext,
                                     1.5 * PARTITION_RTOL)
            mass = V.integrate(lk, lnext)
        breakpoints.append(lnext)
        masses.append(mass)


def _bisect_to_value(g, lo: float, hi: float, x: float,
                     gtol: float) -> float:
    """A point of [lo, hi] where |g| <= gtol, by bisection from x in it.

    g increases through a root in [lo, hi].  Where g is steep, as around a
    narrow tall well far out, a root tolerance in x does not bound |g|.
    """
    while True:
        gx = g(x)
        if abs(gx) <= gtol:
            return x
        if gx < 0.0:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            raise InvariantError(
                f"no float in [{lo!r}, {hi!r}] brings |g| within {gtol}")


def interval_spectrum(V: Potential, partition: Partition, k: int,
                      tol: float = SOLVER_TOL) -> Spectrum:
    """Neumann spectrum of finite partition interval k, by the partition's
    one-state rule.

    A proper interval holds exactly one negative eigenvalue.  More than one
    resolved raises BracketingError; one too shallow for the solver even to
    flag counts as one unresolved state, with the partition's bound
    sqrt|E_1| <= UPPER_FACTOR * mass.  The truncated interval at the support
    edge is exempt from the rule and returned as solved.
    """
    a, b = partition.breakpoints[k], partition.breakpoints[k + 1]
    if math.isinf(b):
        raise ValueError("interval spectra apply to finite intervals only")
    spec = solve_interval(V, (a, b), bc="neumann", tol=tol)
    if partition.proper(k):
        if len(spec) + spec.near_threshold < 1:
            spec = Spectrum((), (), 1,
                            (UPPER_FACTOR * partition.masses[k])**2)
        if len(spec) > 1:
            raise BracketingError(
                f"interval [{a}, {b}]: expected one negative "
                f"eigenvalue, found {len(spec)} with "
                f"{spec.near_threshold} unresolved")
    return spec


@dataclass(frozen=True)
class Theorem1Certificate:
    """Certified sandwich for the square-root moment sum.

    The chain lower <= sum_sqrt <= bracket_sum <= upper is checked with the
    certified radii folded in; checks holds the per-inequality verdicts,
    with "lower_le_sum" only where the lower bound applies.
    """

    integral_V: float
    sum_sqrt: RieszMean
    bracket_sum: float
    bracket_error: float
    upper_bound: float
    lower_bound: float
    checks: dict = field(repr=False)
    partitions: tuple[Partition, ...] = field(repr=False)
    spectrum: Spectrum = field(repr=False, default=None)

    @property
    def verdict(self) -> str:
        return "pass" if all(self.checks.values()) else "fail"


def _bracket_side(V: Potential, tol) -> tuple[Partition, float, float]:
    """Partition a half-line potential and sum the lambda_1 upper data."""
    part = build_partition(V)
    total = 0.0
    err = 0.0
    for k in range(len(part)):
        if math.isinf(part.breakpoints[k + 1]):
            # unresolved tail mass m can hide at most lambda_1 <= m
            err += part.masses[k]
            continue
        if part.masses[k] <= 0.0:
            continue
        # an unresolved state is budgeted by riesz_mean at its threshold
        mean = riesz_mean(interval_spectrum(V, part, k, tol), 0.5)
        total += mean.value
        err += mean.error
    return part, total, err


def certify_theorem1(V: Potential, tol: float = SOLVER_TOL,
                     assume_even: bool = False) -> Theorem1Certificate:
    """Certified sandwich (1/4) int V <= Sigma sqrt|E_i| <= (varsigma(3)/3) int V.

    For a whole-line potential the operator is split at the origin into the
    direct sum of two Neumann half-line problems, which lies below the
    original operator; each half is then partitioned and bracketed.  For a
    half-line potential the lower bound applies only when V is the
    restriction of an even potential (assume_even).
    """
    if not V.is_nonnegative():
        raise ValueError("the certificate requires V >= 0")
    full = V.domain == FULL_LINE
    integral = V.integrate()
    upper = UPPER_FACTOR * integral
    lower = 0.25 * integral

    if full:
        halves = (V.half_view(-1), V.half_view(+1))
    else:
        halves = (V,)
    partitions, bracket_sum, bracket_err = [], 0.0, 0.0
    for half in halves:
        part, tot, err = _bracket_side(half, tol)
        partitions.append(part)
        bracket_sum += tot
        bracket_err += err

    spec = solve_line(V, tol=tol)
    direct = riesz_mean(spec, 0.5)

    # each inequality must hold after spending its certified allowance
    checks = {
        "sum_le_bracket": bool(direct.value - direct.error
                               <= bracket_sum + bracket_err),
        "bracket_le_upper": bool(bracket_sum - bracket_err <= upper),
        "sum_le_upper": bool(direct.value - direct.error <= upper),
    }
    if full or assume_even:
        checks["lower_le_sum"] = bool(lower <= direct.value + direct.error)
    return Theorem1Certificate(
        integral_V=integral, sum_sqrt=direct, bracket_sum=bracket_sum,
        bracket_error=bracket_err, upper_bound=upper, lower_bound=lower,
        checks=checks, partitions=tuple(partitions), spectrum=spec)
