"""Negative-spectrum solvers for H = -d^2/dx^2 - V in one dimension.

Two methods.  A piecewise-constant V (one with pieces()) on the whole or
half line, or on an interval with Neumann ends, is solved exactly: the
solution decaying to the left (Neumann: flat at the left end) is
propagated across the pieces by their exact 2x2 step matrices, its zeros
are counted exactly to give N(E), the number of eigenvalues below E, and
each eigenvalue is isolated by bisection on N(E) and found by Brent's
method on the matching function at the right end, the free tail's or the
Neumann condition's (Pruess's method with Sturm indexing; J. D. Pryce,
Numerical Solution of Sturm-Liouville Problems, OUP 1993).  Its radius is
the half-width of a bracket on whose ends the matching function changes
sign.  So the bracketing side of a piece list is shot, not differenced.

Every other spectrum uses second-order finite differences (FD) on a uniform
grid (Neumann ends via ghost-point reflection, symmetrized by a diagonal
similarity), with the negative eigenvalues of the tridiagonal matrix
extracted by LAPACK's Sturm-sequence bisection.  The difference part is
positive semidefinite under every end condition, so the bisection starts
at -max v less a rounding margin, not at LAPACK's Gershgorin end near
-0.41 / h^2.  Values on grids h and h/2
are Richardson-extrapolated; the extrapolation defect becomes the certified
error radius.  The grids run from 2^LEVEL_MIN + 1 up to 2^LEVEL_MAX + 1
nodes.  Without jumps, where the raw error is c2 h^2 + c4 h^4 + ..., a
second step on four grids is tried when the first falls short; its defect
is the radius only if every resolved eigenvalue passes an order check
(_ORDER_WINDOW) on differences that stand clear of the eigensolver's
rounding.  It passes on the truncation boxes of smooth whole-line
V: the Poschl-Teller wells nu = 2 and 3 stop at 2^11 + 1 nodes instead of
2^16 + 1.  A kink or a Neumann end where V' != 0 fails it and keeps the
first step.  Across jumps the radius carries a first-order allowance,
half the sum J of the jumps strictly inside the interval times its
length over 2^k; a jump at an end lies inside no grid cell and costs
nothing.  Every tolerance, the default SOLVER_TOL or a stated one, is
raised there by one rule to at least JUMP_TOL and 4 x that allowance on
the finest grid, and the ladder starts one level below the first level
whose allowance fits it, since no pair below that level can certify a
resolved eigenvalue.  This covers the interval spectra of potentials
without pieces() (a sum of a jump and a smooth term among them) and those
with a Dirichlet end.  The whole-line (and half-line Neumann) spectra of
potentials without pieces() are two interval spectra on a box where the
discarded potential tail is negligible: each eigenvalue is sandwiched
between the Neumann-truncated value (below) and the Dirichlet-truncated
value (above), each widened by a bound on sup V beyond the box.
Unresolved states are counted once, from the Neumann side, since
N_D <= N <= N_N.

A kinetic share -theta u'' is -u'' with V / theta, scaled by theta (see
kyfan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (Deferred, InvariantError, NumericsError, find_root,
                       piece_step)
from .potential import HALF_LINE, Potential, piece_steps, truncation_point

#: default certification target for eigenvalue radii, absolute; 1e-10 is
#: not reachable with second-order differences on a 2^16 grid
SOLVER_TOL = 1e-6
#: the least FD tolerance across a jump, whatever tolerance is stated
JUMP_TOL = 1e-3

eigh_tridiagonal = Deferred("scipy.linalg", "eigh_tridiagonal")

#: grid ladder: the coarsest and finest grids have 2^level + 1 nodes
LEVEL_MIN, LEVEL_MAX = 8, 16
#: the second Richardson step is taken only where successive differences of
#: once-extrapolated values shrink by a factor near 2^4, the h^4 order it
#: removes (an h^3 term gives 8, a kink a negative ratio)
_ORDER_WINDOW = (12.0, 20.0)


class SolverError(NumericsError):
    """A budget ran out: the grid's before the tolerance was met, or exact
    shooting's on the number of states."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted negative eigenvalues with certified per-value error radii.

    eigenvalues are ascending (most negative first); radii[i] < |E_i| so the
    sign of every reported eigenvalue is certain.  near_threshold counts
    candidate eigenvalues too close to zero to resolve; their worst-case
    contribution to moment sums is carried separately by callers.
    """

    eigenvalues: tuple[float, ...]
    radii: tuple[float, ...]
    near_threshold: int = 0
    #: worst-case |E| of each unresolved near-threshold candidate
    threshold: float = 0.0

    def __post_init__(self):
        if list(self.eigenvalues) != sorted(self.eigenvalues):
            raise InvariantError("eigenvalues must be ascending")
        for e, r in zip(self.eigenvalues, self.radii):
            if e >= 0:
                raise InvariantError("eigenvalues must be strictly negative")
            if not r < abs(e):
                raise InvariantError("radius must not reach zero: "
                                     f"E={e}, radius={r}")

    def __len__(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class RieszMean:
    """Moment sum over a spectrum with first-order error propagation."""

    value: float
    error: float


def _tridiag(V: Potential, a: float, b: float, n: int, bc: tuple[str, str]):
    """Symmetric tridiagonal FD matrix (d, e) of -u'' - V u on [a, b], and a
    floor lo below all its eigenvalues."""
    left, right = bc
    x = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    # cell-averaged potential: exact per-cell mass keeps second-order
    # accuracy when V has jumps that do not land on grid nodes
    v = V.cell_average(np.maximum(x - 0.5 * h, a), np.minimum(x + 0.5 * h, b))
    if left == "dirichlet":
        x, v = x[1:], v[1:]
    if right == "dirichlet":
        x, v = x[:-1], v[:-1]
    m = len(v)
    d = 2.0 / h**2 - v
    e = np.full(m - 1, -1.0 / h**2)
    # Neumann ghost point doubles the boundary coupling; the diagonal
    # similarity diag(1/sqrt(2), 1, ..) restores symmetry with sqrt(2)
    if left == "neumann":
        e[0] *= math.sqrt(2.0)
    if right == "neumann":
        e[-1] *= math.sqrt(2.0)
    # the difference part has the form sum (u_{i+1} - u_i)^2 / h^2 >= 0
    # under every end condition, so T >= -max v; the margin covers the
    # rounding of the entries and of LAPACK's Sturm counts
    lo = -float(np.max(v)) - 1.0 - _rounding(d, e)
    return d, e, lo


def _rounding(d, e) -> float:
    """4 ulp ||T||_1 of the matrix (d, e), the eigensolver's own tolerance;
    max|d| + 2 max|e| bounds the largest column sum of T from above."""
    norm = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    return 4.0 * np.finfo(float).eps * norm


def _negative_eigs(d, e, lo):
    """All negative eigenvalues, by LAPACK bisection on (lo, 0].

    lo is _tridiag's floor -max v - 1 - 4 ulp ||T||_1.  LAPACK starts its
    bisection at the higher of lo and its own Gershgorin end, which the
    row next to a Neumann end, (sqrt(2) + 1) / h^2 off its diagonal, puts
    near -0.41 / h^2 - max v; starting at lo saves about log2(0.4 / (h^2 max v))
    halvings per eigenvalue and ends at the same stop width.
    """
    if lo >= 0.0:
        return np.empty(0)
    vals = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=(lo, 0.0))
    return np.sort(vals)


def _second_step(ladder, d, e):
    """Second Richardson step on the raw eigenvalues of four levels.

    For the eigenvalues all four levels share, R1 = (4 E_j - E_{j-1}) / 3
    on three pairs of levels, and the value is R2 = (16 R1_k - R1_{k-1}) /
    15.  Its radius is |R1_k - R1_{k-1}| / 15 plus 4 ulp ||T||_1 of the
    finest matrix (d, e), the eigensolver's own tolerance.  Returns
    (values, radii, ordered); ordered marks the eigenvalues that pass the
    order check, the only ones the radius certifies.
    """
    n = min(len(level) for level in ladder)
    E = np.array([level[:n] for level in ladder])
    R1 = (4.0 * E[1:] - E[:-1]) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (R1[0] - R1[1]) / (R1[1] - R1[2])
    lo, hi = _ORDER_WINDOW
    rounding = _rounding(d, e)
    vals = (16.0 * R1[2] - R1[1]) / 15.0
    rads = np.abs(R1[2] - R1[1]) / 15.0 + rounding
    # each raw value lies within the finest level's rounding of its
    # matrix's eigenvalue, so R1_{k-1} - R1_k = (5 E_{k-1} - E_{k-2} -
    # 4 E_k) / 3 carries up to 10/3 of it: a ratio over no more than that
    # reads the eigensolver's rounding, not the order
    legible = np.abs(R1[1] - R1[2]) > 10.0 / 3.0 * rounding
    return vals, rads, (ratio >= lo) & (ratio <= hi) & legible


def _certified(vals, rads, tol: float) -> bool:
    """Every radius meets tol and leaves the sign of its value certain."""
    return bool(np.all(rads <= tol)) and bool(np.all(rads < np.abs(vals)))


def _jump_sum(V: Potential, a: float, b: float) -> float:
    """Sum of the sizes of V's jumps in the open interval (a, b); a jump at
    an end lies inside no grid cell."""
    return sum(d for x, d in V.jumps() if a < x < b)


def _effective_tol(tol: float, jumps: float, length: float) -> float:
    """tol raised to JUMP_TOL and 4 x the first-order floor when there are
    jumps; a tolerance so raised passes through unchanged."""
    if jumps > 0.0:
        floor = 0.5 * jumps * length / 2**LEVEL_MAX
        if 4.0 * floor >= 1.0:
            raise SolverError(f"jump sum {jumps:.6g} gives a first-order "
                              f"floor {floor:.3e}; 4 x floor must be < 1")
        return max(tol, JUMP_TOL, 4.0 * floor)
    return tol


def solve_interval(V: Potential, interval, bc="neumann",
                   tol: float = SOLVER_TOL) -> Spectrum:
    """All negative eigenvalues of -u'' - V u on a finite interval.

    bc is "neumann", "dirichlet", or a (left, right) pair.  Values above
    -10 tol are unresolvable and count as near-threshold candidates.  A V
    with pieces() and Neumann ends is shot exactly (_solve_exact) at tol
    as given; everything else takes the FD ladder.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need a finite interval with a < b")
    h = (b - a) / 2**LEVEL_MIN  # the coarsest grid's spacing
    if not math.isfinite(h * h):
        raise SolverError(f"[{a}, {b}] is too long for a finite-difference "
                          "grid")
    pair = (bc, bc) if isinstance(bc, str) else tuple(bc)
    pieces = V.pieces()
    if pieces is not None and pair == ("neumann", "neumann"):
        return _solve_exact(piece_steps(pieces, a, b), (True, True), tol)
    jumps = _jump_sum(V, a, b)
    tol = _effective_tol(tol, jumps, b - a)
    threshold = -10.0 * tol  # eigenvalues above this are unresolvable
    k = LEVEL_MIN
    # a pair of levels whose jump allowance exceeds tol certifies no
    # resolved eigenvalue: start one level below the first that fits
    while 0.5 * jumps * (b - a) / 2**(k + 1) > tol:
        k += 1
    # raw eigenvalues of the last four levels, coarsest first
    ladder = [_negative_eigs(*_tridiag(V, a, b, 2**k + 1, pair))]
    while True:
        k += 1
        d, e, lo = _tridiag(V, a, b, 2**k + 1, pair)
        ladder = ladder[-3:] + [_negative_eigs(d, e, lo)]
        coarse, fine = ladder[-2:]
        m = min(len(coarse), len(fine))
        vals = (4.0 * fine[:m] - coarse[:m]) / 3.0
        rads = np.abs(fine[:m] - coarse[:m]) / 3.0
        if jumps > 0.0:
            # cell averaging leaves an O(h) remainder whose sign oscillates
            # with the jump/grid alignment, so the extrapolation defect alone
            # is not a certificate; add an explicit first-order allowance
            rads = rads + 0.5 * jumps * (b - a) / 2**k
        keep = vals < threshold
        near = int(np.sum(~keep)) + max(len(fine), len(coarse)) - m
        ok = _certified(vals[keep], rads[keep], tol)
        if not ok and jumps == 0.0 and len(ladder) == 4:
            # the second step needs every resolved value to pass the order
            # check; unresolved values that pass it take it too, in the
            # near-threshold bound
            v2, r2, ordered = _second_step(ladder, d, e)
            n = len(v2)
            if np.all(ordered[keep[:n]]) and not np.any(keep[n:]):
                idx = np.flatnonzero(ordered)
                v, r = vals.copy(), rads.copy()
                v[idx], r[idx] = v2[idx], r2[idx]
                if _certified(v[keep], r[keep], tol):
                    vals, rads, ok = v, r, True
        if ok or k >= LEVEL_MAX:
            if not ok:
                raise SolverError(
                    f"grid budget exhausted: worst radius "
                    f"{float(np.max(rads[keep], initial=0.0)):.3e} "
                    f"> tol {tol:.1e}")
            bound = -threshold
            if near > 0:
                excl = np.abs(vals[~keep]) + rads[~keep]
                bound = max(bound, float(np.max(excl, initial=0.0)))
                for extra in (fine[m:], coarse[m:]):
                    if len(extra):
                        bound = max(bound, 2.0 * float(np.max(np.abs(extra))))
            return Spectrum(tuple(vals[keep]), tuple(rads[keep]), near, bound)


def _box(V: Potential, tol: float) -> float:
    tail_tol = max(tol * 1e-2, 1e-15)
    X = truncation_point(V, tail_tol)
    lo, hi = V.support()
    if math.isfinite(lo) and math.isfinite(hi):
        X += 1.0  # keep the ends outside supp V, which X already spans
    return X


def _tail_sup(V: Potential, X: float) -> float:
    """Coarse bound on sup |V| outside the box, folded into the radii."""
    lo, hi = V.support()
    sup = 0.0
    for x0 in (X, X * 1.5, X * 2.0):
        for s in (+1.0, -1.0):
            x = s * x0
            if lo <= x <= hi:
                a, b = V.domain
                if a <= x <= b:
                    sup = max(sup, abs(float(V.evaluate(x))))
    return sup


def _line_steps(V: Potential):
    """(length, value) steps of the exact path, or None for the FD path.

    Whole line: the pieces, shot from the left end of the first.  Half
    line: from x = 0.  V takes the FD path when it has no pieces().
    """
    pieces = V.pieces()
    if pieces is None:
        return None
    if not pieces:
        return []
    start = 0.0 if V.domain == HALF_LINE else pieces[0][0]
    return piece_steps(pieces, start, pieces[-1][1])


def _shoot(steps, E: float, ends) -> tuple[int, float]:
    """(N(E), g(E)) by exact propagation at energy E = -kappa^2 <= 0.

    ends = (left, right) marks each Neumann end; an unmarked end is the
    line's free tail.  The solution starts as e^{kappa x}, decaying to the
    left, with (u, u') = (1, kappa) (Neumann: (1, 0)).  Its zeros are
    counted exactly on each step (x_a, x_b]: by the Pruefer angle of
    (u, u'/w), which turns at the constant rate w = sqrt(V + E), where V + E
    > 0, and by sign change elsewhere, where a solution has at most one
    zero.  The right end matches on g = u' + kappa u (free tail) or g = u'
    (Neumann), and u g < 0 adds one to the count: the zero the free tail
    makes beyond the last step, or the Neumann state whose u' = 0 the
    angle has passed since the last zero of u.  By Sturm oscillation the
    count is N(E), the number of eigenvalues below E; g vanishes exactly
    at the eigenvalues.
    """
    kappa = math.sqrt(-E)
    left, right = ends
    u, du = 1.0, (0.0 if left else kappa)
    zeros = 0
    for d, v in steps:
        q = v + E
        # cut hyperbolic steps so that cosh stays far from overflow
        n = 1 if q >= 0.0 else max(1, math.ceil(math.sqrt(-q) * d / 50.0))
        m00, m01, m10, m11 = piece_step(d / n, q)
        for _ in range(n):
            u0, du0 = u, du
            u, du = m00 * u0 + m01 * du0, m10 * u0 + m11 * du0
            if q > 0.0:
                # the angle advances by exactly w d; the end data fix its
                # value mod 2 pi, the advance fixes the number of turns
                w = math.sqrt(q)
                start = math.atan2(u0, du0 / w)
                end = math.atan2(u, du / w)
                end += 2.0 * math.pi * round(
                    (start + w * d - end) / (2.0 * math.pi))
                zeros += math.floor(end / math.pi) \
                    - math.floor(start / math.pi)
            else:
                zeros += (u0 > 0.0 >= u) or (u0 < 0.0 <= u)
            # only the direction of (u, u') matters: keep it near unit size
            scale = max(abs(u), abs(du))
            u, du = u / scale, du / scale
    g = du if right else du + kappa * u
    return zeros + (u * g < 0.0), g


#: relative half-width of the first bracket checked around an exact root
EXACT_RTOL = 1e-12

#: the most states below -10 tol that exact shooting brackets; the tests
#: and the random piecewise seeds have fewer than a hundred, a square well
#: of depth v on [0, 1] about sqrt(v) / pi (31,831 at v = 1e10)
EXACT_STATES_MAX = 10**6


def _solve_exact(steps, ends, tol: float) -> Spectrum:
    """Negative spectrum of a piecewise-constant V by exact shooting
    between _shoot's ends.

    Eigenvalues below -eps, eps = 10 tol, are isolated by bisection on
    N(E) and found by Brent's method on g.  Each radius is the half-width
    of a bracket around the root on whose ends g was seen to change sign;
    eigenvalues closer than EXACT_RTOL share the bracket the counts put
    them in.  The N(0) - N(-eps) states in [-eps, 0) are near-threshold
    candidates with threshold eps.  More than EXACT_STATES_MAX states
    below -eps raise SolverError before any is bracketed.
    """
    eps = 10.0 * tol

    def count(E):
        return _shoot(steps, E, ends)[0]

    def g(E):
        return _shoot(steps, E, ends)[1]

    # -u'' - V u >= -max V, so every eigenvalue lies above -max V
    bottom = -max((v for _, v in steps), default=0.0)
    n = count(-eps) if bottom < -eps else 0
    if n > EXACT_STATES_MAX:
        raise SolverError(f"{n:.3g} states below {-eps:.0e} pass the budget "
                          f"of {EXACT_STATES_MAX} for exact shooting")
    # bisect on N until each bracket holds one eigenvalue, or several that
    # rounding cannot separate (a tunnelling pair split by ~e^{-kappa L})
    brackets, stack = [], [(bottom, -eps, 0, n)]
    while stack:
        a, b, na, nb = stack.pop()
        if nb - na == 1 or (nb > na and b - a <= EXACT_RTOL * abs(a)):
            brackets.append((a, b, nb - na))
        elif nb > na:
            mid = 0.5 * (a + b)
            nm = min(max(count(mid), na), nb)
            stack += [(a, mid, na, nm), (mid, b, nm, nb)]
    vals, rads = [], []
    for a, b, k in sorted(brackets):
        lo, hi = a, b
        if k == 1:
            # Brent stops well inside the EXACT_RTOL bracket checked next
            root = find_root(g, a, b, 1e-15, 1e-14)
            h = EXACT_RTOL * abs(root)
            lo, hi = max(root - h, a), min(root + h, b)
            while (lo, hi) != (a, b) and g(lo) * g(hi) > 0.0:
                h *= 10.0
                lo, hi = max(root - h, a), min(root + h, b)
        vals += [0.5 * (lo + hi)] * k
        rads += [0.5 * (hi - lo)] * k
    near = max(count(0.0) - n, 0)
    return Spectrum(tuple(vals), tuple(rads), near, eps)


def solve_line(V: Potential, tol: float = SOLVER_TOL) -> Spectrum:
    """Negative spectrum on the whole line (or Neumann half-line).

    A piecewise-constant V on either line is solved exactly by shooting
    (_solve_exact).  Any other V is truncated to [-X, X] (or [0, X]) with
    negligible discarded tail mass, and each eigenvalue is sandwiched
    between the Neumann-truncated problem (below) and the
    Dirichlet-truncated problem (above).  N_D <= N <= N_N, so every Neumann
    state the sandwich leaves unresolved is counted once as a
    near-threshold candidate, with its Neumann value as its worst case.
    """
    half = V.domain == HALF_LINE
    steps = _line_steps(V)
    if steps is not None:
        return _solve_exact(steps, (half, False), tol)
    X = _box(V, tol)
    a = 0.0 if half else -X
    tol = _effective_tol(tol, _jump_sum(V, a, X), X - a)
    # the half-line keeps its physical Neumann end at 0; only the
    # artificial truncation ends switch between Neumann and Dirichlet
    upper_bc = ("neumann", "dirichlet") if half else "dirichlet"
    lower = solve_interval(V, (a, X), "neumann", tol)
    upper = solve_interval(V, (a, X), upper_bc, tol)
    tail = _tail_sup(V, X)
    vals, rads = [], []
    bound = lower.threshold
    for i, (e, r) in enumerate(zip(lower.eigenvalues, lower.radii)):
        lo_i = e - r - tail
        if i < len(upper):
            up_i = upper.eigenvalues[i] + upper.radii[i] + tail
            mid = 0.5 * (lo_i + up_i)
            rad = 0.5 * (up_i - lo_i)
            if mid + rad < -10.0 * tol:
                vals.append(mid)
                rads.append(rad)
                continue
        bound = max(bound, abs(lo_i))
    near = len(lower) + lower.near_threshold - len(vals)
    return Spectrum(tuple(vals), tuple(rads), near, bound)


def riesz_mean(spec: Spectrum, gamma: float) -> RieszMean:
    """Sum of |E_i|^gamma with first-order propagation of the radii."""
    if gamma < 0.5:
        raise ValueError("gamma must be >= 1/2")
    value = sum((abs(e) ** gamma for e in spec.eigenvalues), 0.0)
    error = sum(gamma * abs(e) ** (gamma - 1.0) * r
                for e, r in zip(spec.eigenvalues, spec.radii))
    # unresolved near-threshold states contribute at most threshold^gamma
    error += spec.near_threshold * spec.threshold**gamma
    return RieszMean(value, error)
