"""Shared numerical kernels: root finding, 1D minimization, quadrature, the
constant-coefficient step propagator, Gamma.

All routines are pure functions of their arguments and safe for concurrent
use.  The double-exponential (tanh-sinh) rule serves the numeric route to
the K-functional weight Theta, whose half lines and pieces carry endpoint
behaviour that varies with eta; the closed route sums a series and shares
no rule with it; each of its nodes is computed where the rule uses it.
find_root and minimize_1d run scipy's brentq and bounded minimize_scalar
loops on Python floats, and a Deferred imports a scipy routine on its first
call, so importing this module loads neither scipy nor numpy.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable


class NumericsError(Exception):
    """Raised when a kernel, solver or check cannot meet its contract.

    The root of every numerical failure (the CLI's exit code 2).
    """


class BracketError(NumericsError):
    """The supplied bracket does not straddle a root."""


class DivergenceError(NumericsError):
    """Quadrature value grows without bound across refinement levels."""


class InvariantError(NumericsError):
    """A computed result object failed its own consistency check."""


#: iteration budget of find_root and minimize_1d
MAX_ITER = 200
#: minimize_1d's absolute tolerance on the argmin
MIN_XATOL = 1e-10
#: integrate_de stops when successive levels differ by at most
#: DE_ABS + DE_REL * |value|
DE_ABS = DE_REL = 1e-10


def find_root(f: Callable[[float], float], lo: float, hi: float,
              xtol: float, rtol: float) -> float:
    """Root of f on [lo, hi]; f(lo) and f(hi) must not have the same sign.

    Brent's method with a guaranteed bisection fallback, scipy's brentq loop,
    stopped at xtol + rtol * |root| inside the initial bracket.  A NaN value
    of f raises ValueError, no convergence in MAX_ITER steps RuntimeError.
    """
    lo, hi = float(lo), float(hi)
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.isnan(flo) or math.isnan(fhi):
        raise ValueError(f"f is NaN at an end of [{lo}, {hi}]")
    if (flo < 0.0) == (fhi < 0.0):  # flo * fhi would underflow
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    # brentq refuses rtol below 4 ulp(1)
    return _brentq(f, lo, hi, flo, fhi, xtol, max(rtol, 4 * math.ulp(1.0)))


def _brentq(f, xpre, xcur, fpre, fcur, xtol, rtol):
    # scipy's brentq.c with maxiter MAX_ITER: the same iterates, in the same
    # operation order, from f(xpre) and f(xcur) nonzero and of opposite signs
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # a bisection
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass  # C's inf or nan, which bisects
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"f is NaN at x={xcur}")
    raise RuntimeError(f"Failed to converge after {MAX_ITER} iterations.")


class Deferred:
    """The routine module.name, imported on its first call.  Not a function:
    the benchmark's tracer times it as that routine, not as its binder's."""

    def __init__(self, module: str, name: str):
        self.module, self.__name__, self._fn = module, name, None

    def __call__(self, *args, **kwargs):
        if self._fn is None:
            self._fn = getattr(importlib.import_module(self.module),
                               self.__name__)
        return self._fn(*args, **kwargs)


def minimize_1d(f: Callable[[float], float], lo: float,
                hi: float) -> tuple[float, float]:
    """Minimum of f on [lo, hi]: golden section with parabolic refinement.

    Returns (argmin, min).  Intended for the unimodal integrands used by the
    constant bounds; on multimodal input it returns a local minimum.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    x, fx = _bounded_brent(f, lo, hi)
    if not math.isfinite(fx):
        raise NumericsError("non-finite function value in bracket")
    # polish against the endpoints, bounded search can stall at the rim
    for xe in (float(lo), float(hi)):
        fe = f(xe)
        if fe < fx:
            x, fx = xe, fe
    return x, fx


def _bounded_brent(f, a, b):
    # Brent's bounded minimisation as scipy's minimize_scalar(method=
    # "bounded") runs it, with xatol MIN_XATOL and maxfun MAX_ITER: the
    # same iterates, on Python floats and with comparisons for the signs.
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    sqrt_eps = math.sqrt(2.2e-16)
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + MIN_XATOL / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:  # a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                parabolic = True
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:  # a golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if num >= MAX_ITER:
            break
    return float(xf), float(fx)


#: the tanh-sinh rule halves its step DE_LEVELS times below h = 1, and its
#: nodes reach t = DE_T_MAX: a singularity x^{-s} with s near 1 decays at the
#: nodes like exp(-(1-s)*pi*sinh(t)), so t must reach ~6
DE_LEVELS = 12
DE_T_MAX = 6.5


def _half_line(a):
    # the node (x, w) at t of the map x = a + exp(pi/2 sinh t) onto (a, inf)
    def node(t):
        s = 0.5 * math.pi * math.sinh(t)
        e = math.exp(s) if s <= 700.0 else math.inf  # x = inf is skipped
        return a + e, 0.5 * math.pi * math.cosh(t) * e

    return node


def _de_levels(f, node, a, b):
    # the tanh-sinh sums over the nodes (x, w) = node(t), level by level
    def term(t):
        x, w = node(t)
        if not (a < x < b) or w == 0.0 or not math.isfinite(w):
            return 0.0
        fx = f(x)
        if not math.isfinite(fx):
            return 0.0  # endpoint-singular overflow at a saturated node
        return w * fx

    h = 1.0
    total = term(0.0)
    for k in range(1, int(DE_T_MAX) + 1):
        total += term(k * h) + term(-k * h)
    value = h * total
    prev = math.inf
    for level in range(1, DE_LEVELS + 1):
        h *= 0.5
        add = 0.0
        for k in range(1, int(DE_T_MAX / h) + 1, 2):  # the odd multiples
            add += term(k * h) + term(-k * h)
        total += add
        new_value = h * total
        err = abs(new_value - value)
        if err <= DE_ABS + DE_REL * abs(new_value):
            return new_value
        if abs(new_value) > 1e12 and abs(new_value) > 10.0 * abs(prev):
            raise DivergenceError("integral appears to diverge")
        prev = value
        value = new_value
    # Convergent integrands settle well before the level budget; a residual
    # far above tolerance means the refinements keep adding mass.
    if err > 1e-6 * (1.0 + abs(value)):
        raise DivergenceError("integral appears to diverge")
    return value


def integrate_de(f: Callable[[float], float], a: float, b: float) -> float:
    """Double-exponential quadrature of f over (a, b).

    Endpoints may be infinite (the whole line is split at 0 into two half
    lines); integrable endpoint singularities are handled by the node
    clustering of the tanh-sinh map.  A NaN bound raises ValueError.
    Raises DivergenceError when the value keeps growing across refinement
    levels.

    Singular endpoints should be placed at 0 (substitute if needed): nodes
    carry the exact distance to a zero endpoint, while near a nonzero
    endpoint e the distance is quantized at eps * |e|, which caps the
    accuracy for singular integrands at roughly eps^(1-s) for an x^(-s)
    blow-up.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError(f"integrate_de bound is NaN: ({a}, {b})")
    if a == b:
        return 0.0
    if a > b:
        return -integrate_de(f, b, a)
    if math.isinf(a) and math.isinf(b):
        return (_de_levels(lambda x: f(-x), _half_line(0.0), 0.0, b)
                + _de_levels(f, _half_line(0.0), 0.0, b))
    if math.isinf(a):
        return _de_levels(lambda x: f(-x), _half_line(-b), -b, math.inf)
    if math.isinf(b):
        return _de_levels(f, _half_line(a), a, b)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    h2, hw = half * 2.0, half * 0.5 * math.pi

    def node(t):
        # d, the distance from the nearer end, avoids cancellation:
        # 1 - tanh|s| = 2 / (1 + exp(2|s|)); past |s| = 350 the weight is 0
        s = 0.5 * math.pi * math.sinh(t)
        if abs(s) > 350.0:
            return mid, 0.0
        d = h2 / (1.0 + math.exp(2.0 * abs(s)))
        x = (a + d) if t < 0.0 else (b - d) if t > 0.0 else mid
        return x, hw * math.cosh(t) / math.cosh(s) ** 2

    return _de_levels(f, node, a, b)


def piece_step(d: float, q: float) -> tuple[float, float, float, float]:
    """Propagator of u'' = -q u over a step of length d, acting on (u, u').

    Returns the matrix entries (m00, m01, m10, m11) row by row: rotation
    for q > 0, hyperbolic for q < 0, shear for q = 0.  Its determinant
    is 1 up to rounding.
    """
    if q > 0.0:
        w = math.sqrt(q)
        c, s = math.cos(w * d), math.sin(w * d)
        return c, s / w, -w * s, c
    if q < 0.0:
        m = math.sqrt(-q)
        c, s = math.cosh(m * d), math.sinh(m * d)
        return c, s / m, m * s, c
    return 1.0, d, 0.0, 1.0


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0 (Lanczos-quality, relative error < 1e-12)."""
    if x <= 0.0:
        raise ValueError("gamma_fn requires x > 0")
    return math.gamma(x)
