"""Shared numerical kernels: root finding, 1D minimization, quadrature, the
constant-coefficient step propagator (one step or many at once), Gamma.

All routines are pure functions of their arguments and safe for concurrent
use.  The double-exponential (tanh-sinh) rule is implemented here because
several integrands downstream carry endpoint singularities whose exponent
varies with a parameter; one kernel covers them all.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import optimize


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

    Brent's method with a guaranteed bisection fallback (scipy brentq),
    stopped at xtol + rtol * |root|.  The result always lies inside the
    initial bracket.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    # brentq refuses rtol below 4 ulp(1)
    rtol = max(rtol, 4 * math.ulp(1.0))
    return float(optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol,
                                 maxiter=MAX_ITER))


def minimize_1d(f: Callable[[float], float], lo: float,
                hi: float) -> tuple[float, float]:
    """Minimum of f on [lo, hi]: golden section with parabolic refinement.

    Returns (argmin, min).  Intended for the unimodal integrands used by the
    constant bounds; on multimodal input it returns a local minimum.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    res = optimize.minimize_scalar(
        f, bounds=(lo, hi), method="bounded",
        options={"xatol": MIN_XATOL, "maxiter": MAX_ITER})
    x = float(res.x)
    fx = float(res.fun)
    if not math.isfinite(fx):
        raise NumericsError("non-finite function value in bracket")
    # polish against the endpoints, bounded search can stall at the rim
    for xe in (lo, hi):
        fe = f(xe)
        if fe < fx:
            x, fx = xe, fe
    return x, fx


def _tanhsinh_finite(f, a, b):
    """tanh-sinh rule on a finite interval, doubling levels until converged."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def node(t):
        s = 0.5 * math.pi * math.sinh(t)
        if abs(s) > 350.0:
            return None
        # distance from the nearer endpoint, computed without cancellation:
        # 1 - tanh(|s|) = 2 / (1 + exp(2|s|))
        d = half * 2.0 / (1.0 + math.exp(2.0 * abs(s)))
        x = (a + d) if t < 0.0 else (b - d) if t > 0.0 else mid
        w = half * 0.5 * math.pi * math.cosh(t) / math.cosh(s) ** 2
        return x, w

    return _de_levels(f, node, a, b)


def _tanhsinh_semi(f, a):
    """tanh-sinh rule on [a, inf) via x = a + exp(pi/2 sinh t)."""

    def node(t):
        s = 0.5 * math.pi * math.sinh(t)
        if s > 700.0:
            return None
        e = math.exp(s)
        x = a + e
        w = 0.5 * math.pi * math.cosh(t) * e
        return x, w

    return _de_levels(f, node, a, math.inf)


def _de_levels(f, node, a, b):
    # Endpoint singularities x^{-s} with s near 1 need deep tails: the node
    # contribution decays like exp(-(1-s)*pi*sinh(t)), so t must reach ~6.
    t_max = 6.5

    def eval_at(t):
        nw = node(t)
        if nw is None:
            return 0.0
        x, w = nw
        if not (a < x < b) or w == 0.0 or not math.isfinite(w):
            return 0.0
        fx = f(x)
        if not math.isfinite(fx):
            return 0.0  # endpoint-singular overflow at a saturated node
        return w * fx

    h = 1.0
    total = eval_at(0.0)
    k = 1
    while k * h <= t_max:
        total += eval_at(k * h) + eval_at(-k * h)
        k += 1
    value = h * total
    prev = math.inf
    for _level in range(12):
        h *= 0.5
        add = 0.0
        t = h
        while t <= t_max:
            add += eval_at(t) + eval_at(-t)
            t += 2.0 * h
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
    clustering of the tanh-sinh map.  Raises DivergenceError when the value
    keeps growing across refinement levels.

    Singular endpoints should be placed at 0 (substitute if needed): nodes
    carry the exact distance to a zero endpoint, while near a nonzero
    endpoint e the distance is quantized at eps * |e|, which caps the
    accuracy for singular integrands at roughly eps^(1-s) for an x^(-s)
    blow-up.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_de(f, b, a)
    if math.isinf(a) and math.isinf(b):
        return _tanhsinh_semi(lambda x: f(-x), 0.0) + _tanhsinh_semi(f, 0.0)
    if math.isinf(b):
        return _tanhsinh_semi(f, a)
    if math.isinf(a):
        return _tanhsinh_semi(lambda x: f(-x), -b)
    return _tanhsinh_finite(f, a, b)


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


def piece_step_array(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """piece_step of the steps (d[i], q[i]) at once: an (n, 2, 2) array of
    their matrices."""
    d, q = np.asarray(d, dtype=float), np.asarray(q, dtype=float)
    w = np.sqrt(np.abs(q))
    wd = w * d
    c, s = np.cos(wd), np.sin(wd)
    hyp = q < 0.0
    if hyp.any():
        c[hyp], s[hyp] = np.cosh(wd[hyp]), np.sinh(wd[hyp])
    # s / w tends to d as q -> 0: the shear
    m01 = np.divide(s, w, out=d.copy(), where=w > 0.0)
    m10 = np.where(hyp, w * s, -w * s)
    return np.stack([c, m01, m10, c], axis=-1).reshape(-1, 2, 2)


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0 (Lanczos-quality, relative error < 1e-12)."""
    if x <= 0.0:
        raise ValueError("gamma_fn requires x > 0")
    return math.gamma(x)
