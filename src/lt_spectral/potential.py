"""Potential families for one-dimensional Schroedinger operators.

Every potential is immutable after construction.  Integrals of V and V^p use
closed forms where the family admits one and adaptive quadrature otherwise
(absolute tolerance 1e-10).  Sampled potentials are zero outside their grid,
so all integrals are finite and their nonzero end values are jumps.

Each potential states its structure once.  The constant families (Zero,
SquareWell, PiecewiseConstant) are one piece list, from which jumps, exact
cell means, integrals and pieces() are read.  scaled, amplified and
half_view are one mapped wrapper V(x) = c * inner(s * x) that transforms
what its inner potential states, a half view keeping the jumps and pieces
on its own side; Sum adds up what its terms state.  jumps()
alone says where V is not smooth and by how much it jumps there (0 at a
kink, such as an interior grid point of Sampled): quadrature takes the
points as hints, scattering's cell propagator as cell edges, and the
finite-difference solver the sizes inside each interval it solves.
pieces() selects the exact paths, which read the piece list as given
(sorted, contiguous and inside support()) through piece_steps: transfer
matrices in scattering, and bound states on the whole or half line and
Neumann interval spectra in sturm.

The document format that from_json_dict reads::

    {"family": "square_well", "params": {"v": 3, "a": 0, "b": 2},
     "domain": "full_line"}

domain is "full_line" (the default) or "half_line": the operator acts on
the whole line or on [0, inf) with a Neumann end at 0.  Bounded intervals
are not a domain; they enter only as the bracketing intervals that
sturm.solve_interval takes as an argument.  A sum lives on its terms'
common domain and a wrapper on the one it makes of its inner potential's;
a domain these documents state must be that one.  params go to the
family's constructor by keyword, so the defaults live there and an unknown
key is a ValueError, as is a document key other than family, params and
domain, and a number anywhere in the document that is not a finite float.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Sequence

import numpy as np

from .numerics import Deferred

QUAD_ABS_TOL = 1e-10

quad = Deferred("scipy.integrate", "quad")

FULL_LINE = (-math.inf, math.inf)
HALF_LINE = (0.0, math.inf)


def _domain_tuple(domain) -> tuple[float, float]:
    if domain in ("full_line", None, FULL_LINE):
        return FULL_LINE
    if domain in ("half_line", HALF_LINE):
        return HALF_LINE
    raise ValueError(f"malformed domain {domain!r}: a potential lives on "
                     "the 'full_line' or the 'half_line'")


def _on_domain(domain, jumps) -> list[tuple[float, float]]:
    lo, hi = domain
    return [(x, d) for x, d in jumps if lo <= x <= hi]


class Potential:
    """Base class; subclasses implement pointwise evaluation and support.

    Potentials are immutable after construction: every attribute is set in
    __init__ and nothing changes it later.  Results cached per potential
    object, such as scattering's log integral, rely on that.
    """

    def __init__(self, domain="full_line"):
        self.domain = _domain_tuple(domain)

    # -- pointwise -------------------------------------------------------

    def _values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, x):
        """V(x) for a scalar or array x inside the domain; a scalar gives a
        float."""
        lo, hi = self.domain
        arr = np.asarray(x, dtype=float)
        if np.any(arr < lo) or np.any(arr > hi):
            raise ValueError("evaluation point outside domain")
        out = self._values(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    __call__ = evaluate

    def _value(self, x: float) -> float:
        """V(x) at one float x, without evaluate's domain check."""
        return float(self._values(np.array([x]))[0])

    # -- support and integrals -------------------------------------------

    def support(self) -> tuple[float, float]:
        """Smallest interval outside of which V vanishes (may be infinite)."""
        return self.domain

    def integrate(self, a=None, b=None) -> float:
        """Integral of V over [a, b] (defaults: the whole domain)."""
        a, b = self._clip_interval(a, b)
        return self._integral(a, b)

    def lp_integral(self, p: float) -> float:
        """Integral of V^p over the domain; requires V >= 0 and p >= 1."""
        if p < 1.0:
            raise ValueError("p must be >= 1")
        return self._lp(p, *self.domain)

    def _clip_interval(self, a, b):
        lo, hi = self.domain
        a = lo if a is None else float(a)
        b = hi if b is None else float(b)
        if a < lo or b > hi:
            raise ValueError("integration interval outside domain")
        return a, b

    def sign_masses(self) -> tuple[float, float]:
        """(int V_plus, int V_minus) over the domain: V = V_plus - V_minus."""
        if self.is_nonnegative():
            return self._integral(*self.domain), 0.0
        return self._sign_masses(*self.domain)

    def _sign_masses(self, a, b):
        # the masses of a V that is_nonnegative() does not vouch for
        return (self._quad(lambda v: max(v, 0.0), a, b),
                self._quad(lambda v: max(-v, 0.0), a, b))

    def _lp(self, p, a, b):
        if p == 1.0:
            return self._integral(a, b)

        def power(v):
            if v < -1e-13:
                raise ValueError("V < 0 encountered in V^p quadrature")
            return max(v, 0.0) ** p

        return self._quad(power, a, b)

    def _quad(self, g, a, b):
        """int g(V(x)) dx over [a, b] cut to support(), with the points of
        jumps() as hints.  quad takes hints only on a finite interval, so an
        infinite end is cut off at the outermost jump and integrated alone."""
        lo, hi = self.support()
        a, b = max(a, lo), min(b, hi)
        if not a < b:
            return 0.0

        def f(x):
            return g(self._value(x))

        pts = sorted({x for x, _ in self.jumps() if a < x < b})
        c = pts[0] if pts and math.isinf(a) else a
        d = pts[-1] if pts and math.isinf(b) else b
        inner = [x for x in pts if c < x < d]
        # quad needs limit >= len(points) + 2: 500 halvings beyond the hints
        val = quad(f, c, d, epsabs=QUAD_ABS_TOL, limit=500 + len(inner),
                   points=inner or None)[0] if c < d else 0.0
        for u, v in ((a, c), (d, b)):
            if u < v:
                val += quad(f, u, v, epsabs=QUAD_ABS_TOL, limit=500)[0]
        return val

    def cell_average(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Mean of V over the cells [lo_i, hi_i].

        Families with jump discontinuities override this with the exact
        antiderivative so grid-based solvers see the correct mass per cell;
        the default midpoint value is accurate for continuous families.
        """
        return self._values(0.5 * (lo + hi))

    def jumps(self) -> list[tuple[float, float]]:
        """(x, size) for every point x of the domain where V is not smooth,
        with size >= |V(x+) - V(x-)|, so 0 at a kink; empty when V is
        smooth."""
        return []

    def pieces(self) -> list[tuple[float, float, float]] | None:
        """(x0, x1, value) pieces when V is piecewise constant, else None.

        The pieces are sorted, of positive length, contiguous (each ends
        where the next begins) and inside support().  A potential with
        pieces takes the exact transfer path in scattering (Pruess's
        piecewise-constant method); the others are propagated on
        fourth-order Magnus cells, cut at jumps().
        """
        return None

    # -- algebra -----------------------------------------------------------

    def scaled(self, alpha: float) -> "Potential":
        """x -> alpha^2 V(alpha x), whose eigenvalues are alpha^2 times V's."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return _Mapped(self, alpha, alpha)

    def amplified(self, c: float) -> "Potential":
        """Pointwise multiple c*V (coupling constant, c >= 0)."""
        if c < 0:
            raise ValueError("coupling must be nonnegative")
        return _Mapped(self, 1.0, c)

    def half_view(self, side: int) -> "Potential":
        """x -> V(side*x) on [0, inf): one half of a whole-line potential."""
        if self.domain != FULL_LINE:
            raise ValueError("half_view requires a full-line domain")
        if side not in (+1, -1):
            raise ValueError("side must be +1 or -1")
        return _Mapped(self, side, 1.0, "half_line")

    def is_nonnegative(self) -> bool:
        """True when V >= 0 can be read off the family parameters."""
        return False


class PiecewiseConstant(Potential):
    """Constant values between strictly increasing breakpoints, zero outside.

    The piece list is the one description of the constant families: jumps,
    exact cell means, integrals and the pieces of the exact transfer path
    are all read off it.
    """

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float],
                 domain="full_line"):
        super().__init__(domain)
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or len(bp) != len(vals) + 1:
            raise ValueError("need len(breakpoints) == len(values) + 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints, self.values = bp, vals
        # zero on both sides of the pieces: V on [bp_k, bp_k+1) is padded[k+1]
        self._padded = np.concatenate(([0.0], vals, [0.0]))

    def _values(self, x):
        return self._padded[np.searchsorted(self.breakpoints, x,
                                            side="right")]

    def support(self):
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def _piece_overlaps(self, a, b):
        left = np.maximum(self.breakpoints[:-1], a)
        right = np.minimum(self.breakpoints[1:], b)
        return np.maximum(right - left, 0.0)

    def _integral(self, a, b):
        return float(np.dot(self.values, self._piece_overlaps(a, b)))

    def _lp(self, p, a, b):
        if np.any(self.values < 0):
            raise ValueError("V^p integral requires V >= 0")
        return float(np.dot(self.values**p, self._piece_overlaps(a, b)))

    def cell_average(self, lo, hi):
        # exact means from the piecewise-linear antiderivative
        cum = np.concatenate(
            ([0.0], np.cumsum(self.values * np.diff(self.breakpoints))))

        def anti(x):
            return np.interp(x, self.breakpoints, cum)

        return (anti(hi) - anti(lo)) / (hi - lo)

    def jumps(self):
        sizes = np.abs(np.diff(self._padded)).tolist()
        return _on_domain(self.domain, zip(self.breakpoints.tolist(), sizes))

    def pieces(self):
        return [(float(a), float(b), float(v)) for a, b, v in
                zip(self.breakpoints[:-1], self.breakpoints[1:], self.values)]

    def _sign_masses(self, a, b):
        overlaps = self._piece_overlaps(a, b)
        return (float(np.dot(np.maximum(self.values, 0.0), overlaps)),
                float(np.dot(np.maximum(-self.values, 0.0), overlaps)))

    def is_nonnegative(self):
        return bool(np.all(self.values >= 0))


class Zero(PiecewiseConstant):
    """The identically-zero potential: no pieces."""

    def __init__(self, domain="full_line"):
        super().__init__([0.0], [], domain)


class SquareWell(PiecewiseConstant):
    """Constant depth v on [a, b], zero elsewhere: one piece."""

    def __init__(self, v: float, a: float, b: float, domain="full_line"):
        if v <= 0:
            raise ValueError("square well depth must be positive")
        if not a < b:
            raise ValueError("need a < b")
        super().__init__((a, b), (v,), domain)


class PoschlTeller(Potential):
    """V(x) = nu(nu+1) alpha^2 sech^2(alpha (x - c)); reflectionless for
    integer nu, with bound states at -(alpha (nu - n))^2."""

    def __init__(self, nu: float, c: float = 0.0, alpha: float = 1.0,
                 domain="full_line"):
        super().__init__(domain)
        if nu <= 0 or alpha <= 0:
            raise ValueError("nu and alpha must be positive")
        self.nu, self.c, self.alpha = float(nu), float(c), float(alpha)

    def _values(self, x):
        # cosh overflows to inf for |alpha (x - c)| > 710, where V is 0
        with np.errstate(over="ignore"):
            return (self.nu * (self.nu + 1) * self.alpha**2
                    / np.cosh(self.alpha * (x - self.c)) ** 2)

    def _antiderivative(self, x):
        # of nu(nu+1) a^2 sech^2(a(x-c)):  nu(nu+1) a tanh(a(x-c)), which
        # math.tanh takes to +-1 at x = +-inf
        return self.nu * (self.nu + 1) * self.alpha * math.tanh(
            self.alpha * (x - self.c))

    def _integral(self, a, b):
        return self._antiderivative(b) - self._antiderivative(a)

    def _lp(self, p, a, b):
        if (a, b) == self.domain == FULL_LINE:
            # int sech^{2p} = sqrt(pi) Gamma(p) / Gamma(p + 1/2)
            amp = self.nu * (self.nu + 1) * self.alpha**2
            return (amp**p / self.alpha * math.sqrt(math.pi)
                    * math.gamma(p) / math.gamma(p + 0.5))
        return super()._lp(p, a, b)

    def is_nonnegative(self):
        return True


class Gaussian(Potential):
    """V(x) = amplitude * exp(-((x - center)/width)^2)."""

    def __init__(self, amplitude: float, center: float = 0.0,
                 width: float = 1.0, domain="full_line"):
        super().__init__(domain)
        if width <= 0:
            raise ValueError("width must be positive")
        self.amplitude = float(amplitude)
        self.center, self.width = float(center), float(width)

    def _values(self, x):
        return self.amplitude * np.exp(-(((x - self.center) / self.width) ** 2))

    def _integral(self, a, b):
        # math.erf takes the infinite ends to +-1
        w, c = self.width, self.center
        return self.amplitude * w * math.sqrt(math.pi) / 2 * (
            math.erf((b - c) / w) - math.erf((a - c) / w))

    def _lp(self, p, a, b):
        if self.amplitude < 0:
            raise ValueError("V^p integral requires V >= 0")
        if (a, b) == FULL_LINE:
            return self.amplitude**p * self.width * math.sqrt(math.pi / p)
        return super()._lp(p, a, b)

    def _sign_masses(self, a, b):
        mass = self._integral(a, b)
        return (mass, 0.0) if self.amplitude >= 0 else (0.0, -mass)

    def is_nonnegative(self):
        return self.amplitude >= 0


class Sampled(Potential):
    """Linear interpolation of samples on a strictly increasing grid;
    zero outside the grid (compact support by convention), so nonzero end
    values are jumps."""

    def __init__(self, grid: Sequence[float], values: Sequence[float],
                 domain="full_line"):
        super().__init__(domain)
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or len(g) < 2:
            raise ValueError("grid and values must be equal-length, len >= 2")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        self.grid, self.values = g, v
        self._cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))))

    def _values(self, x):
        inside = (x >= self.grid[0]) & (x <= self.grid[-1])
        return np.where(inside, np.interp(x, self.grid, self.values), 0.0)

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))

    def _antiderivative(self, x):
        # exact integral of the interpolant from the first grid point to x
        g, y = self.grid, self.values
        x = np.clip(x, g[0], g[-1])
        j = np.clip(np.searchsorted(g, x, side="right") - 1, 0, len(g) - 2)
        return self._cum[j] + 0.5 * (y[j] + np.interp(x, g, y)) * (x - g[j])

    def _integral(self, a, b):
        return float(self._antiderivative(b) - self._antiderivative(a))

    def cell_average(self, lo, hi):
        # exact means, also for cells that straddle an end jump
        return (self._antiderivative(hi) - self._antiderivative(lo)) \
            / (hi - lo)

    def jumps(self):
        # the end values are jumps; the interior grid points are kinks
        g, v = self.grid.tolist(), self.values
        sizes = [abs(float(v[0]))] + [0.0] * (len(g) - 2) + [abs(float(v[-1]))]
        return _on_domain(self.domain, zip(g, sizes))

    def _segments(self, a, b):
        # (h, y1, y2): width and end values of the interpolant's linear
        # segments on [a, b] cut to the grid
        a, b = max(a, self.grid[0]), min(b, self.grid[-1])
        xs = np.concatenate(([a],
                             self.grid[(self.grid > a) & (self.grid < b)],
                             [b]))
        ys = np.interp(xs, self.grid, self.values)
        return np.maximum(np.diff(xs), 0.0), ys[:-1], ys[1:]

    def _sign_masses(self, a, b):
        # exact: a segment whose ends differ in sign splits at its zero, so
        # its positive part is h y_+^2 / (2 |y2 - y1|)
        h, y1, y2 = self._segments(a, b)
        split = y1 * y2 < 0
        den = np.where(split, 2.0 * np.abs(y2 - y1), 2.0)

        def mass(u1, u2):
            u1, u2 = np.maximum(u1, 0.0), np.maximum(u2, 0.0)
            return float(np.sum(h * np.where(split, u1**2 + u2**2, u1 + u2)
                                / den))

        return mass(y1, y2), mass(-y1, -y2)

    def _lp(self, p, a, b):
        if np.any(self.values < 0):
            raise ValueError("V^p integral requires V >= 0")
        h, y1, y2 = self._segments(a, b)
        # exact integral of (linear segment)^p,
        # h (y2^{p+1} - y1^{p+1}) / ((p+1)(y2 - y1)), written about the
        # larger end m as h m^p expm1((p+1) log1p(r)) / ((p+1) r) with
        # r = (min - m)/m in [-1, 0], so that close ends do not cancel; at
        # r = 0 the mean is m^p
        m = np.maximum(y1, y2)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (np.minimum(y1, y2) - m) / m
            mean = np.expm1((p + 1) * np.log1p(r)) / ((p + 1) * r)
        return float(np.sum(h * m**p * np.where(r < 0.0, mean, 1.0)))

    def is_nonnegative(self):
        return bool(np.all(self.values >= 0))


class Sum(Potential):
    """Pointwise sum of potentials on their common domain."""

    def __init__(self, terms: Sequence[Potential]):
        if not terms:
            raise ValueError("sum needs at least one term")
        if any(t.domain != terms[0].domain for t in terms):
            raise ValueError("the terms of a sum must share one domain")
        super().__init__(terms[0].domain)
        self.terms = tuple(terms)

    def _values(self, x):
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t._values(x)
        return out

    def support(self):
        los, his = zip(*(t.support() for t in self.terms))
        return (min(los), max(his))

    def _integral(self, a, b):
        return sum(t._integral(a, b) for t in self.terms)

    def cell_average(self, lo, hi):
        out = np.zeros_like(np.asarray(lo, dtype=float))
        for t in self.terms:
            out = out + t.cell_average(lo, hi)
        return out

    def jumps(self):
        # sizes at a shared point add up, which still bounds the jump there
        return _on_domain(self.domain, (j for t in self.terms
                                        for j in t.jumps()))

    def pieces(self):
        parts = [t.pieces() for t in self.terms]
        if any(p is None for p in parts):
            return None
        # cut at every term's edges; each cut piece adds the terms' values
        edges = sorted({e for p in parts for a, b, _ in p for e in (a, b)})
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            val = sum(v for p in parts for x0, x1, v in p if x0 <= mid <= x1)
            out.append((a, b, val))
        return out

    def is_nonnegative(self):
        return all(t.is_nonnegative() for t in self.terms)


class _Mapped(Potential):
    """V(x) = c * inner(s * x), with c = mass * |s|.

    mass is the factor on integrals: the integral of V over [a, b] is mass
    times that of inner over the image of [a, b].  scaled(alpha) is
    s = mass = alpha (so c = alpha^2), amplified(c) is s = 1, mass = c, and
    half_view(side) is s = side, mass = 1 restricted to the half line.
    """

    def __init__(self, inner: Potential, s: float, mass: float, domain=None):
        self.inner, self.s, self.mass = inner, float(s), float(mass)
        self.c = self.mass * abs(self.s)
        image = tuple(sorted(q / self.s for q in inner.domain))
        super().__init__(image if domain is None else domain)

    def _image(self, a, b):
        # image of [a, b] under x -> s*x, as an ordered interval
        return (self.s * a, self.s * b) if self.s > 0 else \
            (self.s * b, self.s * a)

    def _values(self, x):
        return self.c * self.inner._values(self.s * x)

    def support(self):
        lo, hi = sorted(q / self.s for q in self.inner.support())
        # every domain ends at +inf; a half view starts at 0
        a = self.domain[0]
        return (max(lo, a), max(hi, a))

    def _integral(self, a, b):
        return self.mass * self.inner._integral(*self._image(a, b))

    def _lp(self, p, a, b):
        return self.mass * self.c ** (p - 1.0) * self.inner._lp(
            p, *self._image(a, b))

    def cell_average(self, lo, hi):
        return self.c * self.inner.cell_average(*self._image(lo, hi))

    def jumps(self):
        # a half view keeps only the jumps on its own side
        return _on_domain(self.domain, ((x / self.s, self.c * d)
                                        for x, d in self.inner.jumps()))

    def pieces(self):
        inner = self.inner.pieces()
        if inner is None:
            return None
        # s < 0 reverses the order; a half view keeps what lies past 0
        lo = self.domain[0]
        out = []
        for a, b, v in inner[::1 if self.s > 0 else -1]:
            a, b = sorted((a / self.s, b / self.s))
            if b > lo:
                out.append((max(a, lo), b, self.c * v))
        return out

    def is_nonnegative(self):
        return self.inner.is_nonnegative()

    def _sign_masses(self, a, b):
        return tuple(self.mass * m
                     for m in self.inner._sign_masses(*self._image(a, b)))


#: the families whose params are their constructor's keyword arguments
_FAMILIES = {"zero": Zero, "square_well": SquareWell,
             "poschl_teller": PoschlTeller, "gaussian": Gaussian,
             "piecewise_constant": PiecewiseConstant, "sampled": Sampled}

#: the wrappers, named after their Potential method, by the one parameter
#: that their params hold beside inner
_WRAPPERS = {"scaled": "alpha", "amplified": "c", "half_view": "side"}


def _check_finite(obj, key="document"):
    """Raise ValueError naming the key of a number in obj that is not a
    finite float; json reads NaN, Infinity, 1e400 (as inf) and integers
    of any size without complaint."""
    if isinstance(obj, (int, float)) and not abs(obj) <= sys.float_info.max:
        raise ValueError(f"{key}: {obj!r:.40} is not a finite float")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, k)
    elif isinstance(obj, list):
        for v in obj:
            _check_finite(v, key)


def from_json_dict(doc: dict) -> Potential:
    """Build a potential from its JSON document, the one door for outside
    input: any malformed document raises ValueError, an unknown key in it
    or in its params, a non-finite number, a stated domain that the
    potential built does not have and a total mass int |V| that underflows
    included."""
    V = _from_doc(doc)
    mass = sum(V.sign_masses())
    if 0.0 < mass < sys.float_info.min:
        raise ValueError(f"int |V| = {mass:.3g} underflows: it is below "
                         f"the least normal float {sys.float_info.min:.3g}")
    return V


def _from_doc(doc: dict) -> Potential:
    _check_finite(doc)
    params = doc.get("params", {}) if isinstance(doc, dict) else None
    if not isinstance(params, dict):
        raise ValueError("a potential document and its params must be "
                         "JSON objects")
    extra = sorted(set(doc) - {"family", "params", "domain"})
    if extra:
        raise ValueError(f"unknown document key(s) {extra}")
    family = doc.get("family")
    V = _build(family, params, doc.get("domain", "full_line"))
    if "domain" in doc and V.domain != _domain_tuple(doc["domain"]):
        line = "full_line" if V.domain == FULL_LINE else "half_line"
        raise ValueError(f"{family} document states domain "
                         f"{doc['domain']!r}, but its potential lives on "
                         f"the {line}")
    return V


def _build(family, params: dict, domain) -> Potential:
    try:
        if family in _FAMILIES:
            return _FAMILIES[family](**params, domain=domain)
        if family == "sum":
            terms = [_from_doc(t) for t in params["terms"]]
            return Sum(**{**params, "terms": terms})
        if family in _WRAPPERS:
            key = _WRAPPERS[family]
            if set(params) != {"inner", key}:
                raise ValueError(f"{family} takes inner and {key}, "
                                 f"not {sorted(params)}")
            return getattr(_from_doc(params["inner"]), family)(
                params[key])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{family}: bad or missing parameter {exc}") from None
    raise ValueError(f"unknown potential family: {family!r}")


def load(path) -> Potential:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


#: the smallest box half-width truncation_point returns
TRUNCATION_X_MIN = 10.0


def truncation_point(V: Potential, tail_tol: float) -> float:
    """Smallest convenient X >= TRUNCATION_X_MIN with integral of V outside
    [-X, X] < tail_tol."""
    lo, hi = V.support()
    if math.isfinite(lo) and math.isfinite(hi):
        return max(abs(lo), abs(hi), TRUNCATION_X_MIN)
    X = TRUNCATION_X_MIN
    for _ in range(200):
        tail = 0.0
        if hi > X:
            tail += abs(V.integrate(X, math.inf))
        if lo < -X and V.domain == FULL_LINE:
            tail += abs(V.integrate(-math.inf, -X))
        if tail < tail_tol:
            return X
        X *= 1.5
    raise ValueError("potential tail does not decay to the requested mass")


def piece_steps(pieces, a: float, b: float) -> list[tuple[float, float]]:
    """(length, value) steps of a pieces() list from a to b.

    V is zero between and outside the pieces, so free steps fill the gap
    from a to the first piece and from the last piece to b; pieces are cut
    at a and at b.
    """
    steps, x = [], a
    for p0, p1, v in pieces:
        p0, p1 = max(p0, x), min(p1, b)
        if p1 > p0:
            if p0 > x:
                steps.append((p0 - x, 0.0))
            steps.append((p1 - p0, v))
            x = p1
    if b > x:
        steps.append((b - x, 0.0))
    return steps
