"""Constant bounds for eigenvalue-moment inequalities in one dimension.

Everything here is a function of the moment exponent gamma in [1/2, 3/2]
(equivalently eta = gamma - 1/2 in [0, 1]):

* classical_constant      -- semiclassical phase-space value
* lt_constant             -- the original Lieb-Thirring bound
* ggm_constant            -- Glaser-Grosse-Martin bound (minimized over m)
* one_state_constant      -- sharp single-bound-state lower bound
* star_constant           -- monotonicity bound 4*varsigma(3)/3 * classical
* char_interp_constant    -- complex-interpolation bound (characteristic
                             function potentials only)
* doublestar_constant     -- real-interpolation (K-functional) bound
* crossover               -- gamma above which doublestar beats star
* density_constants       -- conversions to kinetic-energy density constants

The building blocks are the function x*tanh(x), its inverse, the
K-functional weight integral Theta(eta, p0, p1), and the discrete
factor M(eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (NumericsError, find_root, gamma_fn, integrate_de,
                       minimize_1d)

#: lower limit of u in the closed-form Theta(eta, 1/2, 3/2) integrals
U0 = math.sqrt(2.0 / (2.0 + math.sqrt(3.0)))


def theta_fn(x: float) -> float:
    """x * tanh(x); strictly increasing on x >= 0."""
    if x < 0:
        raise ValueError("theta_fn requires x >= 0")
    return x * math.tanh(x)


def varsigma(y: float) -> float:
    """Inverse of x*tanh(x): the unique x >= 0 with x*tanh(x) = y."""
    if y < 0:
        raise ValueError("varsigma requires y >= 0")
    if y == 0.0:
        return 0.0
    if y < 0.5:
        # the root r t lies near r = sqrt(y), with t in [1/2, 2] since
        # x^2 (1 - x^2 / 3) <= x*tanh(x) <= x^2; the tolerance and the
        # equation x*tanh(x) / y = 1 scale with r, so no absolute xtol
        # swamps the root and no subnormal x*tanh(x) rounds it
        r = math.sqrt(y)
        return find_root(lambda x: (x / r) * (math.tanh(x) / r) - 1.0,
                         0.5 * r, 2.0 * r, 1e-15 * r, 0.0)
    # x*tanh(x) >= x - 1, so the root lies in [0, y + 2]; find_root floors
    # rtol at 4 ulp(1), which leaves varsigma(3) correctly rounded
    return find_root(lambda x: x * math.tanh(x) - y, 0.0, y + 2.0,
                     1e-15, 0.0)


VARSIGMA_3 = varsigma(3.0)

#: varsigma(3)/3, the paper's bound on L_{1/2,1}
L_HALF = VARSIGMA_3 / 3.0


def classical_constant(gamma: float) -> float:
    """Gamma(g+1) / (2 sqrt(pi) Gamma(g+3/2))."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return gamma_fn(gamma + 1.0) / (2.0 * math.sqrt(math.pi)
                                    * gamma_fn(gamma + 1.5))


def lt_constant(gamma: float) -> float:
    """gamma^{gamma+1} / (sqrt(2) (gamma-1/2)^{gamma+1/2} (gamma+1/2))."""
    if gamma <= 0.5:
        raise ValueError("lt_constant diverges for gamma <= 1/2")
    return (gamma ** (gamma + 1.0)
            / (math.sqrt(2.0) * (gamma - 0.5) ** (gamma + 0.5)
               * (gamma + 0.5)))


def _ggm_integrand(m: float, gamma: float) -> float:
    return ((m - 1.0) ** (m - 1.0) * gamma_fn(2.0 * m)
            * gamma ** (gamma + 1.0) * gamma_fn(gamma + 0.5 - m)
            / (2.0 ** (2.0 * m - 1.0) * m ** (m - 1.0) * gamma_fn(m)
               * gamma_fn(gamma + 1.5) * (m - 0.5) ** (m - 0.5)
               * (gamma + 0.5 - m) ** (gamma + 0.5 - m)))


def ggm_constant(gamma: float) -> float:
    """Glaser-Grosse-Martin bound: minimum over m in (1, min(3/2, g+1/2)).

    As m -> 1+ the integrand tends to L_LT, a limit of feasible values and
    so a bound too.  Near gamma = 1/2 the minimum lies within the margin
    of m = 1, and L_LT undercuts what the minimiser finds."""
    hi = min(1.5, gamma + 0.5)
    if hi <= 1.0:
        raise ValueError("feasible m-range is empty for gamma <= 1/2")
    margin = 1e-6  # stay clear of the Gamma pole at m = gamma + 1/2
    _, val = minimize_1d(lambda m: _ggm_integrand(m, gamma),
                         1.0 + margin, hi - margin)
    return min(val, lt_constant(gamma))


def one_state_constant(gamma: float) -> float:
    """Sharp constant for a single bound state:
    2 L^cl (gamma-1/2)^{gamma-1/2} / (gamma+1/2)^{gamma-1/2}, with the
    gamma = 1/2 limit taken as 0^0 = 1 (value 1/2)."""
    if gamma < 0.5:
        raise ValueError("gamma must be >= 1/2")
    if gamma == 0.5:
        return 2.0 * classical_constant(0.5)
    return (2.0 * classical_constant(gamma)
            * ((gamma - 0.5) / (gamma + 0.5)) ** (gamma - 0.5))


def star_constant(gamma: float) -> float:
    """4 varsigma(3)/3 times the classical constant."""
    if not 0.5 <= gamma <= 1.5:
        raise ValueError("gamma must lie in [1/2, 3/2]")
    return 4.0 * VARSIGMA_3 / 3.0 * classical_constant(gamma)


def char_interp_constant(gamma: float) -> float:
    """(varsigma(3)/3)^{3/2-gamma} (3/16)^{gamma-1/2}; valid for potentials
    proportional to characteristic functions."""
    if not 0.5 <= gamma <= 1.5:
        raise ValueError("gamma must lie in [1/2, 3/2]")
    return L_HALF ** (1.5 - gamma) * (3.0 / 16.0) ** (gamma - 0.5)


@dataclass(frozen=True)
class ThetaParams:
    """Parameters of the K-functional weight Theta(eta, p0, p1)."""

    eta: float
    p0: float
    p1: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not (math.isfinite(self.p0) and math.isfinite(self.p1)):
            raise ValueError("p0 and p1 must be finite")
        if self.p0 <= 0 or self.p1 <= 0 or self.p0 == self.p1:
            raise ValueError("need p0, p1 > 0 and p0 != p1")


#: crossover abscissa where the inner infimum leaves the diagonal branch
T_STAR = 2.0 / 3.0 * math.sqrt(1.0 + 2.0 / math.sqrt(3.0))
#: cap on the terms of the closed Theta(eta, 1/2, 3/2) series; about 20 do
_THETA_TERMS = 40


def _theta_half_threehalf_closed(eta: float) -> float:
    # Exact evaluation of the defining double integral for (p0, p1) =
    # (1/2, 3/2).  The inner infimum equals t for t <= T_STAR; beyond that
    # it follows the interior critical branch, which parametrized by
    # u = 1 - 2y reduces the outer integral to a single u-integral:
    #   (sqrt(2)/3) (3/2)^eta int_{u0}^1 u (2+u) (1-u)^{(eta-2)/2}
    #                                 (1+u)^{(eta-3)/2} du.
    # (This is a corrected coefficient pattern; the numeric route's
    # quadrature of the defining integral agrees with it for all eta.)
    # In v = 1 - u the integrand is v^{s-1} g(v) with s = eta/2, c = 1 - u0
    # and g(v) = (1-v)(3-v)(2-v)^p, p = (eta-3)/2.  The binomial series
    # (2-v)^p = 2^p sum t_m v^m, t_m = t_{m-1} (m-1-p)/(2m), gives
    # g = 2^p sum a_m v^m with a_m = 3 t_m - 4 t_{m-1} + t_{m-2}, so, with
    # the prefactor folded in as (sqrt(2)/3) (3/2)^eta 2^p c^s = (9c/2)^s/6,
    #   second = (9c/2)^s / 6 * (3/s + sum_{m>=1} a_m c^m / (s+m)),
    # the endpoint singularity integrated exactly however small eta is.
    # As t_{m+1}/t_m = (m-p)/(2m+2) <= 5/8 for m >= 1, from m = 3 on the
    # bound (3 t_m + 4 t_{m-1} + t_{m-2}) c^m/(s+m) on the m-th term falls
    # by 5c/8 ~ 0.17 a term, which bounds the tail by a geometric series.
    first = T_STAR ** (1.0 - eta) / (1.0 - eta)
    s, c, p = 0.5 * eta, 1.0 - U0, 0.5 * (eta - 3.0)
    ratio = 0.625 * c
    t2 = t1 = total = 0.0
    t = cm = 1.0
    for m in range(1, _THETA_TERMS + 1):
        t2, t1, t = t1, t, t * (m - 1 - p) / (2 * m)
        cm *= c
        total += (3.0 * t - 4.0 * t1 + t2) * cm / (s + m)
        tail = (3.0 * t + 4.0 * t1 + t2) * cm / (s + m) * ratio / (1 - ratio)
        if m >= 3 and tail <= 2.0 ** -53 * abs(total):
            break
    else:
        raise NumericsError(f"Theta series at eta={eta} needs more than "
                            f"{_THETA_TERMS} terms")
    second = (4.5 * c) ** s / 6.0 * (3.0 / s + total)
    return first + second


#: bound on |u| for the logit u = ln(y/(1-y)) of the inner minimiser: a
#: critical point beyond has y or 1-y below e^-700, where its value equals
#: the end value up to a relative O(e^-700)
_U_CUT = 700.0


def _log_sigmoid(u: float) -> float:
    """ln(1 / (1 + e^-u)), without overflow for any finite u."""
    if u >= 0.0:
        return -math.log1p(math.exp(-u))
    return u - math.log1p(math.exp(u))


def _theta_log_inf(s: float, p0: float, p1: float) -> tuple[int, float]:
    """(branch, ln inf_y g) for g(y) = (1-y)^p0 + e^s y^p1 on [0, 1].

    The infimum is attained at y = 1 (branch 0, value e^s), at an interior
    critical point (branch 1) or at y = 0 (branch 2, value 1).  The sign of
    g'(y) is that of s - ln r(y), r = (p0/p1) (1-y)^(p0-1) y^(1-p1), and
    d ln r/dy has the numerator (1-p1) - (p0-p1) y, linear in y: ln r is
    monotone on each side of its one turning point, so each side holds at
    most one local minimum, where s - ln r goes from - to +.  The search
    runs in the logit u, where y = 0 and y = 1 sit at u = -inf and +inf and
    ln y, ln(1-y) stay finite and exact.
    """
    c = math.log(p0 / p1)

    def slope_sign(u):
        return (s - c - (p0 - 1.0) * _log_sigmoid(-u)
                - (1.0 - p1) * _log_sigmoid(u))

    cuts = [-_U_CUT, _U_CUT]
    if (1.0 - p0) * (1.0 - p1) < 0.0:
        # turning point y* = (1-p1)/(p0-p1) lies in (0, 1)
        u_star = math.log((1.0 - p1) / (p0 - 1.0))
        cuts.insert(1, min(max(u_star, -_U_CUT), _U_CUT))
    signs = [slope_sign(u) for u in cuts]
    best = min((s, 0), (0.0, 2))
    for a, b, fa, fb in zip(cuts, cuts[1:], signs, signs[1:]):
        if fa < 0.0 <= fb:
            u = find_root(slope_sign, a, b, 1e-13, 1e-13)
            # ln((1-y)^p0 + e^s y^p1) as a log-sum-exp of the two terms
            x0, x1 = p0 * _log_sigmoid(-u), s + p1 * _log_sigmoid(u)
            top = max(x0, x1)
            best = min(best, (top + math.log1p(math.exp(-abs(x0 - x1))), 1))
    return best[1], best[0]


def _theta_numeric(params: ThetaParams) -> float:
    """Direct evaluation of int_0^inf t^{-eta-1} inf_{y0+y1=1}(...) dt.

    With t = e^s the integrand is e^{-eta s} inf_y g, and the infimum is
    solved exactly at each node from the critical points of g
    (_theta_log_inf).  Since d^2 g/dy dt = p1 y^(p1-1) > 0, the minimiser
    does not increase with t, so the branch attaining the infimum runs from
    y = 1 through the interior to y = 0 and switches at most twice; at a
    switch the infimum is only Lipschitz.  Each switch in s in [-50, 50] is
    located by bisection on the branch index, and the s-integral is split
    there and at s = 0, which keeps the bulk of the integral in pieces of
    their own when a rounding tie far out reads as a switch.
    """
    eta, p0, p1 = params.eta, params.p0, params.p1

    def h(s):
        return math.exp(_theta_log_inf(s, p0, p1)[1] - eta * s)

    def branch(s):
        return _theta_log_inf(s, p0, p1)[0]

    splits = {0.0}
    lo, hi = -50.0, 50.0
    for k in range(branch(lo) + 1, branch(hi) + 1):
        # first s with branch >= k; 1e-14 exceeds the spacing of doubles
        # below 50, so the bracket always shrinks to it
        a, b = lo, hi
        while b - a > 1e-14:
            mid = 0.5 * (a + b)
            if branch(mid) >= k:
                b = mid
            else:
                a = mid
        splits.add(b)
        lo = a
    edges = [-math.inf, *sorted(splits), math.inf]
    return sum(integrate_de(h, a, b) for a, b in zip(edges, edges[1:]))


def theta_weight(params: ThetaParams, mode: str = "closed") -> float:
    """Theta(eta, p0, p1): the q = 1 K-functional weight.

    mode "closed" uses the explicit formulas available for
    (p0, p1) = (1, 2) and (1/2, 3/2); mode "numeric" evaluates the defining
    double integral (any positive p0 != p1).
    """
    if mode == "numeric":
        return _theta_numeric(params)
    if mode != "closed":
        raise ValueError("mode must be 'closed' or 'numeric'")
    eta = params.eta
    if (params.p0, params.p1) == (1.0, 2.0):
        return 2.0 ** eta / (eta * (1.0 - eta) * (1.0 + eta))
    if (params.p0, params.p1) == (0.5, 1.5):
        return _theta_half_threehalf_closed(eta)
    raise ValueError("closed form known only for (1,2) and (1/2,3/2)")


def m_factor(eta: float) -> tuple[float, float]:
    """Minimum of (1+N)^{1-eta} (1+1/N)^{eta} over N in {k, 1/k: k >= 1}.

    Returns (minimum, argmin N).  The objective is (1+N) N^{-eta}, convex in
    log N with its minimum at N* = eta/(1-eta), so the minimum over the set
    is at one of the two members next to N*.  Ties go to the integer, then
    to 1/k with the smaller k.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")

    def obj(n):
        return (1.0 + n) ** (1.0 - eta) * (1.0 + 1.0 / n) ** eta

    star = eta / (1.0 - eta)
    if star >= 1.0:
        k = math.floor(star)
        candidates = [float(k), float(k + 1)]
    else:
        k = math.floor(1.0 / star)
        candidates = [1.0 / k, 1.0 / (k + 1)]
    best_n = min(candidates, key=obj)
    return obj(best_n), best_n


def c_factor(eta: float) -> float:
    """C(eta) = Theta(eta,1,2)/Theta(eta,1/2,3/2) * M(eta)
    / sqrt(eta^eta (1-eta)^{1-eta})."""
    th12 = theta_weight(ThetaParams(eta, 1.0, 2.0), "closed")
    th_half = theta_weight(ThetaParams(eta, 0.5, 1.5), "closed")
    m, _ = m_factor(eta)
    return th12 / th_half * m / math.sqrt(eta**eta * (1.0 - eta) ** (1.0 - eta))


def doublestar_constant(gamma: float) -> float:
    """Real-interpolation bound C(eta) (varsigma(3)/3)^{1-eta} (3/16)^eta,
    gamma = 1/2 + eta."""
    if not 0.5 < gamma < 1.5:
        raise ValueError("gamma must lie in (1/2, 3/2)")
    eta = gamma - 0.5
    return c_factor(eta) * L_HALF ** (1.0 - eta) * (3.0 / 16.0) ** eta


def crossover() -> float:
    """gamma in (1.0, 1.3) where the doublestar and star bounds cross."""
    def diff(g):
        return doublestar_constant(g) - star_constant(g)
    # to the last digits printed: rtol at find_root's floor, 4 ulp(1)
    return find_root(diff, 1.0, 1.3, 1e-15, 4 * math.ulp(1.0))


def density_constants(L_half: float = L_HALF,
                      L_one: float | None = None) -> tuple[float, float]:
    """Kinetic-energy density constants from moment bounds.

    Returns (K_32 lower bound, K_11 lower bound) given upper bounds L_half
    on the gamma = 1/2 constant and L_one on the gamma = 1 constant.
    Defaults: varsigma(3)/3 and the star bound at gamma = 1.
    """
    if L_one is None:
        L_one = star_constant(1.0)
    if L_half <= 0 or L_one <= 0:
        raise ValueError("moment constants must be positive")
    k32 = 4.0 / (27.0 * L_one**2)
    k11 = 1.0 / (2.0 * L_half)
    return k32, k11


@dataclass(frozen=True)
class ConstantsRow:
    """All implemented constant bounds at a single gamma."""

    gamma: float
    L_cl: float
    L_LT: float | None
    L_GGM: float | None
    L_one: float
    L_star: float
    L_char: float | None
    L_dstar: float | None

    @property
    def eta(self) -> float:
        return self.gamma - 0.5

    @property
    def L_best(self) -> float:
        vals = [self.L_star]
        if self.L_dstar is not None:
            vals.append(self.L_dstar)
        return min(vals)


def constants_row(gamma: float) -> ConstantsRow:
    """Evaluate every bound defined at this gamma (None where undefined)."""
    if not 0.5 <= gamma <= 1.5:
        raise ValueError("gamma must lie in [1/2, 3/2]")
    interior = 0.5 < gamma < 1.5
    return ConstantsRow(
        gamma=gamma,
        L_cl=classical_constant(gamma),
        L_LT=lt_constant(gamma) if gamma > 0.5 else None,
        L_GGM=ggm_constant(gamma) if gamma > 0.5 else None,
        L_one=one_state_constant(gamma),
        L_star=star_constant(gamma),
        L_char=char_interp_constant(gamma) if interior else None,
        L_dstar=doublestar_constant(gamma) if interior else None,
    )
