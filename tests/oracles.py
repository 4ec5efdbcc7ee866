"""Independent reference implementations used only by the tests.

Nothing here shares code paths with the library: eigenvalues come from
Prüfer-angle shooting (one ODE solve per piece between jumps) or
transcendental closed forms, reflection amplitudes from textbook closed
forms or a linear solve of the plane-wave matching, and transfer matrices
of piece lists from one scalar step at a time.
The pairwise Magnus product on four separate entry arrays, eight strided
slices a round, is the reference the library's broadcast product must
match bit for bit.
The tanh-sinh rule with every node computed in place, scipy's bounded
minimiser and scipy's brentq are the references the library's quadrature
and in-module Brent loops must match bit for bit.
The constants table is held to mpmath at 30 digits: the closed
Theta(eta, 1/2, 3/2) by hypergeometric functions and by quadrature,
varsigma(3) and varsigma at small arguments, the real-interpolation
bound and its crossover with the monotonicity bound, and the
Glaser-Grosse-Martin minimum.
Agreement between these and the library is the point of the comparisons.
The count and ground-state bounds, the Sobolev check and the raw moment
constant at the end are textbook inequalities the tests hold the solvers
to; the library does not use them.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize_scalar

from lt_spectral.constants import VARSIGMA_3
from lt_spectral.numerics import (DE_ABS, DE_REL, MAX_ITER, MIN_XATOL,
                                  DivergenceError, NumericsError)


def prufer_angle(V, a, b, E, bc_left="neumann"):
    """Terminal Prüfer angle of -u'' - V u = E u shot from x = a.

    With u = r sin(theta), u' = r cos(theta) the angle obeys
    theta' = cos^2(theta) + (E + V) sin^2(theta) and increases through
    pi/2 + n*pi exactly at Neumann nodes of the solution.  The angle is
    continuous, so it is integrated piece by piece between the jumps of V
    inside (a, b), with V sampled only inside each piece: one step across
    a jump could step over a narrow piece.
    """
    cuts = sorted({x for x, _ in V.jumps() if a < x < b})
    theta = 0.5 * math.pi if bc_left == "neumann" else 0.0
    for lo, hi in zip([a, *cuts], [*cuts, b]):
        inside = (math.nextafter(lo, hi), math.nextafter(hi, lo))

        def rhs(x, y):
            s, c = math.sin(y[0]), math.cos(y[0])
            v = float(V.evaluate(min(max(x, inside[0]), inside[1])))
            return [c * c + (E + v) * s * s]

        sol = solve_ivp(rhs, (lo, hi), [theta], method="DOP853",
                        rtol=1e-11, atol=1e-12)
        if not sol.success:
            raise RuntimeError("shooting failed")
        theta = sol.y[0, -1]
    return theta


def prufer_neumann_levels(V, a, b, n_max=8, e_min=None):
    """Negative Neumann eigenvalues on [a, b] by phase-function bisection."""
    if e_min is None:
        xs = np.linspace(a, b, 2001)
        e_min = -float(np.max(V.evaluate(xs))) - 1.0
    levels = []
    for n in range(n_max):
        # u'(b) = 0 at theta = pi/2 mod pi; the ground state makes no
        # interior zero, so its terminal angle is pi/2 itself
        target = 0.5 * math.pi + n * math.pi

        def f(E):
            return prufer_angle(V, a, b, E) - target

        if f(0.0) < 0.0:
            break
        levels.append(brentq(f, e_min, 0.0, xtol=1e-12))
    return levels


def square_well_line_levels(v, half_width=1.0):
    """Bound states of the centered well of depth v on the whole line.

    Even states solve q tan(q a) = kappa and odd states
    -q cot(q a) = kappa, with q^2 + kappa^2 = v and E = -kappa^2.
    """
    a = half_width
    s = math.sqrt(v)
    levels = []

    def even(q):
        return q * math.tan(q * a) - math.sqrt(v - q * q)

    def odd(q):
        return -q / math.tan(q * a) - math.sqrt(v - q * q)

    n = 0
    while n * math.pi / a < s:
        lo = n * math.pi / a + 1e-12
        hi = min((n + 0.5) * math.pi / a - 1e-12, s - 1e-12)
        if lo < hi and even(lo) * even(hi) < 0:
            q = brentq(even, lo, hi, xtol=1e-14)
            levels.append(-(v - q * q))
        n += 1
    n = 0
    while (n + 0.5) * math.pi / a < s:
        lo = (n + 0.5) * math.pi / a + 1e-12
        hi = min((n + 1) * math.pi / a - 1e-12, s - 1e-12)
        if lo < hi and odd(lo) * odd(hi) < 0:
            q = brentq(odd, lo, hi, xtol=1e-14)
            levels.append(-(v - q * q))
        n += 1
    return sorted(levels)


def square_well_line_levels_mp(v, half_width=1.0, dps=30):
    """square_well_line_levels refined in mpmath at dps digits, as mpfs.

    Each float level seeds a bracket kappa (1 -+ 1e-9) on which the even or
    the odd condition, in kappa, changes sign.
    """
    import mpmath as mp

    a = half_width
    with mp.workdps(dps):
        def even(k):
            q = mp.sqrt(v - k * k)
            return q * mp.tan(q * a) - k

        def odd(k):
            q = mp.sqrt(v - k * k)
            return -q / mp.tan(q * a) - k

        levels = []
        for e in square_well_line_levels(v, half_width):
            k0 = mp.sqrt(-mp.mpf(e))
            lo, hi = k0 * (1 - mp.mpf(1e-9)), k0 * (1 + mp.mpf(1e-9))
            (f,) = [f for f in (even, odd) if f(lo) * f(hi) < 0]
            k = mp.findroot(f, (lo, hi), solver="anderson")
            levels.append(-k * k)
        return levels


def square_well_reflection_sq(v, half_width, k):
    """|R(k)|^2 for the centered square well or barrier, closed form.

    For k^2 + v < 0 (tunneling through a barrier, v < 0 in the attractive
    sign convention) the oscillatory branch continues to the sinh form.
    """
    a = half_width
    q2 = k * k + v
    if q2 >= 0.0:
        w = math.sqrt(q2)
        s2 = math.sin(2.0 * w * a) ** 2
        return v * v * s2 / (4.0 * k * k * q2 + v * v * s2)
    kap2 = -q2
    s2 = math.sinh(2.0 * math.sqrt(kap2) * a) ** 2
    return v * v * s2 / (4.0 * k * k * kap2 + v * v * s2)


def poschl_teller_reflection_sq(nu, alpha, k):
    """|R(k)|^2 of nu(nu+1) alpha^2 sech^2(alpha x), closed form.

    cos^2(pi(nu + 1/2)) / (sinh^2(pi k / alpha) + cos^2(pi(nu + 1/2))); it
    vanishes for integer nu, the reflectionless wells.
    """
    c2 = math.cos(math.pi * (nu + 0.5)) ** 2
    # sinh^2 overflows past pi k / alpha ~ 355, where the ratio is < 1e-300
    s = math.pi * k / alpha
    return c2 / (math.sinh(s) ** 2 + c2) if s < 350.0 else 0.0


def poschl_teller_levels(nu, alpha=1.0):
    """Analytic spectrum -(alpha (nu - n))^2, n = 0 .. ceil(nu) - 1."""
    out = []
    n = 0
    while nu - n > 0:
        out.append(-((alpha * (nu - n)) ** 2))
        n += 1
    return sorted(out)


def _plane_wave_matrix(M, k, X):
    """P with Wp P = M Wm: it takes the plane-wave amplitudes at -X to those
    at +X of a transfer matrix M = (m00, m01, m10, m11) across [-X, X]; the
    columns of W(x) are the waves e^{ikx}, e^{-ikx} as (u, u') data."""
    ik = 1j * k
    em, ep = cmath.exp(-ik * X), cmath.exp(ik * X)
    Wm = np.array([[em, ep], [ik * em, -ik * ep]])
    Wp = np.array([[ep, em], [ik * ep, -ik * em]])
    return np.linalg.solve(Wp, np.reshape(M, (2, 2)) @ Wm)


def plane_wave_projection(M, k, X):
    """(R, T) of a transfer matrix M = (m00, m01, m10, m11) across [-X, X]:
    R = -P10/P11, T = P00 + P01 R with P from the linear solve."""
    P = _plane_wave_matrix(M, k, X)
    R = -P[1, 0] / P[1, 1]
    return complex(R), complex(P[0, 0] + P[0, 1] * R)


def transfer_exact(steps, k):
    """(m00, m01, m10, m11) of the transfer matrix of (length, v) steps at
    the wavenumber k: one step and one k at a time in Python floats, each
    step the propagator of u'' = -(k^2 + v) u on (u, u'), a rotation, a
    hyperbolic rotation or a shear."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for length, v in steps:
        q = k * k + v
        if q > 0.0:
            w = math.sqrt(q)
            co, si = math.cos(w * length), math.sin(w * length)
            m00, m01, m10 = co, si / w, -w * si
        elif q < 0.0:
            w = math.sqrt(-q)
            co, si = math.cosh(w * length), math.sinh(w * length)
            m00, m01, m10 = co, si / w, w * si
        else:
            m00, m01, m10 = 1.0, length, 0.0
        a, b, c, d = (m00 * a + m01 * c, m00 * b + m01 * d,
                      m10 * a + m00 * c, m10 * b + m00 * d)
    return a, b, c, d


def _piece_step_stack(d, q):
    """The entries of u'' = -q u over steps of length d, for 1-d arrays d
    and q: an (n, 2, 2) array of the step matrices."""
    w = np.sqrt(np.abs(q))
    wd = w * d
    c, s = np.cos(wd), np.sin(wd)
    hyp = q < 0.0
    if hyp.any():
        c[hyp], s[hyp] = np.cosh(wd[hyp]), np.sinh(wd[hyp])
    m01 = np.divide(s, w, out=d.copy(), where=w > 0.0)
    m10 = np.where(hyp, w * s, -w * s)
    return np.stack([c, m01, m10, c], axis=-1).reshape(-1, 2, 2)


def transfer_pairwise(steps, ks):
    """(m00, m01, m10, m11) over the wavenumbers ks of the Magnus steps
    (h, mean, beta): the steps stacked as (n, 2, 2) matrices and split into
    four (step, k) entry arrays, then multiplied pairwise, each later step
    of a pair into the earlier one as e a + f c, e b + f d, g a + k c and
    g b + k d, with an odd last step carried to the next round."""
    h, mean, beta = (np.asarray(s, dtype=float)[:, None] for s in steps)
    q = ks * ks + mean
    p00, p01, p10, _ = _piece_step_stack(
        np.broadcast_to(h, q.shape).ravel(),
        (q - beta * beta).ravel()).reshape(*q.shape, 4).transpose(2, 0, 1)
    M = (p00 + beta * p01, p01, p10 - beta * beta * p01, p00 - beta * p01)
    while len(M[0]) > 1:
        n = len(M[0]) // 2 * 2
        (a, b, c, d), (e, f, g, k) = ([m[0:n:2] for m in M],
                                      [m[1:n:2] for m in M])
        M = [np.concatenate([x, m[n:]]) for x, m in zip(
            (e * a + f * c, e * b + f * d, g * a + k * c, g * b + k * d), M)]
    return tuple(m[0] for m in M)


def log_transmission_integral(pieces, k_max):
    """(2/pi) (int_0^k_max ln|T|^2 dk - |ln|T(k_max)|^2| k_max / 3) of a
    pieces() list: the library's log integral with its k^-4 tail model.

    ln|T|^2 = -2 ln|P11| with P from transfer_exact and the linear solve,
    which does not cancel as |T| -> 0 at k -> 0.  quad at epsabs 1e-14 on
    fixed panels, 0.25 wide in k and halving toward 0.
    """
    steps, x = [], pieces[0][0] if pieces else 0.0
    for p0, p1, v in pieces:
        if p0 > x:
            steps.append((p0 - x, 0.0))
        steps.append((p1 - p0, v))
        x = p1
    # |T| does not depend on where the steps lie
    X = 0.5 * sum(length for length, _ in steps)

    def log_t2(k):
        P = _plane_wave_matrix(transfer_exact(steps, k), k, X)
        return -2.0 * math.log(abs(P[1, 1]))

    edges = [0.0, *(0.25 * 0.5 ** j for j in range(50, 0, -1)),
             *np.arange(0.25, k_max + 0.125, 0.25)]
    total = sum(quad(log_t2, a, b, epsabs=1e-14, epsrel=0.0, limit=200)[0]
                for a, b in zip(edges, edges[1:]))
    return (2.0 / math.pi) * (total - abs(log_t2(k_max)) * k_max / 3.0)


def theta_inner_inf(s, p0, p1, dps=20):
    """inf over y in [0, 1] of (1-y)^p0 + e^s y^p1, in mpmath at dps digits.

    A brute-force search: g is tabulated on a grid of step 1/2 in the logit
    u = ln(y/(1-y)) over [-40, 40], every grid point not above its
    neighbours is refined by golden-section search on the two cells around
    it, and the result is the least of these and the end values 1 and e^s.
    A minimiser beyond |u| = 40 has y or 1-y below e^-40, where g differs
    from its end value by a relative O(e^-40).  Returned as an mpf.
    """
    import mpmath as mp

    with mp.workdps(dps):
        t, p0, p1 = mp.exp(mp.mpf(s)), mp.mpf(p0), mp.mpf(p1)

        def g(u):
            y, rest = 1 / (1 + mp.exp(-u)), 1 / (1 + mp.exp(u))
            return rest**p0 + t * y**p1

        us = [mp.mpf(k) / 2 for k in range(-80, 81)]
        vals = [g(u) for u in us]
        best = min(mp.mpf(1), t)
        r = (mp.sqrt(5) - 1) / 2
        for i in range(1, len(us) - 1):
            if vals[i] > vals[i - 1] or vals[i] > vals[i + 1]:
                continue
            a, b = us[i - 1], us[i + 1]
            c, d = b - r * (b - a), a + r * (b - a)
            fc, fd = g(c), g(d)
            for _ in range(60):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - r * (b - a)
                    fc = g(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + r * (b - a)
                    fd = g(d)
            best = min(best, fc, fd)
        return +best


#: digits of the mpmath references for the constants table
TABLE_DPS = 30


def _mp_table_constants():
    import mpmath as mp

    u0 = mp.sqrt(2 / (2 + mp.sqrt(3)))
    t_star = mp.mpf(2) / 3 * mp.sqrt(1 + 2 / mp.sqrt(3))
    return mp, u0, t_star


def theta_half_threehalf_mp(eta, dps=TABLE_DPS):
    """Closed Theta(eta, 1/2, 3/2) at dps digits, as an mpf.

    T*^(1-eta)/(1-eta) + (sqrt(2)/3) (3/2)^eta int_0^c v^(s-1) g(v) dv with
    g(v) = (1-v)(3-v)(2-v)^p, c = 1 - u0, s = eta/2 and p = (eta-3)/2.
    Expanding (1-v)(3-v) = 3 - 4v + v^2 makes each piece an incomplete beta
    function, int_0^c v^(a-1) (2-v)^p dv = 2^p c^a/a 2F1(-p, a; a+1; c/2),
    which mpmath's hyp2f1 evaluates; the library sums a binomial series.
    """
    mp, u0, t_star = _mp_table_constants()
    with mp.workdps(dps):
        eta = mp.mpf(eta)
        s, p, c = eta / 2, (eta - 3) / 2, 1 - u0
        v_part = sum(k * c ** (s + j) / (s + j)
                     * mp.hyp2f1(-p, s + j, s + j + 1, c / 2)
                     for j, k in enumerate((3, -4, 1)))
        return +(t_star ** (1 - eta) / (1 - eta)
                 + mp.sqrt(2) / 3 * mp.mpf(1.5) ** eta * 2 ** p * v_part)


def theta_half_threehalf_quad_mp(eta, dps=TABLE_DPS):
    """theta_half_threehalf_mp by mpmath quadrature of the u-integral
    (sqrt(2)/3) (3/2)^eta int_u0^1 u (2+u) (1-u)^((eta-2)/2)
    (1+u)^((eta-3)/2) du, the form the closed route is derived from, taken
    in w = (1-u)^(eta/2), where the endpoint singularity becomes 2/eta dw."""
    mp, u0, t_star = _mp_table_constants()
    with mp.workdps(dps):
        eta = mp.mpf(eta)
        s = eta / 2

        def f(w):
            u = 1 - w ** (1 / s)
            return u * (2 + u) * (1 + u) ** ((eta - 3) / 2) / s

        val = mp.quad(f, [0, (1 - u0) ** s])
        return +(t_star ** (1 - eta) / (1 - eta)
                 + mp.sqrt(2) / 3 * mp.mpf(1.5) ** eta * val)


def varsigma_small_mp(y, dps=TABLE_DPS):
    """The x > 0 with x tanh(x) = y, 0 < y < 1, at dps digits, as
    x = sqrt(y) t with t tanh(sqrt(y) t) = sqrt(y)."""
    import mpmath as mp

    with mp.workdps(dps):
        r = mp.sqrt(mp.mpf(y))
        return r * mp.findroot(lambda t: t * mp.tanh(r * t) - r, 1)


def varsigma_3_mp(dps=TABLE_DPS):
    """The x > 0 with x tanh(x) = 3, at dps digits."""
    import mpmath as mp

    with mp.workdps(dps):
        return mp.findroot(lambda x: x * mp.tanh(x) - 3, 3)


def star_mp(gamma, dps=TABLE_DPS):
    """4 varsigma(3)/3 Gamma(gamma+1) / (2 sqrt(pi) Gamma(gamma+3/2))."""
    import mpmath as mp

    with mp.workdps(dps):
        gamma = mp.mpf(gamma)
        return (4 * varsigma_3_mp(dps) / 3 * mp.gamma(gamma + 1)
                / (2 * mp.sqrt(mp.pi) * mp.gamma(gamma + 1.5)))


def doublestar_mp(gamma, dps=TABLE_DPS):
    """C(eta) (varsigma(3)/3)^(1-eta) (3/16)^eta, eta = gamma - 1/2, with
    C = Theta(eta,1,2)/Theta(eta,1/2,3/2) M(eta) / sqrt(eta^eta
    (1-eta)^(1-eta)).  M(eta) is the least (1+N)^(1-eta) (1+1/N)^eta over
    every N = k and 1/k with k up to one past the largest of eta/(1-eta)
    and its inverse."""
    import mpmath as mp

    with mp.workdps(dps):
        eta = mp.mpf(gamma) - mp.mpf(0.5)
        th12 = 2**eta / (eta * (1 - eta) * (1 + eta))
        k_max = int(mp.ceil(max(eta / (1 - eta), (1 - eta) / eta))) + 1
        m = min((1 + n) ** (1 - eta) * (1 + 1 / n) ** eta
                for k in range(1, k_max + 1) for n in (mp.mpf(k), 1 / mp.mpf(k)))
        c = (th12 / theta_half_threehalf_mp(eta, dps) * m
             / mp.sqrt(eta**eta * (1 - eta) ** (1 - eta)))
        return (c * (varsigma_3_mp(dps) / 3) ** (1 - eta)
                * (mp.mpf(3) / 16) ** eta)


def crossover_mp(dps=TABLE_DPS):
    """The gamma in (1.1, 1.2) where doublestar_mp and star_mp cross."""
    import mpmath as mp

    with mp.workdps(dps):
        return mp.findroot(lambda g: doublestar_mp(g, dps) - star_mp(g, dps),
                           (mp.mpf("1.1"), mp.mpf("1.2")), solver="anderson")


def ggm_min_mp(gamma, dps=TABLE_DPS):
    """(argmin, min) of the Glaser-Grosse-Martin integrand over m in
    [1, min(3/2, gamma+1/2)) at dps digits, as mpfs.

    The integrand is (m-1)^(m-1) Gamma(m+1/2) gamma^(gamma+1)
    Gamma(gamma+1/2-m) / (sqrt(pi) m^(m-1) Gamma(gamma+3/2)
    (m-1/2)^(m-1/2) (gamma+1/2-m)^(gamma+1/2-m)), the library's form with
    Gamma(2m) / (2^(2m-1) Gamma(m)) taken by the duplication formula.  A
    golden-section search narrows the argmin to 10^(-dps/2); the m = 1 end,
    where 0^0 = 1 makes the integrand L_LT, wins when it is no larger.
    """
    import mpmath as mp

    with mp.workdps(dps):
        g = mp.mpf(gamma)

        def f(m):
            r = g + mp.mpf(0.5) - m
            return ((m - 1) ** (m - 1) * mp.gamma(m + mp.mpf(0.5))
                    * g ** (g + 1) * mp.gamma(r)
                    / (mp.sqrt(mp.pi) * m ** (m - 1) * mp.gamma(g + 1.5)
                       * (m - mp.mpf(0.5)) ** (m - mp.mpf(0.5)) * r ** r))

        lo, hi = mp.mpf(1), min(mp.mpf(1.5), g + mp.mpf(0.5))
        ratio = (mp.sqrt(5) - 1) / 2
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f1, f2 = f(x1), f(x2)
        while hi - lo > mp.mpf(10) ** (-(dps // 2)):
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - ratio * (hi - lo)
                f1 = f(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + ratio * (hi - lo)
                f2 = f(x2)
        m, val = (x1, f1) if f1 < f2 else (x2, f2)
        end = f(mp.mpf(1))
        return (mp.mpf(1), end) if end <= val else (m, val)


def raw_moment_constant(gamma: float) -> float:
    """Diagnostic constant varsigma(3)^(2 gamma) / 3^(gamma + 1/2).

    The bracketing argument applied directly at exponent gamma gives
    Sigma|E|^gamma <= this * int V^(gamma + 1/2); it is far from sharp.
    """
    return VARSIGMA_3 ** (2.0 * gamma) / 3.0 ** (gamma + 0.5)


def bs_interval_bound(V, interval, E: float) -> float:
    """Birman-Schwinger count bound coth^2(lambda l)/lambda^2 (int V)^2
    for the Neumann interval problem, lambda = sqrt(|E|)."""
    if E >= 0:
        raise ValueError("E must be negative")
    a, b = float(interval[0]), float(interval[1])
    lam = math.sqrt(-E)
    mass = V.integrate(a, b)
    if mass == 0.0:
        return 0.0
    return (mass / (lam * math.tanh(lam * (b - a)))) ** 2


def bs_line_ground_bound(V) -> float:
    """Upper bound (1/2) int V on sqrt(|E_1|) for the whole-line operator."""
    return 0.5 * V.integrate()


def sobolev_pointwise_check(grid, values) -> tuple[float, float]:
    """Check sup|u|^2 <= (l/3) int |u'|^2 for a mean-zero piecewise-linear u.

    The mean of the interpolant is subtracted first; returns (lhs, rhs),
    both evaluated exactly for the piecewise-linear function.
    """
    x = np.asarray(grid, dtype=float)
    u = np.asarray(values, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least 3 grid points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing")
    length = x[-1] - x[0]
    mean = np.trapezoid(u, x) / length
    u = u - mean
    lhs = float(np.max(np.abs(u)) ** 2)
    slopes = np.diff(u) / np.diff(x)
    rhs = float(length / 3.0 * np.sum(slopes**2 * np.diff(x)))
    return lhs, rhs


def minimize_1d_scipy(f, lo, hi):
    """numerics.minimize_1d on scipy's minimize_scalar(method="bounded"),
    with the same tolerance, budget, finite check and endpoint polish."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": MIN_XATOL, "maxiter": MAX_ITER})
    x, fx = float(res.x), float(res.fun)
    if not math.isfinite(fx):
        raise NumericsError("non-finite function value in bracket")
    for xe in (lo, hi):
        fe = f(xe)
        if fe < fx:
            x, fx = xe, fe
    return x, fx


def find_root_scipy(f, lo, hi, xtol, rtol):
    """numerics.find_root on scipy's brentq, with the same rtol floor and
    iteration budget; brentq itself handles a zero at an end."""
    rtol = max(rtol, 4 * math.ulp(1.0))
    return float(brentq(f, lo, hi, xtol=xtol, rtol=rtol, maxiter=MAX_ITER))


def integrate_de_per_node(f, a, b):
    """numerics.integrate_de with every tanh-sinh node computed where it is
    used: the same map, levels, accumulation and stop rule."""
    if a == b:
        return 0.0
    if a > b:
        return -integrate_de_per_node(f, b, a)
    if math.isinf(a) and math.isinf(b):
        return (_semi_per_node(lambda x: f(-x), 0.0)
                + _semi_per_node(f, 0.0))
    if math.isinf(b):
        return _semi_per_node(f, a)
    if math.isinf(a):
        return _semi_per_node(lambda x: f(-x), -b)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)

    def node(t):
        s = 0.5 * math.pi * math.sinh(t)
        if abs(s) > 350.0:
            return None
        d = half * 2.0 / (1.0 + math.exp(2.0 * abs(s)))
        x = (a + d) if t < 0.0 else (b - d) if t > 0.0 else mid
        w = half * 0.5 * math.pi * math.cosh(t) / math.cosh(s) ** 2
        return x, w

    return _levels_per_node(f, node, a, b)


def _semi_per_node(f, a):
    def node(t):
        s = 0.5 * math.pi * math.sinh(t)
        if s > 700.0:
            return None
        e = math.exp(s)
        return a + e, 0.5 * math.pi * math.cosh(t) * e

    return _levels_per_node(f, node, a, math.inf)


def _levels_per_node(f, node, a, b):
    t_max = 6.5

    def eval_at(t):
        nw = node(t)
        if nw is None:
            return 0.0
        x, w = nw
        if not (a < x < b) or w == 0.0 or not math.isfinite(w):
            return 0.0
        fx = f(x)
        return w * fx if math.isfinite(fx) else 0.0

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
    if err > 1e-6 * (1.0 + abs(value)):
        raise DivergenceError("integral appears to diverge")
    return value
