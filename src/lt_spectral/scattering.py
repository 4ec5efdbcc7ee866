"""Reflection coefficients, the trace sum rule, and the transmission bound.

For a compactly supported potential the wave equation -u'' - V u = k^2 u is
propagated across the support by a real 2x2 transfer matrix M; its
closed-form projection P on plane waves at both ends gives R(k) and
1 - |R|^2 = det M / |P11|^2.  Every potential takes the same array pipeline:
its propagator returns the entries of M as four arrays over an array of
wavenumbers, and one numpy projection gates them and projects them.  M is
one pairwise product of fourth-order Magnus steps, taken over the steps and
an array of k at once (Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009).
With pieces(), the steps are the exact piece steps, whose commutator term
is zero (Pruess's method; J. D. Pryce, Numerical Solution of Sturm-Liouville
Problems, OUP 1993).  Any other potential is sampled at two Gauss points per
cell, the cells cut at every jump and halved until two successive products
agree (Ledoux, Van Daele and Vanden Berghe, "MATSLISE", ACM TOMS 31, 2005).
They start narrow enough for the largest wavenumber served, since uniform
cells of width h reflect coherently near k = pi / h.  Adaptive Runge-Kutta
only cross-checks the cell product once per log integral.

The log-transmission integral below is computed once per potential object
and then reused by reflection_coefficient, sum_rule_residual and
theorem2_check.  Its integrand is ln(det M / |P11|^2), which keeps its
digits as k -> 0, where 1 - |R|^2 cancels.  On the exact path a batched
adaptive Gauss-Kronrod 7/15 rule in t = sqrt(k) integrates it, each of whose
rounds evaluates all its new nodes at once, and on the cell path
quad does.  The wave pipeline takes no tolerance: its gates sit at 1e-6, its
cells settle to 1e-8, the log integral stops at quad's epsabs 1e-9 and
epsrel 1e-8, and the Runge-Kutta cross-check solves at rtol 1e-10.

The first trace identity ties the three independent pipelines together:

    int V = 4 Sigma sqrt|E_i|  +  pi^(-1) int_R ln(1 - |R(k)|^2) dk,

and the transmission bound caps the log term by the potential's positive and
negative parts:  pi^(-1) int |ln(1-|R|^2)| dk <= int V_- + (4 L - 1) int V_+.
"""

from __future__ import annotations

import functools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .constants import L_HALF
from .numerics import Deferred, InvariantError, NumericsError
from .potential import FULL_LINE, Potential, piece_steps, truncation_point
from .sturm import SOLVER_TOL, RieszMean, riesz_mean, solve_line

#: tolerance of the wave pipeline: its gates sit at 100 SCATTER_TOL, its
#: cells settle to SCATTER_TOL
SCATTER_TOL = 1e-8

#: default k-grid limits (geometric) for sampled reflection data
K_MIN, K_MAX, K_COUNT = 0.01, 100.0, 400

quad = Deferred("scipy.integrate", "quad")
solve_ivp = Deferred("scipy.integrate", "solve_ivp")

#: tail mass at which non-compact potentials are truncated
TRUNCATION_TAIL = 1e-10

#: quad's stopping rule for the log integral, kept by the exact path's
#: Gauss-Kronrod rule
LOG_EPSABS, LOG_EPSREL = 1e-9, 1e-8

#: halvings that rule may make before it gives up, as quad's limit=2000;
#: the most panels whose nodes one projection call takes; and the most
#: starting panels.  The last two bound its memory however wide the support
LOG_SPLITS_MAX, LOG_CHUNK, LOG_START_MAX = 2000, 2 ** 12, 2 ** 16

#: starting panels that grade the first uniform one, [0, t1], toward the
#: t ln t behaviour at t = 0: their edges are t1 2^-LOG_GRADED, ..., t1 / 2
LOG_GRADED = 8

#: Magnus cell counts: the doubling starts at the first and gives up past
#: the second
CELLS_MIN, CELLS_MAX = 2 ** 9, 2 ** 16

#: the most (step, k) pairs one transfer product takes, bounding its memory
PRODUCT_SIZE = 2 ** 13

#: the wavenumber at which the cell count is cross-checked
K_CHECK = 2.0

#: uniform cells of width h reflect coherently near the Bragg wavenumber
#: pi / h, an error that settling at a few k does not see; the first cells
#: put pi / h this many times above the largest k served
BRAGG_MARGIN = 2.0


#: QUADPACK's qk15: the Gauss-Kronrod 7/15 nodes in [0, 1), descending, and
#: their Kronrod weights; the Gauss nodes are every other one from 0.949,
#: with the Gauss weights _WG
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
#: the same on [-1, 1], ascending; the Gauss nodes are the odd-indexed ones
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_G_WEIGHTS = np.concatenate([_WG, _WG[-2::-1]])


class ScatteringError(NumericsError):
    """Unitarity or consistency of the transfer matrix failed."""


@dataclass(frozen=True)
class ScatteringData:
    """Reflection samples on a k-grid plus the log-transmission integral.

    log_integral = pi^(-1) int_R ln(1 - |R(k)|^2) dk, using the symmetry
    R(-k) = conj(R(k)) so the whole-line integral is twice the positive-k
    one.  It is computed by adaptive quadrature of ln(det M / |P11|^2) from
    the underlying solver (batched Gauss-Kronrod on the exact path, quad on
    the cell path), not from the grid samples, once per potential object.
    """

    k_grid: tuple[float, ...]
    R_values: tuple[complex, ...]
    unitarity_defects: tuple[float, ...]
    log_integral: float

    def __post_init__(self):
        if any(k2 <= k1 for k1, k2 in zip(self.k_grid, self.k_grid[1:])):
            raise InvariantError("k_grid must be strictly increasing")
        if any(abs(r) > 1.0 + 1e-9 for r in self.R_values):
            raise InvariantError("unitarity violated: |R| > 1")
        if self.log_integral > 1e-12:
            raise InvariantError("log integral must be <= 0")

    def __len__(self):
        return len(self.k_grid)

    def max_reflection(self) -> float:
        return max((abs(r) for r in self.R_values), default=0.0)


def default_k_grid() -> np.ndarray:
    return np.geomspace(K_MIN, K_MAX, K_COUNT)


def _scatter_box(V: Potential) -> float:
    lo, hi = V.support()
    if math.isfinite(lo) and math.isfinite(hi):
        return max(abs(lo), abs(hi), 1.0)
    return truncation_point(V, TRUNCATION_TAIL)


def _transfer_ode(V: Potential, X: float,
                  k: float) -> tuple[float, float, float, float]:
    def rhs(x, y):
        q = k * k + V._value(x)
        return [y[1], -q * y[0], y[3], -q * y[2]]

    # 100 times tighter than the cells: across the kinks of a Sampled V,
    # DOP853 missed its own tolerance by a factor of 200
    sol = solve_ivp(rhs, (-X, X), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise ScatteringError(f"wave propagation failed at k={k}")
    return tuple(sol.y[[0, 2, 1, 3], -1].tolist())


def _halved(edges: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(edges) - 1)
    out[0::2], out[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    return out


def _cells(V: Potential, edges: np.ndarray):
    """(h, mean, beta) of the Magnus steps of V on the cells between the
    edges, from V at each cell's two Gauss points."""
    h, mid = np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    x = np.concatenate([mid - h / (2.0 * math.sqrt(3.0)),
                        mid + h / (2.0 * math.sqrt(3.0))])
    v1, v2 = V.evaluate(x).reshape(2, -1)
    return h, 0.5 * (v1 + v2), math.sqrt(3.0) * h * (v2 - v1) / 12.0


def piece_step_array(d: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """numerics.piece_step of the steps (d, q) at once, elementwise over
    the broadcast shape of d and q: the entries (m00, m01, m10, m11) as
    arrays of that shape, m00 and m11 one array."""
    d, q = np.broadcast_arrays(np.asarray(d, dtype=float),
                               np.asarray(q, dtype=float))
    w = np.sqrt(np.abs(q))
    wd = w * d
    c, s = np.cos(wd), np.sin(wd)
    hyp = q < 0.0
    if hyp.any():
        c[hyp], s[hyp] = np.cosh(wd[hyp]), np.sinh(wd[hyp])
    # s / w tends to d as q -> 0: the shear
    m01 = np.divide(s, w, out=d.copy(), where=w > 0.0)
    m10 = np.where(hyp, w * s, -w * s)
    return c, m01, m10, c


def _transfer(steps, ks: np.ndarray) -> tuple[np.ndarray, ...]:
    """(m00, m01, m10, m11), as arrays over the wavenumbers ks, of the
    pairwise product, last step first, of the Magnus steps (h, mean, beta).

    A step is exp [[beta h, h], [-q h, -beta h]] with q = k^2 + mean: the
    piece step P of q - beta^2 plus beta P01 diag(1, -1), less beta^2 P01
    in its lower left entry.  With beta = 0 it is P, bit for bit.

    The steps are held as one (2, 2, step, k) array M, and each round
    multiplies every later step of a pair into the earlier one by one
    broadcast multiply, entry (i, l, j) = later[i, l] * earlier[l, j], and
    one add over l; an odd last step waits for the next round.  Elementwise
    ufuncs only, so every entry is rounded as the scalar e * a + f * c
    would be: no fused multiply-add, whatever the numpy build.
    """
    h, mean, beta = (np.asarray(s, dtype=float)[:, None] for s in steps)
    p00, p01, p10, _ = piece_step_array(h, ks * ks + mean - beta * beta)
    M = np.empty((2, 2, *p00.shape))
    bp = beta * p01
    np.add(p00, bp, out=M[0, 0])
    M[0, 1] = p01
    np.subtract(p10, beta * beta * p01, out=M[1, 0])
    np.subtract(p00, bp, out=M[1, 1])
    del p00, p01, p10, bp
    while M.shape[2] > 1:
        n = M.shape[2] // 2 * 2
        t = M[:, :, None, 1:n:2] * M[None, :, :, 0:n:2]
        pairs = t[:, 0] + t[:, 1]
        M = pairs if n == M.shape[2] else np.concatenate(
            [pairs, M[:, :, n:]], axis=2)
    return tuple(M.reshape(4, -1))


def _settled_cells(V: Potential, X: float, k_max: float):
    """Magnus cells of V on [-X, X] for wavenumbers up to k_max.

    The cells start uniform, at least CELLS_MIN of them and at most
    pi / (BRAGG_MARGIN k_max) wide, cut at the jumps inside.  They are
    halved until the products on two successive sets agree, at K_MIN,
    K_CHECK and k_max, within SCATTER_TOL of their largest entry; the
    finer set is returned.
    """
    n = CELLS_MIN
    while math.pi * n / (2.0 * X) < BRAGG_MARGIN * k_max:
        n *= 2
    if n > CELLS_MAX:
        raise ScatteringError(
            f"k up to {k_max} needs more than {CELLS_MAX} cells")
    edges = np.union1d(np.linspace(-X, X, n + 1),
                       [x for x, _ in V.jumps() if -X < x < X])
    last = None
    while n <= CELLS_MAX:
        cells = _cells(V, edges)
        # one k per product, the least memory a product of these cells takes
        Ms = [np.ravel(_transfer(cells, np.array([k])))
              for k in (K_MIN, K_CHECK, k_max)]
        if last is not None and all(
                np.max(np.abs(M - L)) <= SCATTER_TOL * np.max(np.abs(M))
                for M, L in zip(Ms, last)):
            return cells
        n, edges, last = 2 * n, _halved(edges), Ms
    raise ScatteringError(
        f"cell products did not settle on {CELLS_MAX} cells")


class _Propagator:
    """Transfer matrices (m00, m01, m10, m11) of V across its box [-X, X],
    as products of Magnus steps built on the first call: the exact piece
    steps, with beta = 0, when V has pieces(), else Magnus cells settled
    for wavenumbers up to k_max.  Scattering is defined on the whole line
    only."""

    def __init__(self, V: Potential, k_max: float = K_MAX):
        if V.domain != FULL_LINE:
            raise ValueError("scattering requires a full-line potential")
        self.V, self.X, self.k_max = V, _scatter_box(V), k_max
        self.pieces = V.pieces()

    @functools.cached_property
    def steps(self):
        if self.pieces is None:
            return _settled_cells(self.V, self.X, self.k_max)
        h, v = np.transpose(piece_steps(self.pieces, -self.X, self.X))
        return h, v, np.zeros_like(h)

    def matrix(self, ks: np.ndarray) -> tuple[np.ndarray, ...]:
        """(m00, m01, m10, m11) as arrays over the wavenumbers ks, from
        products of at most PRODUCT_SIZE (step, k) pairs, or of one k."""
        size = max(1, PRODUCT_SIZE // len(self.steps[0]))
        parts = [_transfer(self.steps, chunk)
                 for chunk in np.split(ks, range(size, len(ks), size))]
        return tuple(np.concatenate(column) for column in zip(*parts))


def _gate(errors: np.ndarray, ks: np.ndarray, what: str) -> None:
    """ScatteringError naming the first k whose error passes 100 SCATTER_TOL
    or is not a number."""
    bad = np.flatnonzero(~(errors <= 100.0 * SCATTER_TOL))
    if len(bad):
        i = bad[0]
        raise ScatteringError(f"{what} {errors[i]:.2e} at k={ks[i]}")


def _reflection_at(prop: _Propagator, ks) -> tuple[np.ndarray, ...]:
    """(R, t2, unitarity_defect) elementwise at an array of positive, finite
    wavenumbers ks, from one call of prop.matrix.

    t2 = det M / |P11|^2 is 1 - |R|^2 for every real M, since |P11|^2 -
    |P10|^2 = det M in closed form, and it keeps its digits as k -> 0, where
    1 - |R|^2 cancels.  The unitarity defect |1 - |R|^2 - |T|^2|, with
    |T|^2 = det M t2, is therefore (1 - |R|^2) |det M - 1| plus rounding: its
    gate checks the rounding of the projection, and the determinant gate is
    the real check of the propagator.
    """
    ks = np.asarray(ks, dtype=float)
    if not np.all(np.isfinite(ks) & (ks > 0.0)):
        raise ValueError("wavenumbers must be positive and finite")
    # an overflowed step leaves inf or nan, which the gates name
    with np.errstate(over="ignore", invalid="ignore"):
        (a, b, c, d), X = prop.matrix(ks), prop.X
        det = a * d - b * c
        _gate(abs(det - 1.0), ks, "transfer matrix determinant drifted by")
        ik, kkb = 1j * ks, ks * ks * b
        h = 0.5 / ik
        # P = W(X)^-1 M W(-X) in closed form; W(x) has columns e^{ikx},
        # e^{-ikx} as (u, u'); det P = det M
        P10 = (ik * (a - d) - kkb - c) * h
        P11 = (ik * (a + d) + kkb - c) * h * np.exp(2.0 * ik * X)
        R, t2 = -P10 / P11, det / abs(P11) ** 2
        defect = abs(1.0 - abs(R) ** 2 - det * t2)
    _gate(defect, ks, "unitarity defect")
    return R, t2, defect


#: log integrals by potential.  Keyed on identity, so that equal-valued
#: potentials (a cell twin of a piece list, say) each get their own; weak,
#: so that an entry dies with its potential.
_LOG_INTEGRALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _log_integral(prop: _Propagator) -> float:
    """_log_integral_uncached(prop), once per prop.V.

    prop.X depends only on V, and the integral always runs on cells for
    K_MAX, so that the stored value does not depend on which call came
    first.  A failed computation stores nothing.
    """
    if prop.V not in _LOG_INTEGRALS:
        if prop.pieces is None and prop.k_max != K_MAX:
            prop = _Propagator(prop.V)
        _LOG_INTEGRALS[prop.V] = _log_integral_uncached(prop)
    return _LOG_INTEGRALS[prop.V]


def _check_against_ode(prop: _Propagator, k: float) -> None:
    """The cell product at k against an independent Runge-Kutta solve."""
    M = np.ravel(prop.matrix(np.array([k])))
    err = np.max(np.abs(M - _transfer_ode(prop.V, prop.X, k)))
    if err > 100.0 * SCATTER_TOL * np.max(np.abs(M)):
        raise ScatteringError(
            f"cell product and ODE differ by {err:.2e} at k={k}")


def _gk_panels(g, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod 7/15 values of int g over the panels [lo, hi] and
    their errors |K15 - G7|, from one call of g on the nodes of every
    LOG_CHUNK panels."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GK_NODES
    gx = np.concatenate([g(x[i:i + LOG_CHUNK].ravel())
                         for i in range(0, len(x), LOG_CHUNK)])
    gx = gx.reshape(x.shape)
    kronrod = half * (gx @ _GK_WEIGHTS)
    return kronrod, np.abs(kronrod - half * (gx[:, 1::2] @ _G_WEIGHTS))


def _kronrod(g, edges: np.ndarray) -> float:
    """int g over [edges[0], edges[-1]], starting from the panels between
    the edges, by batched adaptive Gauss-Kronrod 7/15.

    quad's stopping rule: the panel errors must sum to at most
    max(LOG_EPSABS, LOG_EPSREL |I|).  Until they do, every panel whose
    error passes its share of that by width is halved, and each round
    evaluates g on the nodes of all the new panels at once.  Past
    LOG_SPLITS_MAX halvings the rule gives up.
    """
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk_panels(g, lo, hi)
    splits = 0
    while True:
        total = vals.sum()
        tol = max(LOG_EPSABS, LOG_EPSREL * abs(total))
        if errs.sum() <= tol:
            return float(total)
        split = errs > tol * (hi - lo) / (edges[-1] - edges[0])
        splits += np.count_nonzero(split)
        if splits > LOG_SPLITS_MAX:
            raise ScatteringError(
                f"log integral did not settle in {LOG_SPLITS_MAX} halvings")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _gk_panels(g, new_lo, new_hi)
        keep = ~split
        lo, hi = (np.concatenate([lo[keep], new_lo]),
                  np.concatenate([hi[keep], new_hi]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def _log_integral_uncached(prop: _Propagator) -> float:
    """pi^(-1) int_R ln(1-|R|^2) dk = (2/pi) int_0^inf ln t2 dk, by symmetry,
    with t2 = det M / |P11|^2 from _reflection_at.

    The exact path integrates on [0, K_MAX] by _kronrod in t = sqrt(k),
    where the logarithmic singularity at k = 0 becomes 2 t ln t2(t^2) -> 0.
    Its starting panels are uniform in k and no wider than pi / (support
    width), the period in k of the interference between the outermost jumps,
    on supports up to width pi LOG_START_MAX / K_MAX, about 2,060; the first
    is cut into LOG_GRADED + 1 panels graded toward t = 0.  The cell
    path, after its cross-check against the ODE, integrates by quad up to
    K_MAX, or up to the first of its probe pairs at which the integrand is
    negligible (smooth potentials reflect exponentially little at large k).
    """
    def log_t2(ks):
        return np.log(_reflection_at(prop, ks)[1])

    k_cut = K_MAX
    if prop.pieces is not None:
        lo, hi = prop.V.support()
        n = min(max(1, math.ceil(K_MAX * (hi - lo) / math.pi)),
                LOG_START_MAX - LOG_GRADED)
        edges = np.sqrt(np.linspace(0.0, K_MAX, n + 1))
        graded = edges[1] * 2.0 ** np.arange(-LOG_GRADED, 0)
        val = _kronrod(lambda t: 2.0 * t * log_t2(t * t),
                       np.concatenate([[0.0], graded, edges[1:]]))
    else:
        _check_against_ode(prop, K_CHECK)
        for kc in (K_CHECK, 5.0, 10.0, 25.0):
            if np.all(np.abs(log_t2([kc, 1.37 * kc])) < 1e-14):
                k_cut = 1.37 * kc
                break
        from scipy.integrate import IntegrationWarning
        with warnings.catch_warnings():
            # near-total reflection at k -> 0 makes the integrand
            # log-singular; quad flags roundoff there although the value
            # converges fine
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda k: float(log_t2([k])[0]), 0.0, k_cut,
                          epsabs=LOG_EPSABS, epsrel=LOG_EPSREL, limit=2000)
    # beyond the cut the integrand decays at least like k^-4 (the Born
    # amplitude of an L1 potential falls off like 1/k^2 or faster)
    tail = abs(float(log_t2([k_cut])[0])) * k_cut / 3.0
    return (2.0 / math.pi) * (val - tail)


def _sampled(prop: _Propagator, ks) -> dict:
    """{k: (R, t2, unitarity_defect)} at the wavenumbers ks, from one
    call."""
    columns = _reflection_at(prop, ks)
    return dict(zip(ks, zip(*(column.tolist() for column in columns))))


def reflection_coefficient(V: Potential, k_grid=None) -> ScatteringData:
    """Reflection data R(k) on a grid of positive wavenumbers.

    Non-compact potentials are truncated where the tail mass drops below
    1e-10.  Without pieces(), V's cells resolve wavenumbers up to the larger
    of K_MAX and the grid's largest.  One refinement pass inserts midpoints
    where |R|^2 moves by more than 0.05 between neighbours.
    """
    ks = default_k_grid() if k_grid is None else np.asarray(k_grid,
                                                            dtype=float)
    if len(ks) == 0 or not np.all(np.isfinite(ks) & (ks > 0.0)):
        raise ValueError("k_grid must contain positive, finite wavenumbers")
    ks = np.sort(ks)
    prop = _Propagator(V, max(K_MAX, float(ks[-1])))
    Rs = _sampled(prop, ks)
    extra = [math.sqrt(k1 * k2) for k1, k2 in zip(ks[:-1], ks[1:])
             if abs(abs(Rs[k1][0]) ** 2 - abs(Rs[k2][0]) ** 2) > 0.05]
    Rs.update(_sampled(prop, extra))
    grid = sorted(Rs)
    return ScatteringData(
        k_grid=tuple(grid),
        R_values=tuple(Rs[k][0] for k in grid),
        unitarity_defects=tuple(Rs[k][2] for k in grid),
        log_integral=_log_integral(prop))


def _sum_rule(V: Potential, tol: float = SOLVER_TOL
              ) -> tuple[float, RieszMean]:
    """The sum-rule residual and the certified moment it subtracts."""
    prop = _Propagator(V)
    integral = V.integrate()
    moment = riesz_mean(solve_line(V, tol), 0.5)
    return integral - 4.0 * moment.value - _log_integral(prop), moment


def sum_rule_residual(V: Potential, tol: float = SOLVER_TOL) -> float:
    """int V - 4 Sigma sqrt|E_i| - pi^(-1) int ln(1-|R|^2) dk.

    The three terms come from independent pipelines (quadrature, eigenvalue
    solver, wave propagation); the residual is a cross-check of all three.
    tol goes to solve_line; the wave propagation runs at SCATTER_TOL.
    """
    return _sum_rule(V, tol)[0]


def theorem2_check(V: Potential) -> tuple[float, float]:
    """(lhs, rhs) of the transmission bound; the contract is lhs <= rhs.

    lhs = pi^(-1) int |ln(1-|R|^2)| dk; rhs = int V_- + (4 L - 1) int V_+
    with the attractive part V_+ and repulsive part V_- of V, and the
    paper's L = L_{1/2,1} <= varsigma(3) / 3.
    """
    lhs = -_log_integral(_Propagator(V))
    plus, minus = V.sign_masses()
    rhs = minus + (4.0 * L_HALF - 1.0) * plus
    return lhs, rhs
