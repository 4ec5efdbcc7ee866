import math
import random

import numpy as np
import pytest

from lt_spectral import bracketing, cli, constants, sturm
from lt_spectral.numerics import (BracketError, DivergenceError,
                                  NumericsError, find_root, gamma_fn,
                                  integrate_de, minimize_1d, piece_step)
from lt_spectral.scattering import piece_step_array

from oracles import find_root_scipy, integrate_de_per_node, minimize_1d_scipy


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12, 1e-12) == \
            pytest.approx(1.0, abs=1e-12)

    def test_x_tanh_x(self):
        # root of x tanh x = 3; bisection cross-check of the same equation
        root = find_root(lambda x: x * math.tanh(x) - 3.0, 0.0, 10.0,
                         1e-12, 1e-12)
        assert root == pytest.approx(3.0144828, abs=1e-6)
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * math.tanh(mid) < 3.0:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert root * math.tanh(root) == pytest.approx(3.0, abs=1e-8)

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)

    @pytest.mark.parametrize("value", [1e-200, -1e-200])
    def test_no_sign_change_in_tiny_values(self, value):
        # the product of the end values underflows to 0
        with pytest.raises(BracketError):
            find_root(lambda x: value, 0.0, 1.0, 1e-12, 1e-12)


class TestMinimize1d:
    def test_parabola(self):
        xmin, fmin = minimize_1d(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        assert xmin == pytest.approx(0.3, abs=1e-7)
        assert fmin == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        xmin, fmin = minimize_1d(lambda x: 4.2, 0.0, 1.0)
        assert fmin == 4.2
        assert 0.0 <= xmin <= 1.0

    def test_boundary_minimum(self):
        xmin, fmin = minimize_1d(lambda x: x, 0.0, 1.0)
        assert fmin == pytest.approx(0.0, abs=1e-6)

    def test_int_bounds_give_floats(self):
        # the endpoint polish runs on float(lo) and float(hi)
        got = minimize_1d(lambda x: x, 0, 1)
        assert got == (0.0, 0.0)
        assert [type(v) for v in got] == [float, float]

    def test_non_finite(self):
        with pytest.raises(Exception):
            minimize_1d(lambda x: float("nan"), 0.0, 1.0)


def _brute_force_integrand(v):
    u = 1.0 - v
    return u * (2.0 + u) * v ** -0.75 * (1.0 + u) ** -1.25


class TestIntegrateDE:
    @pytest.mark.parametrize("a, b", [(0.0, math.nan), (math.nan, 1.0),
                                      (math.nan, math.inf),
                                      (math.nan, math.nan)])
    def test_nan_bound_raises(self, a, b):
        with pytest.raises(ValueError):
            integrate_de(lambda x: 1.0, a, b)

    def test_inverse_sqrt(self):
        # endpoint singularity
        val = integrate_de(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_exponential_halfline(self):
        val = integrate_de(lambda x: math.exp(-x), 0.0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_line(self):
        val = integrate_de(lambda x: math.exp(-x * x), -math.inf, math.inf)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_strong_endpoint_singularity(self):
        val = integrate_de(lambda x: x ** -0.75, 0.0, 1.0)
        assert val == pytest.approx(4.0, abs=1e-9)

    def test_log_singularity(self):
        val = integrate_de(lambda x: math.log(x), 0.0, 1.0)
        assert val == pytest.approx(-1.0, abs=1e-10)

    def test_brute_force_oracle(self):
        # generic v^(-3/4)-singular integrand, singularity placed at 0 as
        # the docstring asks, against a midpoint oracle after v = t^4
        u0 = math.sqrt(2.0 / (2.0 + math.sqrt(3.0)))
        val = integrate_de(_brute_force_integrand, 0.0, 1.0 - u0)
        # substitution v = t^4 absorbs the singularity:
        # f dv = 4 u (2 + u) (1 + u)^(-5/4) dt with u = 1 - t^4
        t_hi = (1.0 - u0) ** 0.25
        total = 0.0
        n = 200000
        h = t_hi / n
        for i in range(n):
            u = 1.0 - ((i + 0.5) * h) ** 4
            total += 4.0 * u * (2.0 + u) * (1.0 + u) ** -1.25 * h
        assert val == pytest.approx(total, abs=1e-9)

    def test_divergent(self):
        with pytest.raises(DivergenceError):
            integrate_de(lambda x: 1.0 / x, 0.0, 1.0)


#: (f, a, b): TestIntegrateDE's convergent cases, a left half line and a
#: reversed interval
DE_CASES = [
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    (lambda x: math.exp(-x), 0.0, math.inf),
    (lambda x: math.exp(-x * x), -math.inf, math.inf),
    (lambda x: x ** -0.75, 0.0, 1.0),
    (math.log, 0.0, 1.0),
    (_brute_force_integrand, 0.0, 1.0 - constants.U0),
    (lambda x: math.exp(x), -math.inf, 0.3),
    (lambda x: 1.0 / (1.0 + x * x), 2.0, -1.0),
]


class TestBitForBit:
    """integrate_de and the in-module Brent loop give exactly what the
    per-node oracle rule and scipy's bounded minimiser give."""

    @pytest.mark.parametrize("case", range(len(DE_CASES)))
    def test_integrate_de(self, case):
        f, a, b = DE_CASES[case]
        assert integrate_de(f, a, b).hex() == \
            integrate_de_per_node(f, a, b).hex()

    def test_integrate_de_seeded_family(self):
        # endpoint-singular oscillating integrands and slowly decaying half
        # lines, whose nodes weigh alike at level 0, so a change in the
        # order of accumulation shows
        rng = random.Random(5)

        def outcome(rule, f, a, b):
            try:
                return rule(f, a, b).hex()
            except DivergenceError:
                return "diverges"

        for _ in range(40):
            s, c = rng.uniform(0.0, 0.9), rng.uniform(0.1, 5.0)
            a = rng.uniform(-2.0, 1.0)
            b = a + rng.uniform(0.1, 4.0)
            for f, hi in ((lambda x: (x - a) ** -s * math.cos(c * x), b),
                          (lambda x: math.exp(-c * x) * (1.0 + x - a) ** s,
                           math.inf)):
                assert outcome(integrate_de, f, a, hi) == \
                    outcome(integrate_de_per_node, f, a, hi)

    @pytest.mark.parametrize("eta, mode", [(0.5, "numeric")])
    def test_theta_integrands(self, eta, mode, monkeypatch):
        # the numeric route's half lines and finite pieces; the closed route
        # sums a series (TestTableOracles holds it to mpmath)
        calls = []

        def both(f, a, b):
            calls.append((integrate_de(f, a, b),
                          integrate_de_per_node(f, a, b)))
            return calls[-1][0]

        monkeypatch.setattr(constants, "integrate_de", both)
        constants.theta_weight(constants.ThetaParams(eta, 0.5, 1.5), mode)
        assert len(calls) >= 3
        assert [x.hex() for x, _ in calls] == [y.hex() for _, y in calls]

    def test_divergent_raises_on_both(self):
        for rule in (integrate_de, integrate_de_per_node):
            with pytest.raises(DivergenceError):
                rule(lambda x: 1.0 / x, 0.0, 1.0)

    def test_minimize_ggm_integrand(self):
        grid = [0.5 + i / 1000 for i in range(1, 1001)]
        for gamma in random.Random(23).sample(grid, 50):
            hi = min(1.5, gamma + 0.5)

            def f(m):
                return constants._ggm_integrand(m, gamma)

            got = minimize_1d(f, 1.0 + 1e-6, hi - 1e-6)
            want = minimize_1d_scipy(f, 1.0 + 1e-6, hi - 1e-6)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("f", [lambda x: (x - 0.3) ** 2,
                                   lambda x: 4.2, lambda x: x,
                                   lambda x: math.exp(-3.0 * x)])
    def test_minimize_plain_functions(self, f):
        got, want = minimize_1d(f, 0.0, 1.0), minimize_1d_scipy(f, 0.0, 1.0)
        assert [float(v).hex() for v in got] == \
            [float(v).hex() for v in want]

    @pytest.mark.parametrize("f, error", [
        (lambda x: 1.0 / x, ZeroDivisionError),  # at the polish of lo = 0
        (lambda x: float("nan"), NumericsError)])
    def test_minimize_raises_on_both(self, f, error):
        for rule in (minimize_1d, minimize_1d_scipy):
            with pytest.raises(error):
                rule(f, 0.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (1.0, 0.0)])
    def test_bad_bounds_raise_on_both(self, lo, hi):
        for rule in (minimize_1d, minimize_1d_scipy):
            with pytest.raises(ValueError):
                rule(lambda x: x * x, lo, hi)


class TestGamma:
    def test_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(2.5) == pytest.approx(1.5 * gamma_fn(1.5), rel=1e-13)
        assert gamma_fn(2.5) == pytest.approx(0.75 * math.sqrt(math.pi),
                                              rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.0)


class TestPieceStepArray:
    def test_matches_piece_step(self):
        # rotations, hyperbolic steps and the shear at q = 0, in one array
        rng = np.random.default_rng(7)
        d = rng.uniform(0.0, 2.0, 300)
        q = rng.uniform(-30.0, 30.0, 300)
        q[::10] = 0.0
        m = piece_step_array(d, q)
        assert [e.shape for e in m] == [(300,)] * 4
        for i in range(300):
            assert [e[i] for e in m] == pytest.approx(piece_step(d[i], q[i]),
                                                      rel=1e-13, abs=1e-15)

    def test_entries_take_the_broadcast_shape(self):
        # one length per row against a (row, k) grid of q, as the product
        # takes them, gives the entries of the full grid
        d, q = np.array([[0.3], [1.1]]), np.array([[4.0, -2.0, 0.0]] * 2)
        m = piece_step_array(d, q)
        assert [e.shape for e in m] == [(2, 3)] * 4
        full = piece_step_array(np.broadcast_to(d, q.shape).ravel(), q.ravel())
        for e, f in zip(m, full):
            assert e.ravel().tolist() == f.tolist()


#: (f, lo, hi): smooth, steep and flat functions, tiny values whose
#: extrapolation denominators underflow, a jump and a pole
ROOT_CASES = [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e4, 0.0, 20.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
    (lambda x: math.atan(1e6 * (x - 0.1234)), -1.0, 1.0),
    (lambda x: (x - 0.7) ** 9, 0.0, 1.0),
    (lambda x: x ** 5 - 1e-10, -0.5, 1.0),
    (lambda x: math.exp(-1.0 / (x * x)) - 1e-3 if x else -1e-3, 0.0, 2.0),
    (lambda x: 1e-200 * (x ** 3 - 0.2), 0.0, 1.0),
    (lambda x: 1e-300 * (math.exp(x) - 2.0), -1.0, 3.0),
    (lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0),
    (lambda x: 1.0 / (x - 0.3) if x != 0.3 else math.inf, 0.0, 1.0),
    (lambda x: x - 0.5, 0.5, 1.0),
]
ROOT_TOLS = [(1e-12, 1e-12), (1e-15, 1e-14), (1e-13, 1e-13), (1e-6, 1e-6),
             (1e-3, 0.0)]


class TestFindRootBitForBit:
    """The in-module Brent loop gives exactly what scipy's brentq gives."""

    @pytest.mark.parametrize("case", range(len(ROOT_CASES)))
    @pytest.mark.parametrize("tols", ROOT_TOLS, ids=str)
    def test_functions(self, case, tols):
        f, lo, hi = ROOT_CASES[case]
        for a, b in ((lo, hi), (hi, lo)):
            assert find_root(f, a, b, *tols).hex() == \
                find_root_scipy(f, a, b, *tols).hex()

    @staticmethod
    def record(monkeypatch, module):
        """find_root in module, run on both rules; the pairs of roots."""
        pairs = []

        def both(f, lo, hi, xtol, rtol):
            got = find_root(f, lo, hi, xtol, rtol)
            pairs.append((got.hex(),
                          find_root_scipy(f, lo, hi, xtol, rtol).hex()))
            return got

        monkeypatch.setattr(module, "find_root", both)
        return pairs

    def test_varsigma(self, monkeypatch):
        pairs = self.record(monkeypatch, constants)
        for y in (1e-8, 0.1, 1.0, 3.0, 10.0, 1e3):
            constants.varsigma(y)
        assert len(pairs) == 6
        assert all(got == want for got, want in pairs)

    def test_crossover(self, monkeypatch):
        pairs = self.record(monkeypatch, constants)
        constants.crossover()
        assert len(pairs) == 1 and pairs[0][0] == pairs[0][1]

    def test_slope_sign(self, monkeypatch):
        pairs = self.record(monkeypatch, constants)
        for eta in (0.01, 0.25, 0.5, 0.75, 0.99):
            for p0, p1 in ((1.0, 2.0), (0.5, 1.5), (2.0, 0.5), (3.0, 1.5)):
                constants.theta_weight(constants.ThetaParams(eta, p0, p1),
                                       "numeric")
        assert len(pairs) > 20
        assert all(got == want for got, want in pairs)

    def test_partition_breakpoints(self, monkeypatch):
        pairs = self.record(monkeypatch, bracketing)
        for seed in range(1, 21):
            bracketing.build_partition(
                cli.random_piecewise(seed, domain="half_line"))
        assert len(pairs) > 20
        assert all(got == want for got, want in pairs)

    def test_exact_shooting(self, monkeypatch):
        pairs = self.record(monkeypatch, sturm)
        for seed in range(1, 21):
            sturm.solve_line(cli.random_piecewise(seed))
        assert len(pairs) >= 20
        assert all(got == want for got, want in pairs)

    def test_nan_raises_on_both(self):
        for f in (lambda x: math.nan,  # at an end
                  lambda x: math.nan if 0.1 < x < 0.9 else x - 0.5):
            for rule in (find_root, find_root_scipy):
                with pytest.raises(ValueError):
                    rule(f, 0.0, 1.0, 1e-12, 1e-12)

    def test_no_convergence_raises_on_both(self):
        # a jump at 0 that xtol asks to locate to 1e-300: bisection needs
        # about 1,000 steps, past MAX_ITER
        for rule in (find_root, find_root_scipy):
            with pytest.raises(RuntimeError):
                rule(lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 2.0,
                     1e-300, 1e-15)
