import math

import numpy as np
import pytest

from lt_spectral.numerics import (BracketError, DivergenceError, find_root,
                                  gamma_fn, integrate_de, minimize_1d,
                                  piece_step, piece_step_array)


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

    def test_non_finite(self):
        with pytest.raises(Exception):
            minimize_1d(lambda x: float("nan"), 0.0, 1.0)


class TestIntegrateDE:
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

        def f(v):
            u = 1.0 - v
            return u * (2.0 + u) * v ** -0.75 * (1.0 + u) ** -1.25

        val = integrate_de(f, 0.0, 1.0 - u0)
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
        assert m.shape == (300, 2, 2)
        for i in range(300):
            assert m[i].ravel() == pytest.approx(piece_step(d[i], q[i]),
                                                 rel=1e-13, abs=1e-15)
