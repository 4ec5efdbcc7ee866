import gc
import json
import math
import weakref

import numpy as np
import pytest

from lt_spectral import cli, scattering
from lt_spectral.cli import random_piecewise
from lt_spectral.constants import VARSIGMA_3
from lt_spectral.numerics import InvariantError
from lt_spectral.potential import (Gaussian, PiecewiseConstant, PoschlTeller,
                                   Sampled, SquareWell, Sum, Zero)
from lt_spectral.scattering import (K_CHECK, ScatteringData,
                                    ScatteringError, _cells,
                                    _check_against_ode, _halved,
                                    _log_integral, _Propagator,
                                    _reflection_at, _scatter_box, _transfer,
                                    _transfer_ode, default_k_grid,
                                    reflection_coefficient,
                                    sum_rule_residual, theorem2_check)

from oracles import (log_transmission_integral, plane_wave_projection,
                     poschl_teller_reflection_sq, square_well_reflection_sq,
                     transfer_pairwise)

MODEST_GRID = np.geomspace(0.02, 20.0, 40)


class Opaque(PiecewiseConstant):
    """A piece list without pieces(): scattering takes the cell path."""

    def pieces(self):
        return None


class StubPropagator:
    """A fixed transfer matrix (m00, m01, m10, m11) across [-X, X], the same
    at every wavenumber."""

    def __init__(self, M, X=1.0):
        self.M, self.X = M, X

    def matrix(self, ks):
        return tuple(np.full(np.shape(ks), m) for m in self.M)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("v,a", [(1.0, 1.0), (2.0, 1.0), (4.0, 0.5),
                                     (-2.0, 1.0)])
    def test_square_well(self, v, a):
        V = SquareWell(abs(v), -a, a)
        if v < 0:
            V = PiecewiseConstant([-a, a], [v])
        data = reflection_coefficient(V, MODEST_GRID)
        for k, r in zip(data.k_grid, data.R_values):
            exact = square_well_reflection_sq(v, a, k)
            assert abs(r) ** 2 == pytest.approx(exact, abs=1e-8)

    def test_exact_steps_match_ode_phase(self):
        # |R| does not see where the free steps lie, the phase of R does;
        # the same off-centre pieces without pieces() take the cell path,
        # exact up to rounding since its cells are cut at the jumps, and
        # the ODE is a third, independent route
        args = ([-0.9, 0.2, 1.4], [2.0, -1.0])
        exact = _Propagator(PiecewiseConstant(*args))
        cells = _Propagator(Opaque(*args))
        assert cells.pieces is None and exact.pieces is not None
        ks = np.array([0.3, 1.7, 6.0])
        r_exact = _reflection_at(exact, ks)[0]
        assert np.all(np.abs(r_exact - _reflection_at(cells, ks)[0]) < 1e-12)
        for k, r in zip(ks, r_exact):
            ode = StubPropagator(
                _transfer_ode(cells.V, cells.X, k), cells.X)
            assert abs(r - _reflection_at(ode, [k])[0][0]) < 1e-6

    def test_zero_potential(self):
        data = reflection_coefficient(Zero(), MODEST_GRID)
        assert data.max_reflection() < 1e-12
        assert data.log_integral == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("V", [
        *(random_piecewise(seed) for seed in range(1, 6)),
        SquareWell(5.0, -0.5, 0.5),
        Opaque([-0.9, 0.2, 1.4], [2.0, -1.0])],
        ids=[*(f"seed{seed}" for seed in range(1, 6)), "well", "cells"])
    def test_projection_matches_linear_solve(self, V):
        # the closed-form projection against np.linalg.solve(Wp, M Wm);
        # t2 = 1 - |R|^2 against |T|^2 / det M with the solve's T = P00 +
        # P01 R
        prop = _Propagator(V)
        ks = np.geomspace(0.01, 100.0, 40)
        Ms = np.transpose(prop.matrix(ks))
        for k, M in zip(ks, Ms):
            R, t2, _ = _reflection_at(StubPropagator(M, prop.X), [k])
            R_ref, T_ref = plane_wave_projection(M, k, prop.X)
            det = M[0] * M[3] - M[1] * M[2]
            assert abs(R[0] - R_ref) <= 1e-13
            assert abs(t2[0] - abs(T_ref) ** 2 / det) <= 1e-13


class TestReflectionless:
    def test_poschl_teller_one(self):
        data = reflection_coefficient(PoschlTeller(1.0), MODEST_GRID)
        assert data.max_reflection() < 1e-5
        # perfect transmission kills the log term entirely
        assert abs(data.log_integral) < 1e-6

    def test_poschl_teller_two(self):
        data = reflection_coefficient(PoschlTeller(2.0), MODEST_GRID)
        assert data.max_reflection() < 1e-5

    @pytest.mark.parametrize("nu,c,alpha", [(1, 0.0, 2.0), (2, 0.5, 2.0),
                                            (3, -0.25, 1.5)])
    def test_cell_path_log_integral_vanishes(self, nu, c, alpha):
        # ln t2 = ln(det M / |P11|^2) is ln(1 - |R|^2) up to rounding;
        # ln|T|^2 would add ln det M, the rounding drift of the product
        prop = _Propagator(PoschlTeller(nu, c=c, alpha=alpha))
        assert prop.pieces is None
        assert abs(_log_integral(prop)) <= 1e-14

    @pytest.mark.parametrize("nu,c,alpha", [(1, 0.0, 2.0), (2, 0.5, 2.0),
                                            (3, -0.25, 1.5)])
    def test_cells_settle_at_low_k(self, nu, c, alpha):
        # the Magnus error is largest at low k, where the projection
        # divides entry errors by 2k; settled at K_CHECK and k_max alone,
        # the nu = 3 well gave |R| = 2.7e-8 at k = 0.01 (true value 0)
        prop = _Propagator(PoschlTeller(nu, c=c, alpha=alpha))
        R = _reflection_at(prop, default_k_grid())[0]
        assert np.max(np.abs(R)) <= 5e-9


class TestUnitarity:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_compact(self, seed):
        V = random_piecewise(seed, signed=True)
        data = reflection_coefficient(V, MODEST_GRID)
        assert data.max_reflection() <= 1.0 + 1e-9
        assert max(data.unitarity_defects) < 1e-8

    @pytest.mark.parametrize("k", [0.3, 3.0])
    def test_determinant_gate(self, k):
        # the gate sits at 100 SCATTER_TOL = 1e-6; M = diag(1 + delta,
        # 1) has det M - 1 = delta and unitarity defect delta (1 + O(delta^2))
        defect = _reflection_at(StubPropagator((1.0 + 5e-7, 0.0, 0.0, 1.0)),
                                [k])[2]
        assert defect[0] == pytest.approx(5e-7, abs=1e-12)
        with pytest.raises(ScatteringError,
                           match="transfer matrix determinant drifted"):
            _reflection_at(StubPropagator((1.0 + 2e-6, 0.0, 0.0, 1.0)), [k])

    def test_gaussian_cell_path(self):
        # Magnus steps have det 1, so only rounding moves the product's det
        data = reflection_coefficient(Gaussian(2.0), MODEST_GRID)
        assert max(data.unitarity_defects) < 1e-9


class TestLogIntegral:
    def test_nonpositive(self):
        for V in (SquareWell(2.0, -1.0, 1.0), Gaussian(1.5),
                  random_piecewise(4, signed=True)):
            data = reflection_coefficient(V, MODEST_GRID)
            assert data.log_integral <= 1e-12

    @pytest.mark.parametrize("V", [
        *(random_piecewise(seed) for seed in range(1, 21)),
        SquareWell(2.0, -1.0, 1.0), SquareWell(5.0, -0.5, 0.5),
        SquareWell(1.0, -2.0, 2.0), random_piecewise(3, signed=True),
        SquareWell(1000.0, 200.0, 200.0001)],
        ids=[*(f"seed{seed}" for seed in range(1, 21)), "well2", "well5",
             "well1", "signed3", "narrow"])
    def test_exact_path_matches_the_oracle(self, V):
        # the batched Gauss-Kronrod rule against quad of the scalar oracle
        # on fixed panels, with the same k^-4 tail model
        ref = log_transmission_integral(V.pieces(), scattering.K_MAX)
        assert abs(_log_integral(_Propagator(V)) - ref) <= 1e-9

    @pytest.mark.parametrize("degree", range(23))
    def test_kronrod_rule_is_exact_on_polynomials(self, degree):
        # K15 integrates degree 22 exactly and G7 degree 13, so the error
        # estimate vanishes up to degree 13
        one = np.array([-1.0]), np.array([1.0])
        value, err = scattering._gk_panels(lambda x: x ** degree, *one)
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(value[0] - exact) <= 1e-15
        if degree <= 13:
            assert err[0] <= 1e-15

    def test_halving_cap_raises(self, monkeypatch):
        # this well settles after 2 halvings of its 72 starting panels;
        # with room for 1 the rule gives up, and nothing is memoised
        monkeypatch.setattr(scattering, "LOG_SPLITS_MAX", 1)
        V = SquareWell(2.0, -1.0, 1.0)
        with pytest.raises(ScatteringError, match="did not settle in 1"):
            _log_integral(_Propagator(V))
        assert V not in scattering._LOG_INTEGRALS

    def test_start_is_capped_on_very_wide_supports(self, monkeypatch):
        # pi / width panels would be 32 million here; the start is capped,
        # so memory stays bounded, and the rule gives up on the 10^6
        # interference periods it cannot resolve in 2000 halvings
        sizes, real = [], scattering._gk_panels

        def spy(g, lo, hi):
            sizes.append(len(lo))
            return real(g, lo, hi)

        monkeypatch.setattr(scattering, "_gk_panels", spy)
        with pytest.raises(ScatteringError, match="did not settle"):
            _log_integral(_Propagator(SquareWell(1.0, -5e5, 5e5)))
        assert sizes[0] == scattering.LOG_START_MAX

    def test_graded_start_settles_in_few_rounds(self, monkeypatch):
        # near k = 0 the integrand behaves like t ln t; from a uniform start
        # the rule halved the panel at t = 0 once per round, 8 or 9 rounds
        # in all, and from the graded start it takes 1 or 2
        rounds, real = [], scattering._gk_panels

        def spy(g, lo, hi):
            rounds.append(len(lo))
            return real(g, lo, hi)

        monkeypatch.setattr(scattering, "_gk_panels", spy)
        for seed in range(1, 21):
            rounds.clear()
            scattering._log_integral_uncached(
                _Propagator(random_piecewise(seed)))
            assert len(rounds) <= 3, seed

    def test_chunked_rounds_give_the_same_integral(self, monkeypatch):
        # one product per LOG_CHUNK panels bounds the memory of a round;
        # where the panels go does not depend on it
        V, W = SquareWell(2.0, -1.0, 1.0), SquareWell(2.0, -1.0, 1.0)
        whole = _log_integral(_Propagator(V))
        monkeypatch.setattr(scattering, "LOG_CHUNK", 3)
        assert _log_integral(_Propagator(W)) == pytest.approx(whole,
                                                              abs=1e-15)

    def test_low_k_total_reflection(self):
        # |R| -> 1 as k -> 0 for generic potentials, yet the integral
        # converges; check it is finite and clearly negative
        data = reflection_coefficient(SquareWell(2.0, -1.0, 1.0))
        assert math.isfinite(data.log_integral)
        assert data.log_integral < -0.1


class TestLogIntegralMemo:
    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(scattering, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scattering, name, counted)
        return calls

    def test_public_calls_share_one_integral(self, monkeypatch):
        # the cell path solves one ODE, the log integral's cross-check
        V = Gaussian(1.0)
        quads = self.count(monkeypatch, "quad")
        solves = self.count(monkeypatch, "solve_ivp")
        data = reflection_coefficient(V, [1.0])
        after_first = len(solves)
        assert len(quads) == 1 and after_first == 1
        sum_rule_residual(V)
        lhs, _ = theorem2_check(V)
        assert len(quads) == 1 and len(solves) == after_first
        assert lhs == -data.log_integral

    def test_stated_tolerance_shares_the_integral(self, monkeypatch):
        # a stated tolerance reaches the eigenvalue solver only, so the
        # sum rule at 1e-9 reuses the integral the default computed
        V = SquareWell(2.0, -1.0, 1.0)
        computed = self.count(monkeypatch, "_log_integral_uncached")
        reflection_coefficient(V)
        assert len(computed) == 1
        sum_rule_residual(V, 1e-9)
        assert len(computed) == 1

    def test_cached_value_is_a_fresh_value(self):
        args = ([-0.9, 0.2, 1.4], [2.0, -1.0])
        V = PiecewiseConstant(*args)
        first = _log_integral(_Propagator(V))
        again = _log_integral(_Propagator(V))
        fresh = _log_integral(_Propagator(PiecewiseConstant(*args)))
        assert again.hex() == first.hex() == fresh.hex()

    def test_equal_potentials_keep_their_own_routes(self, monkeypatch):
        # keyed on identity: the cell twin of a piece list computes its own
        args = ([-0.9, 0.2, 1.4], [2.0, -1.0])
        V, W = PiecewiseConstant(*args), Opaque(*args)
        assert V.breakpoints.tolist() == W.breakpoints.tolist()
        assert V.values.tolist() == W.values.tolist()
        routes = []

        def record(prop):
            routes.append("cells" if prop.pieces is None else "exact")
            return -1.0 * len(routes)

        monkeypatch.setattr(scattering, "_log_integral_uncached", record)
        values = [_log_integral(_Propagator(U))
                  for U in (V, W, V, W)]
        assert routes == ["exact", "cells"]
        assert values == [-1.0, -2.0, -1.0, -2.0]

    def test_entry_dies_with_its_potential(self):
        V = SquareWell(2.0, -1.0, 1.0)
        _log_integral(_Propagator(V))
        assert V in scattering._LOG_INTEGRALS
        ref = weakref.ref(V)
        del V
        gc.collect()
        # the table did not keep V alive, and kept no entry for it
        assert ref() is None
        assert all(r() is not None
                   for r in scattering._LOG_INTEGRALS.keyrefs())

    def test_failure_is_not_cached(self, monkeypatch):
        # a determinant drift past the gate at every k, planted in the
        # batched product: each call computes again and fails again
        real, calls = scattering._transfer, []

        def drifting(steps, ks):
            calls.append(ks)
            a, b, c, d = real(steps, ks)
            return a * (1.0 + 2e-6), b, c, d

        monkeypatch.setattr(scattering, "_transfer", drifting)
        V = SquareWell(2.0, -1.0, 1.0)
        for count in (1, 2):
            with pytest.raises(ScatteringError, match="determinant"):
                _log_integral(_Propagator(V))
            assert len(calls) == count
        assert V not in scattering._LOG_INTEGRALS


def _bits(entries):
    return np.array(entries).view(np.int64)


class TestPairwiseProduct:
    """_transfer against the four-array pairwise product of the oracle,
    bit for bit, the sign of zero included."""

    @staticmethod
    def random_steps(n, ks, seed):
        # signed means, so that some steps are hyperbolic at some k; beta
        # != 0 on most steps; every fifth step a shear at ks[0], where
        # k^2 + mean - beta^2 is exactly 0 and the step's m10 is -0.0
        rng = np.random.default_rng(seed)
        h = rng.uniform(1e-3, 0.2, n)
        mean = rng.normal(0.0, 6.0, n)
        beta = rng.normal(0.0, 1.0, n) * (rng.random(n) < 0.8)
        mean[::5], beta[::5] = -(ks[0] * ks[0]), 0.0
        return h, mean, beta

    @pytest.mark.parametrize("K", [1, 3, 1000])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
    def test_random_steps(self, n, K):
        ks = np.random.default_rng(K).uniform(0.01, 3.0, K)
        steps = self.random_steps(n, ks, seed=n * K)
        q = ks * ks + steps[1][:, None] - (steps[2] ** 2)[:, None]
        assert np.any(q == 0.0) and (n < 2 or np.any(q < 0.0))
        assert np.any(steps[2] != 0.0) or n == 1
        M = _transfer(steps, ks)
        assert [m.shape for m in M] == [(K,)] * 4
        assert np.array_equal(_bits(M), _bits(transfer_pairwise(steps, ks)))

    def test_one_shear_step_keeps_its_negative_zero(self):
        M = _transfer(([0.5], [-4.0], [0.0]), np.array([2.0]))
        assert _bits(M).tolist() == _bits([[1.0], [0.5], [-0.0], [1.0]]
                                          ).tolist()

    @pytest.mark.parametrize("V", [Gaussian(1.5, width=2.0),
                                   PoschlTeller(3.0, c=-0.25, alpha=1.5)],
                             ids=["gaussian", "poschl_teller"])
    def test_settled_cells(self, V):
        steps = _Propagator(V).steps
        ks = np.array([scattering.K_MIN, K_CHECK, 37.5])
        assert np.array_equal(_bits(_transfer(steps, ks)),
                              _bits(transfer_pairwise(steps, ks)))


class TestCellPath:
    @pytest.mark.parametrize("nu", [0.3, 2.7, 6.2])
    def test_poschl_teller_closed_form(self, nu):
        prop = _Propagator(PoschlTeller(nu))
        Rs = _reflection_at(prop, MODEST_GRID)[0]
        for k, R in zip(MODEST_GRID, Rs):
            assert abs(R) ** 2 == pytest.approx(
                poschl_teller_reflection_sq(nu, 1.0, k), abs=1e-8)

    def test_magnus_difference_falls_sixteenfold(self):
        # fourth-order Magnus steps leave an h^4 error: successive products
        # differ about 16 times less per halving of the cells
        V = Gaussian(1.5, width=2.0)
        X = _scatter_box(V)
        edges, diffs, last = np.linspace(-X, X, 129), [], None
        for _ in range(5):
            M = np.ravel(_transfer(_cells(V, edges), np.array([K_CHECK])))
            if last is not None:
                diffs.append(np.max(np.abs(M - last)))
            last, edges = M, _halved(edges)
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 14.0 < coarse / fine < 18.0

    def test_cells_are_cut_at_jumps(self):
        # a piece list without pieces(): its cells are cut at the jumps, so
        # the cell path matches the exact path's log integral
        args = ([-0.9, 0.2, 1.4], [2.0, -1.0])
        cells = _log_integral(_Propagator(Opaque(*args)))
        exact = _log_integral(_Propagator(PiecewiseConstant(*args)))
        assert cells == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("shift,fails", [(5e-7, False), (2e-6, True)])
    def test_cross_check_against_the_ode(self, monkeypatch, shift, fails):
        # the gate sits at 100 SCATTER_TOL = 1e-6 of the largest entry
        real = scattering._transfer_ode

        def shifted(*args):
            M = real(*args)
            return (M[0] + shift * max(map(abs, M)), *M[1:])

        monkeypatch.setattr(scattering, "_transfer_ode", shifted)
        prop = _Propagator(Gaussian(1.0))
        if fails:
            with pytest.raises(ScatteringError, match="differ"):
                _log_integral(prop)
        else:
            assert _log_integral(prop) < 0.0

    def test_cross_check_holds_across_kinks(self):
        # at the gate's own tolerance, rtol 1e-6, DOP853 missed this matrix
        # by 2.4e-6 across V's kinks, past the gate at 1e-6
        V = Sampled([-1.0, 0.0, 0.5, 2.0], [0.0, 3.0, 1.0, 0.5])
        _check_against_ode(_Propagator(V), K_CHECK)

    def test_kinks_are_cell_edges(self):
        # inside a cell a kink costs the Magnus step its order: cut only at
        # the ends, this Sampled settled on 32,832 cells, and its sum with
        # a Gaussian (a wider box) not on CELLS_MAX
        V = Sampled([-2.0, -0.5, 1.0, 2.5], [1.5, -0.5, 2.0, 0.75])
        assert len(_Propagator(V).steps[0]) <= 2048
        W = Sum([Gaussian(2.0, 0.7, 1.1), V])
        assert len(_Propagator(W).steps[0]) <= scattering.CELLS_MAX

    def test_unsettled_cells_raise(self, monkeypatch):
        # from 32 cells, the products on 128 and on 256 cells still differ
        # by 1.9e-6 of their largest entry at K_CHECK, past the settle
        # criterion SCATTER_TOL
        monkeypatch.setattr(scattering, "CELLS_MIN", 2 ** 5)
        monkeypatch.setattr(scattering, "CELLS_MAX", 2 ** 8)
        prop = _Propagator(Gaussian(1.5, width=2.0), k_max=K_CHECK)
        with pytest.raises(ScatteringError, match="did not settle"):
            prop.matrix(np.array([K_CHECK]))

    def test_unresolvable_k_max_raises(self):
        prop = _Propagator(Gaussian(1.5, width=2.0), k_max=1e5)
        with pytest.raises(ScatteringError, match="needs more than"):
            prop.matrix(np.array([1.0]))

    @pytest.mark.parametrize("nu,alpha", [(2.7, 0.3), (1.5, 0.25)])
    def test_wide_well_past_the_bragg_wavenumber(self, nu, alpha):
        # a staircase of cell means reflects coherently near k = pi / h;
        # with the cells chosen at K_CHECK alone that peak sat inside the
        # default grid on these wells (box X ~ 50) and |R| was off by 2e-5
        # where the true R is about 0
        prop = _Propagator(PoschlTeller(nu, alpha=alpha))
        ks = default_k_grid()
        ks = ks[ks >= 10.0]
        for k, R in zip(ks, _reflection_at(prop, ks)[0]):
            assert abs(R) == pytest.approx(
                math.sqrt(poschl_teller_reflection_sq(nu, alpha, k)),
                abs=1e-8)

    def test_cells_are_chosen_once_and_only_when_needed(self, monkeypatch):
        pairs = TestLogIntegralMemo.count(monkeypatch, "_settled_cells")
        V = Gaussian(1.5, width=2.0)
        prop = _Propagator(V)
        assert pairs == []
        prop.matrix(np.array([1.0]))
        prop.matrix(np.array([3.0]))
        assert len(pairs) == 1
        _log_integral(prop)
        # a memo hit builds no cells
        _log_integral(_Propagator(V))
        theorem2_check(V)
        assert len(pairs) == 1

    def test_log_integral_ignores_the_grid(self):
        # a grid past K_MAX gets finer cells; the memoised integral does
        # not, so its value does not depend on which call came first
        V, W = Gaussian(1.5, width=2.0), Gaussian(1.5, width=2.0)
        wide = reflection_coefficient(V, [1.0, 150.0])
        assert wide.log_integral.hex() == _log_integral(
            _Propagator(W)).hex()

    def test_box_outside_the_domain(self):
        with pytest.raises(ValueError, match="requires a full-line"):
            _Propagator(Gaussian(1.0, domain="half_line"))


class TestSumRule:
    @pytest.mark.parametrize("V,budget", [
        (SquareWell(2.0, -1.0, 1.0), 1e-3),
        (PoschlTeller(1.0), 1e-6),
        (PoschlTeller(2.0), 1e-6),
        (Gaussian(2.0), 1e-5),
    ])
    def test_residual_small(self, V, budget):
        assert abs(sum_rule_residual(V)) < budget

    @pytest.mark.parametrize("seed", [8, 9, 14])
    def test_exact_moment_closes_the_rule(self, seed):
        # seeds whose shallow states the FD ladder left unresolved (seed 2
        # is the CLI's test): with the exact eigenvalues only the
        # log-integral quadrature (about 1e-6) is left in the residual
        assert abs(sum_rule_residual(random_piecewise(seed))) <= 1e-6

    def test_residual_scales(self):
        # both sides of the rule scale linearly under x -> alpha x
        V = SquareWell(2.0, -1.0, 1.0)
        assert abs(sum_rule_residual(V.scaled(2.0))) < 2e-3


class TestTheorem2:
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_signed_random(self, seed):
        V = random_piecewise(seed, signed=True)
        lhs, rhs = theorem2_check(V)
        assert lhs <= rhs + 1e-9
        assert lhs >= 0.0

    def test_nonnegative_well(self):
        lhs, rhs = theorem2_check(SquareWell(2.0, -1.0, 1.0))
        expect_rhs = (4.0 * VARSIGMA_3 / 3.0 - 1.0) * 4.0
        assert rhs == pytest.approx(expect_rhs, rel=1e-12)
        assert lhs <= rhs


class TestApiAndSerialization:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            reflection_coefficient(Zero(), [0.0, 1.0])
        with pytest.raises(ValueError):
            reflection_coefficient(Zero(), [-1.0])
        with pytest.raises(ValueError):
            reflection_coefficient(Zero(), [])

    @pytest.mark.parametrize("V", [SquareWell(2.0, -1.0, 1.0),
                                   Gaussian(1.5, width=2.0)],
                             ids=["exact", "cells"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_k(self, V, bad):
        # bad input, not a numerical failure: NaN would fail a gate, and
        # k = inf would ask the cell path for unboundedly many cells
        with pytest.raises(ValueError, match="finite"):
            reflection_coefficient(V, [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            _reflection_at(_Propagator(V), np.array([1.0, bad]))

    @pytest.mark.parametrize("V", [
        PiecewiseConstant([-0.9, 0.2, 1.4], [2.0, -1.0]),
        Gaussian(1.5, width=2.0)], ids=["exact", "cells"])
    def test_chunked_products_match_the_whole(self, monkeypatch, V):
        # products of 8 (step, k) pairs, or of one k, give the one
        # product's columns bit for bit; the refinement pass may ask for no
        # k, which gives four empty arrays
        prop = _Propagator(V)
        ks = np.geomspace(0.01, 100.0, 37)
        whole = _transfer(prop.steps, ks)
        monkeypatch.setattr(scattering, "PRODUCT_SIZE", 8)
        assert all(np.array_equal(chunked, column)
                   for chunked, column in zip(prop.matrix(ks), whole))
        assert [len(m) for m in prop.matrix(np.array([]))] == [0, 0, 0, 0]

    def test_default_grid(self):
        ks = default_k_grid()
        assert len(ks) == 400
        assert ks[0] == pytest.approx(0.01) and ks[-1] == pytest.approx(100.0)

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "well.json"
        path.write_text(json.dumps(
            {"family": "square_well", "params": {"v": 2, "a": -1, "b": 1}}))
        assert cli.main(["scatter", "--potential", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,re_R,im_R,abs_R2,unitarity_defect"
        assert len(lines) >= 401
        for line in lines[1::40]:
            k, _, _, abs_R2, _ = map(float, line.split(","))
            assert abs_R2 == pytest.approx(
                square_well_reflection_sq(2.0, 1.0, k), abs=1e-8)

    def test_refinement_inserts_midpoints(self):
        # a deep well has sharp |R|^2 drops; the coarse grid gets refined
        data = reflection_coefficient(SquareWell(30.0, -1.0, 1.0),
                                      np.geomspace(0.1, 10.0, 12))
        assert len(data) > 12

    def test_data_invariants(self):
        with pytest.raises(InvariantError):
            ScatteringData((1.0, 1.0), (0j, 0j), (0.0, 0.0), 0.0)
        with pytest.raises(InvariantError):
            ScatteringData((1.0,), (1.5 + 0j,), (0.0,), 0.0)
        with pytest.raises(InvariantError):
            ScatteringData((1.0,), (0j,), (0.0,), 1.0)
