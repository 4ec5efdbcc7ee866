import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lt_spectral.constants import (L_HALF, U0, VARSIGMA_3, ThetaParams,
                                   _theta_log_inf, c_factor,
                                   char_interp_constant,
                                   classical_constant, constants_row,
                                   crossover, density_constants,
                                   doublestar_constant, ggm_constant,
                                   lt_constant, m_factor, one_state_constant,
                                   star_constant, theta_fn, theta_weight,
                                   varsigma)

from lt_spectral import cli, constants
from lt_spectral.numerics import NumericsError
from oracles import (crossover_mp, doublestar_mp, ggm_min_mp, star_mp,
                     theta_half_threehalf_mp, theta_half_threehalf_quad_mp,
                     theta_inner_inf, varsigma_3_mp, varsigma_small_mp)


class TestVarsigma:
    def test_inversion(self):
        for y in (0.1, 1.0, 3.0, 10.0, 50.0):
            assert theta_fn(varsigma(y)) == pytest.approx(y, rel=1e-10)

    def test_value_at_three(self):
        assert VARSIGMA_3 == pytest.approx(3.014482776033773, abs=1e-12)
        assert L_HALF == VARSIGMA_3 / 3.0
        assert L_HALF == pytest.approx(1.0048275920112577, abs=1e-12)

    @pytest.mark.parametrize("y", [1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.3,
                                   0.4999])
    def test_relative_accuracy_at_small_arguments(self, y):
        # the root is about sqrt(y): an absolute stopping rule left
        # varsigma(1e-20) off by 1.1e-7 relative and varsigma(1e-300) at 0
        ref = varsigma_small_mp(y)
        assert float(abs(varsigma(y) - ref) / ref) <= 4e-16

    def test_monotone(self):
        ys = [0.0, 0.5, 1.0, 2.0, 4.0]
        xs = [varsigma(y) for y in ys]
        assert xs == sorted(xs)
        assert xs[0] == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            varsigma(-1.0)
        with pytest.raises(ValueError):
            theta_fn(-0.1)


class TestPointValues:
    """Values at gamma = 1, frozen from independent closed forms."""

    def test_classical(self):
        assert classical_constant(1.0) == pytest.approx(2.0 / (3.0 * math.pi),
                                                        rel=1e-14)
        assert classical_constant(0.5) == pytest.approx(0.25, rel=1e-14)

    def test_lieb_thirring(self):
        assert lt_constant(1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_ggm(self):
        assert ggm_constant(1.0) == pytest.approx(1.2688783605127, rel=1e-9)

    def test_one_state(self):
        assert one_state_constant(1.0) == pytest.approx(0.245035064631908,
                                                        rel=1e-12)
        # continuous at the endpoint where the exponent vanishes
        assert one_state_constant(0.5) == pytest.approx(0.5, rel=1e-12)

    def test_star(self):
        assert star_constant(1.0) == pytest.approx(0.852924150526496,
                                                   rel=1e-12)
        assert star_constant(0.5) == pytest.approx(VARSIGMA_3 / 3.0,
                                                   rel=1e-12)

    def test_char_interp(self):
        assert char_interp_constant(1.0) == pytest.approx(0.434056647803154,
                                                          rel=1e-12)

    def test_doublestar(self):
        assert doublestar_constant(1.0) == pytest.approx(1.15980951512877,
                                                         rel=1e-8)


class TestOrdering:
    @pytest.mark.parametrize("gamma", [0.6, 0.8, 1.0, 1.2, 1.4])
    def test_classical_below_all(self, gamma):
        L_cl = classical_constant(gamma)
        assert L_cl < lt_constant(gamma)
        assert L_cl < ggm_constant(gamma)
        assert L_cl < star_constant(gamma)

    @pytest.mark.parametrize("gamma", [0.6, 0.8, 1.0, 1.2, 1.4])
    def test_ggm_below_lt(self, gamma):
        assert ggm_constant(gamma) < lt_constant(gamma)

    @pytest.mark.parametrize("gamma", [0.6, 0.8, 1.0, 1.2, 1.4])
    def test_one_state_is_lower_bound(self, gamma):
        assert one_state_constant(gamma) < star_constant(gamma)

    def test_char_below_star(self):
        for gamma in (0.6, 0.8, 1.0, 1.2, 1.4):
            assert char_interp_constant(gamma) < star_constant(gamma)


_THETA_PAIRS = [(1.0, 2.0), (0.5, 1.5)]
# every eta for both pairs, plus eta -> 0 for (1/2, 3/2), where the closed
# route integrates its v^(eta/2 - 1) endpoint singularity exactly
_THETA_CASES = [pytest.param(eta, pair, id=f"pair{i}-{eta}")
                for i, pair in enumerate(_THETA_PAIRS)
                for eta in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)]
_THETA_CASES += [pytest.param(eta, (0.5, 1.5), id=f"pair1-{eta}")
                 for eta in (0.001, 0.02)]


class TestTheta:
    @pytest.mark.parametrize("eta, pair", _THETA_CASES)
    def test_closed_matches_numeric(self, eta, pair):
        params = ThetaParams(eta, *pair)
        closed = theta_weight(params, "closed")
        numeric = theta_weight(params, "numeric")
        assert closed == pytest.approx(numeric, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("pair", [(1.0, 2.0), (0.5, 1.5)])
    def test_exponent_swap_symmetry(self, eta, pair):
        # t -> 1/t and y -> 1 - y give Theta(eta, p0, p1) =
        # Theta(1 - eta, p1, p0); the closed route covers the right side
        swapped = theta_weight(ThetaParams(eta, pair[1], pair[0]), "numeric")
        closed = theta_weight(ThetaParams(1.0 - eta, *pair), "closed")
        assert swapped == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("pair", [(0.5, 1.0), (1.0, 0.3), (0.2, 0.7),
                                      (0.9, 0.4)])
    @pytest.mark.parametrize("eta", [0.01, 0.5, 0.99])
    def test_concave_pairs(self, eta, pair):
        # for p0, p1 <= 1 the inner function is concave in y, its infimum
        # is min(1, t), and Theta = 1/(1 - eta) + 1/eta
        val = theta_weight(ThetaParams(eta, *pair), "numeric")
        assert val == pytest.approx(1.0 / (eta * (1.0 - eta)), rel=1e-12)

    @settings(max_examples=20, derandomize=True, deadline=None,
              database=None)
    @given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(-40.0, 40.0))
    def test_inner_infimum_matches_mpmath(self, p0, p1, s):
        pytest.importorskip("mpmath")
        _, log_inf = _theta_log_inf(s, p0, p1)
        exact = float(theta_inner_inf(s, p0, p1))
        assert math.exp(log_inf) == pytest.approx(exact, rel=1e-13)

    def test_one_two_closed_form(self):
        eta = 0.4
        val = theta_weight(ThetaParams(eta, 1.0, 2.0), "closed")
        assert val == pytest.approx(2.0**eta / (eta * (1 - eta) * (1 + eta)),
                                    rel=1e-13)

    def test_divergence_at_edges(self):
        # Theta blows up like 1/eta and 1/(1-eta) at the edges
        lo = theta_weight(ThetaParams(0.05, 0.5, 1.5), "closed")
        hi = theta_weight(ThetaParams(0.95, 0.5, 1.5), "closed")
        assert lo > 20.0 and hi > 20.0
        assert lo > theta_weight(ThetaParams(0.5, 0.5, 1.5), "closed")

    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaParams(0.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            ThetaParams(0.5, 1.0, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ThetaParams(0.5, bad, 1.5)
            with pytest.raises(ValueError):
                ThetaParams(0.5, 0.5, bad)
        with pytest.raises(ValueError):
            theta_weight(ThetaParams(0.5, 0.7, 1.9), "closed")

    def test_u0(self):
        assert U0 == pytest.approx(math.sqrt(2.0 / (2.0 + math.sqrt(3.0))),
                                   rel=1e-15)


class TestMFactor:
    def test_symmetric_eta(self):
        val, n = m_factor(0.5)
        assert val == pytest.approx(2.0, rel=1e-12)
        assert n == 1.0

    def test_reflection_symmetry(self):
        for eta in (0.1, 0.25, 0.4):
            v1, n1 = m_factor(eta)
            v2, n2 = m_factor(1.0 - eta)
            assert v1 == pytest.approx(v2, rel=1e-12)
            assert n1 == pytest.approx(1.0 / n2, rel=1e-12)

    def test_is_minimum_over_window(self):
        eta = 0.3
        val, n = m_factor(eta)

        def obj(m):
            return (1.0 + m) ** (1.0 - eta) * (1.0 + 1.0 / m) ** eta

        grid = [float(k) for k in range(1, 200)]
        grid += [1.0 / k for k in range(2, 200)]
        assert val == pytest.approx(min(obj(m) for m in grid), rel=1e-12)
        assert obj(n) == pytest.approx(val, rel=1e-12)

    def test_small_eta_pushes_window(self):
        # argmin ~ eta/(1-eta) lies among the 1/k far below 1/64
        val, n = m_factor(0.005)
        assert n < 1.0 / 64.0
        assert val > 1.0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                m_factor(bad)


class TestCrossover:
    def test_value(self):
        g = crossover()
        assert g == pytest.approx(1.16545609365261, abs=1e-5)
        assert 1.11 <= g <= 1.17

    def test_sign_change(self):
        g = crossover()
        below = doublestar_constant(g - 0.02) - star_constant(g - 0.02)
        above = doublestar_constant(g + 0.02) - star_constant(g + 0.02)
        assert below > 0.0 > above

    def test_sign_change_in_the_last_digits(self):
        # crossover() is solved to the 15 digits the CLI prints
        g = crossover()
        below, above = g * (1.0 - 1e-14), g * (1.0 + 1e-14)
        assert doublestar_constant(below) - star_constant(below) > 0.0
        assert doublestar_constant(above) - star_constant(above) < 0.0


class TestDensityConstants:
    def test_defaults(self):
        k32, k11 = density_constants()
        assert k32 == pytest.approx(4.0 / (27.0 * star_constant(1.0) ** 2),
                                    rel=1e-12)
        assert k11 == pytest.approx(1.5 / VARSIGMA_3, rel=1e-12)

    def test_monotone_in_bounds(self):
        k32a, k11a = density_constants(L_half=1.0, L_one=1.0)
        k32b, k11b = density_constants(L_half=2.0, L_one=2.0)
        assert k32a > k32b and k11a > k11b

    def test_validation(self):
        with pytest.raises(ValueError):
            density_constants(L_half=0.0)


class TestRowsAndCsv:
    def test_row_at_one(self):
        row = constants_row(1.0)
        assert row.eta == pytest.approx(0.5)
        assert row.L_best == pytest.approx(min(row.L_star, row.L_dstar))

    def test_endpoints_have_none(self):
        row = constants_row(0.5)
        assert row.L_LT is None and row.L_GGM is None
        assert row.L_char is None and row.L_dstar is None
        assert row.L_best == row.L_star

    def test_csv_shape(self, capsys):
        assert cli.main(["constants", "--gamma-grid", "0.5:1.5:3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == [
            "gamma", "L_cl", "L_LT", "L_GGM", "L_one", "L_star", "L_char",
            "L_dstar", "L_best"]
        assert len(lines) == 5 and lines[-1].startswith("# crossover_gamma")
        # undefined entries serialize as empty fields
        assert ",," in lines[1]

    def test_csv_best_column(self, capsys):
        assert cli.main(["constants", "--gamma", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[-1] == "L_best"
        assert float(lines[1].split(",")[-1]) == pytest.approx(
            constants_row(1.0).L_best, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            constants_row(0.4)


@pytest.fixture(scope="module")
def grid_rows():
    """The rows of `lt-spectral constants --gamma-grid 0.5:1.5:1001`."""
    return [constants_row(0.5 + (1.5 - 0.5) * i / 1000) for i in range(1001)]


class TestGridSweep:
    def test_upper_bounds_above_lower_bounds(self, grid_rows):
        for r in grid_rows:
            lower = max(r.L_cl, r.L_one)
            for upper in (r.L_LT, r.L_GGM, r.L_star, r.L_char, r.L_dstar,
                          r.L_best):
                assert upper is None or upper >= lower, r.gamma

    def test_ggm_at_most_lt(self, grid_rows):
        # the m -> 1 end of the GGM minimisation is L_LT
        for r in grid_rows[1:]:
            assert r.L_GGM <= r.L_LT, r.gamma

    def test_none_exactly_at_the_endpoints(self, grid_rows):
        for r in grid_rows:
            end = r.gamma in (0.5, 1.5)
            assert (r.L_char is None) == end and (r.L_dstar is None) == end
            assert (r.L_LT is None) == (r.L_GGM is None) == (r.gamma == 0.5)

    def test_best_is_the_smaller_upper_bound(self, grid_rows):
        for r in grid_rows:
            assert r.L_best == min(v for v in (r.L_star, r.L_dstar)
                                   if v is not None)

    def test_star_at_one_half(self, grid_rows):
        assert grid_rows[0].L_star == pytest.approx(VARSIGMA_3 / 3.0,
                                                    rel=1e-15)

    def test_one_sign_change_at_crossover(self, grid_rows):
        inner = grid_rows[1:-1]
        diff = [r.L_dstar - r.L_star for r in inner]
        flips = [i for i in range(len(diff) - 1)
                 if (diff[i] > 0.0) != (diff[i + 1] > 0.0)]
        assert len(flips) == 1
        i = flips[0]
        assert inner[i].gamma < crossover() < inner[i + 1].gamma


class TestCFactor:
    def test_positive_and_finite(self):
        for eta in (0.2, 0.5, 0.8):
            val = c_factor(eta)
            assert math.isfinite(val) and val > 0.0

    def test_doublestar_assembly(self):
        gamma = 1.2
        eta = gamma - 0.5
        expect = (c_factor(eta) * (VARSIGMA_3 / 3.0) ** (1.0 - eta)
                  * (3.0 / 16.0) ** eta)
        assert doublestar_constant(gamma) == pytest.approx(expect, rel=1e-12)


#: eta at which the closed Theta(eta, 1/2, 3/2) is held to mpmath: both
#: ends of (0, 1) and the middle, the spread between, and the largest
#: errors, 2.4 ulp at the grid's 0.692 - 0.5 and 2.2 ulp at 0.017
ORACLE_ETAS = [1e-6, 1e-3, 0.017, 0.05, 0.1, 0.15, 0.692 - 0.5, 0.2, 0.25,
               0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.999,
               1.0 - 1e-6]
#: grid rows (index into grid_rows) whose L_dstar and L_star are held to
#: mpmath; rows 1, 37, 46 and 352 have the largest L_dstar errors and
#: row 665 sits next to the crossover
ORACLE_ROWS = [1, 2, 37, 46, 50, 100, 150, 200, 250, 300, 352, 400, 450, 500,
               600, 665, 700, 800, 900, 998, 999]
#: grid rows whose L_GGM is held to mpmath, gamma from 0.6 to 1.5
GGM_ORACLE_ROWS = [100, 110, 150, 200, 250, 300, 500, 700, 900, 1000]


class TestTableOracles:
    """The constants table against mpmath at 30 digits (oracles.py)."""

    @pytest.fixture(autouse=True)
    def _mpmath(self):
        pytest.importorskip("mpmath")

    @pytest.mark.parametrize("eta", [1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6])
    def test_reference_is_the_defining_integral(self, eta):
        a = theta_half_threehalf_mp(eta)
        b = theta_half_threehalf_quad_mp(eta)
        assert abs(a - b) <= 1e-28 * a

    @pytest.mark.parametrize("eta", ORACLE_ETAS)
    def test_closed_theta_within_4_ulp(self, eta):
        exact = theta_half_threehalf_mp(eta)
        got = theta_weight(ThetaParams(eta, 0.5, 1.5), "closed")
        assert abs(got - exact) <= 4 * math.ulp(float(exact))

    def test_series_needs_at_most_25_terms(self, monkeypatch):
        monkeypatch.setattr(constants, "_THETA_TERMS", 25)
        for eta in [i / 1000 for i in range(1, 1000)] + [1e-300, 1e-12,
                                                         1.0 - 1e-12]:
            constants._theta_half_threehalf_closed(eta)

    def test_series_cap_raises(self, monkeypatch):
        monkeypatch.setattr(constants, "_THETA_TERMS", 5)
        with pytest.raises(NumericsError):
            constants._theta_half_threehalf_closed(0.5)

    def test_varsigma_3(self):
        # correctly rounded: the float nearest the 30-digit root
        assert VARSIGMA_3 == float(varsigma_3_mp())

    def test_dstar_and_star_columns(self, grid_rows):
        # both are products of rounded factors; the largest errors over the
        # whole grid are 1.1e-15 (L_dstar) and 1.7e-15 (L_star) relative
        for i in ORACLE_ROWS:
            r = grid_rows[i]
            assert abs(r.L_dstar - doublestar_mp(r.gamma)) <= \
                2e-15 * r.L_dstar, r.gamma
            assert abs(r.L_star - star_mp(r.gamma)) <= \
                3e-15 * r.L_star, r.gamma

    def test_crossover(self):
        # the solver stops within xtol + rtol * gamma ~ 2e-15 of the root
        assert abs(crossover() - crossover_mp()) <= 3e-15

    @pytest.mark.parametrize("i", GGM_ORACLE_ROWS)
    def test_ggm_column(self, grid_rows, i):
        # minimize_1d's xatol bounds the error where the argmin sits close
        # to m = 1: 3.1e-13 relative at row 100 (m - 1 = 5.2e-5), at most
        # 2.8e-15 from row 110 up
        r = grid_rows[i]
        _, exact = ggm_min_mp(r.gamma)
        tol = 5e-13 if i < 110 else 1e-14
        assert abs(r.L_GGM - exact) <= tol * exact, r.gamma

    @pytest.mark.parametrize("i", [1, 10, 20])
    def test_ggm_minimum_at_m_one(self, grid_rows, i):
        # near gamma = 1/2 the minimum lies within 30 digits of the m = 1
        # end, whose value is L_LT; the largest error is 7.1e-16 at row 1
        r = grid_rows[i]
        m, exact = ggm_min_mp(r.gamma)
        assert m == 1
        assert r.L_GGM == r.L_LT
        assert abs(r.L_LT - exact) <= 1e-15 * exact, r.gamma
