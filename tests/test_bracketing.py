import math

import pytest

from lt_spectral import bracketing
from lt_spectral.bracketing import (LOWER_FACTOR, PARTITION_RTOL,
                                    UPPER_FACTOR, Partition, build_partition,
                                    certify_theorem1, interval_ground_bounds)
from lt_spectral.cli import random_piecewise
from lt_spectral.constants import VARSIGMA_3, constants_row
from lt_spectral.numerics import InvariantError
from lt_spectral.potential import (Gaussian, PiecewiseConstant,
                                   PoschlTeller, SquareWell, Zero)
from lt_spectral.sturm import (SOLVER_TOL, riesz_mean, solve_interval,
                               solve_line)

from oracles import raw_moment_constant


class TestPartitionInvariants:
    def test_product_enforced(self):
        with pytest.raises(InvariantError):
            Partition((0.0, 1.0, math.inf), (2.0, 0.0))
        Partition((0.0, 1.0, math.inf), (3.0, 0.0))

    def test_shape_validation(self):
        with pytest.raises(InvariantError):
            Partition((0.0,), ())
        with pytest.raises(InvariantError):
            Partition((0.0, 1.0, 1.0), (3.0, 3.0))

    def test_lambda_bounds(self):
        p = Partition((0.0, 1.0, math.inf), (3.0, 0.0))
        assert p.lambda_upper[0] == pytest.approx(VARSIGMA_3)
        assert p.lambda_lower[0] == pytest.approx(3.0 / math.sqrt(3.0))
        assert p.lambda_lower[0] <= p.lambda_upper[0]

    def test_json_list(self):
        p = Partition((0.0, 1.0, math.inf), (3.0, 0.0))
        assert p.to_json_list() == [0.0, 1.0, "inf"]


class TestBuildPartition:
    def test_square_well_closed_form(self):
        # v = 3 on [0, 2]: (l-0)*3l = 3 gives l = 1, then the rest of the
        # mass (3 on [1, 2]) closes the next interval exactly at 2
        V = SquareWell(3.0, 0.0, 2.0, domain="half_line")
        p = build_partition(V)
        assert p.breakpoints[0] == 0.0
        assert p.breakpoints[1] == pytest.approx(1.0, abs=1e-10)
        assert p.breakpoints[2] == pytest.approx(2.0, abs=1e-10)
        assert math.isinf(p.breakpoints[3])
        assert p.masses[0] == pytest.approx(3.0, rel=1e-10)
        assert p.masses[1] == pytest.approx(3.0, rel=1e-10)

    def test_product_relation_random(self):
        for seed in range(8):
            V = random_piecewise(seed, domain="half_line")
            p = build_partition(V)
            for k in p.finite_indices():
                l0, l1 = p.breakpoints[k], p.breakpoints[k + 1]
                assert (l1 - l0) * p.masses[k] == pytest.approx(3.0,
                                                                rel=1e-8)

    def test_scaling_covariance(self):
        V = SquareWell(3.0, 0.0, 2.0, domain="half_line")
        base = build_partition(V)
        alpha = 2.0
        scaled = build_partition(V.scaled(alpha))
        for b1, b2 in zip(base.breakpoints, scaled.breakpoints):
            if math.isinf(b1):
                assert math.isinf(b2)
            else:
                assert b2 == pytest.approx(b1 / alpha, abs=1e-9)

    def test_masses_sum_to_total(self):
        V = random_piecewise(11, domain="half_line")
        p = build_partition(V)
        assert sum(p.masses) == pytest.approx(V.integrate(), rel=1e-9)

    def test_zero_potential_degenerate(self):
        p = build_partition(Zero(domain="half_line"))
        assert p.degenerate
        assert len(p) == 1

    def test_truncated_tail(self):
        # depth 3.5 on [0, 1]: the first interval closes at sqrt(3/3.5)
        # and the leftover mass cannot close another interval anywhere
        # near the support, so the partition truncates early
        V = SquareWell(3.5, 0.0, 1.0, domain="half_line")
        p = build_partition(V)
        assert p.truncated
        b1 = math.sqrt(3.0 / 3.5)
        assert p.breakpoints[1] == pytest.approx(b1, abs=1e-9)
        assert p.breakpoints[2] == pytest.approx(b1 + 3.0 / 3.5, abs=1e-9)
        assert math.isinf(p.breakpoints[-1])
        assert sum(p.masses) == pytest.approx(3.5, rel=1e-9)

    def test_tail_closing_at_rounding(self):
        # the +x half of random_piecewise(18) has all its mass m inside
        # [0, 3/m]: the product at lo = 3/m is 3 exactly, but rounds to
        # 3 + 4.4e-16, which once sent an empty bracket to the root finder
        V = random_piecewise(18).half_view(+1)
        m = V.integrate()
        p = build_partition(V)
        assert p.breakpoints == (0.0, 3.0 / m, math.inf)
        assert p.masses[0] == pytest.approx(m, rel=1e-15)
        assert p.truncated

    def test_light_half_closes_at_the_bracket_start(self):
        # the -x half of this off-centre Gaussian has its mass m within
        # 3/m of the origin up to rounding, on an unbounded support:
        # g(3/m) rounds to +4.4e-16, no root lies past it, and 3/m itself
        # closes the interval
        V = Gaussian(2.59, width=0.49, center=0.92).half_view(-1)
        m = V.integrate()
        p = build_partition(V)
        assert p.breakpoints == (0.0, 3.0 / m, math.inf)
        assert p.masses[0] == pytest.approx(m, rel=1e-15)
        assert not p.truncated

    def test_narrow_far_well_closes(self):
        # g(l) = l * int_0^l V - 3 has slope l * v = 2e5 at the root near
        # l = 200: the root tolerance in l alone leaves the product 2.9e-7
        # off 3, past the invariant, so the partition bisects on g itself
        V = SquareWell(1000.0, 200.0, 200.0001, domain="half_line")
        p = build_partition(V)
        l1 = p.breakpoints[1]
        assert 200.0 < l1 < 200.0001
        assert abs(l1 * p.masses[0] - 3.0) <= 1.5 * PARTITION_RTOL
        assert p.masses[0] == V.integrate(0.0, l1)
        assert p.truncated

    def test_bisection_runs_only_on_a_miss(self, monkeypatch):
        def fail(*args):
            raise AssertionError("bisection ran")

        monkeypatch.setattr(bracketing, "_bisect_to_value", fail)
        for seed in range(8):
            build_partition(random_piecewise(seed, domain="half_line"))

    def test_bisection_between_adjacent_floats(self):
        # g jumps from -1 to 1 between two adjacent floats: no float
        # brings |g| within the target, so the bisection must give up
        def g(l):
            return -1.0 if l < 1.0 else 1.0

        with pytest.raises(InvariantError, match="no float in"):
            bracketing._bisect_to_value(g, 0.5, 2.0, 1.5, 1e-8)

    def test_rejects_whole_line(self):
        with pytest.raises(ValueError):
            build_partition(Gaussian(1.0))

    def test_rejects_signed(self):
        V = PiecewiseConstant([0.0, 1.0], [-1.0], domain="half_line")
        with pytest.raises(ValueError):
            build_partition(V)


class TestGroundBounds:
    def test_one_eigenvalue_and_sandwich(self):
        V = SquareWell(3.0, 0.0, 2.0, domain="half_line")
        p = build_partition(V)
        for k in p.finite_indices():
            lam, lo, hi = interval_ground_bounds(V, p, k)
            assert lo == pytest.approx(LOWER_FACTOR * p.masses[k])
            assert hi == pytest.approx(UPPER_FACTOR * p.masses[k])
            assert lo - 1e-6 <= lam <= hi + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_unique_negative_eigenvalue_random(self, seed):
        # the partition normalization pins exactly one bound state per
        # finite interval
        V = random_piecewise(seed, domain="half_line")
        p = build_partition(V)
        for k in p.finite_indices():
            a, b = p.breakpoints[k], p.breakpoints[k + 1]
            spec = solve_interval(V, (a, b), bc="neumann")
            assert len(spec) == 1

    def test_infinite_interval_rejected(self):
        V = SquareWell(3.0, 0.0, 2.0, domain="half_line")
        p = build_partition(V)
        with pytest.raises(ValueError):
            interval_ground_bounds(V, p, len(p) - 1)


class TestCertificate:
    def test_poschl_teller_saturates_lower(self):
        # reflectionless: sum sqrt|E| = (1/4) int V exactly
        cert = certify_theorem1(PoschlTeller(2.0))
        assert cert.verdict == "pass"
        assert cert.sum_sqrt.value == pytest.approx(0.25 * cert.integral_V,
                                                    rel=1e-6)

    def test_square_well_chain(self):
        cert = certify_theorem1(SquareWell(2.0, -1.0, 1.0))
        assert cert.verdict == "pass"
        assert cert.lower_bound <= cert.sum_sqrt.value + cert.sum_sqrt.error
        assert cert.sum_sqrt.value - cert.sum_sqrt.error \
            <= cert.bracket_sum + cert.bracket_error
        assert cert.bracket_sum - cert.bracket_error <= cert.upper_bound

    @pytest.mark.parametrize("seed", [0, 1, 2, 18])
    def test_random_potentials_pass(self, seed):
        V = random_piecewise(seed)
        cert = certify_theorem1(V)
        assert cert.verdict == "pass"

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_scaling_invariance(self, alpha):
        # every term of the chain scales like alpha, so verdicts and
        # ratios are scale free
        V = SquareWell(2.0, -1.0, 1.0)
        base = certify_theorem1(V)
        scaled = certify_theorem1(V.scaled(alpha))
        assert scaled.verdict == "pass"
        assert scaled.integral_V == pytest.approx(alpha * base.integral_V,
                                                  rel=1e-9)
        ratio_b = base.sum_sqrt.value / base.integral_V
        ratio_s = scaled.sum_sqrt.value / scaled.integral_V
        assert ratio_s == pytest.approx(ratio_b, abs=1e-4)

    def test_half_line_skips_lower(self):
        V = SquareWell(2.0, 0.0, 1.0, domain="half_line")
        cert = certify_theorem1(V)
        assert "lower_le_sum" not in cert.checks
        even = certify_theorem1(V, assume_even=True)
        assert "lower_le_sum" in even.checks

    def test_rejects_signed_potential(self):
        with pytest.raises(ValueError):
            certify_theorem1(Gaussian(-1.0))

    def test_unresolved_proper_interval_spends_its_bound(self):
        # the +x half ends on the proper interval [4.24, 1.4e10] of mass
        # 2.1e-10, whose ground state near -1e-20 FD neither resolves nor
        # flags; it counts as one unresolved state with
        # sqrt|E_1| <= UPPER_FACTOR * mass
        V = Gaussian(2.71, width=0.7, center=1.06).half_view(+1)
        part, _, err = bracketing._bracket_side(V, SOLVER_TOL)
        k = len(part) - 2
        assert k in part.finite_indices()
        spec = solve_interval(V, part.breakpoints[k:k + 2], bc="neumann")
        assert len(spec) == spec.near_threshold == 0
        assert err >= UPPER_FACTOR * part.masses[k] > 0.0

    def test_json_schema(self):
        cert = certify_theorem1(SquareWell(2.0, -1.0, 1.0))
        d = cert.to_json_dict()
        assert set(d) == {"integral_V", "sum_sqrt", "sum_sqrt_error",
                          "bracket_sum", "bracket_error", "upper", "lower",
                          "verdict", "checks", "partition"}
        assert d["verdict"] == "pass"
        assert all(isinstance(v, bool) for v in d["checks"].values())
        assert len(d["partition"]) == 2  # one partition per half line
        import json
        json.dumps(d)  # serializable end to end


#: the certificates the benchmark workloads build (random piece lists,
#: centred square wells, Poschl-Teller wells (nu, alpha, c) and a Gaussian,
#: whose ratios reach 0.321) and two shallow wells, where a single state
#: nearly attains the constant (ratios 0.464 and 0.499)
_SHARP_CASES = {
    **{f"seed{seed}": random_piecewise(seed) for seed in range(1, 21)},
    **{f"well{v}x{a}": SquareWell(v, -a, a)
       for v, a in ((2.0, 1.0), (5.0, 0.5), (1.0, 2.0), (0.5, 0.5),
                    (1.0, 0.05))},
    **{f"pt{nu}": PoschlTeller(nu, c=c, alpha=alpha)
       for nu, alpha, c in ((1, 2.0, 0.0), (2, 2.0, 0.5), (3, 1.5, -0.25))},
    "gaussian": Gaussian(1.5, width=2.0),
}


@pytest.mark.parametrize("V", _SHARP_CASES.values(), ids=_SHARP_CASES)
def test_sharp_half_constant(V):
    # Hundertmark, Lieb and Thomas (Adv. Theor. Math. Phys. 2, 1998):
    # L_{1/2,1} = 1/2, so sum sqrt|E_i| <= (1/2) int V for every V >= 0;
    # the enclosure's lower end must respect it
    cert = certify_theorem1(V)
    assert cert.sum_sqrt.value - cert.sum_sqrt.error \
        <= 0.5 * cert.integral_V


@pytest.fixture(scope="module")
def sharp_spectra():
    return {name: solve_line(V) for name, V in _SHARP_CASES.items()}


@pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0, 1.25, 1.5])
def test_table_bounds_computed_moments(sharp_spectra, gamma):
    # every upper constant claims sum |E_i|^gamma <= L int V^(gamma + 1/2)
    # for every V >= 0, L_char for characteristic functions, and
    # L_{3/2,1} = 3/16 (Lieb and Thirring 1976); the claim is about the
    # true moment, so the enclosure's lower end must respect it
    row = constants_row(gamma)
    upper = [L for L in (row.L_LT, row.L_GGM, row.L_star, row.L_dstar)
             if L is not None] + ([3.0 / 16.0] if gamma == 1.5 else [])
    for name, V in _SHARP_CASES.items():
        bounds = upper + ([row.L_char] if isinstance(V, SquareWell)
                          and row.L_char is not None else [])
        moment = riesz_mean(sharp_spectra[name], gamma)
        ratio = (moment.value - moment.error) / V.lp_integral(gamma + 0.5)
        assert ratio <= min(bounds), name


def test_reflectionless_wells_attain_three_sixteenths():
    # integer nu: sum |E_i|^(3/2) = (3/16) int V^2, the equality case of
    # the second trace identity; other nu keep a gap of order 1e-2
    for nu in (1.0, 2.0, 3.0, 4.0, 0.5, 2.7):
        V = PoschlTeller(nu)
        moment = riesz_mean(solve_line(V), 1.5)
        sharp = 3.0 / 16.0 * V.lp_integral(2.0)
        if nu.is_integer():
            assert abs(moment.value - sharp) <= moment.error, nu
        else:
            assert moment.value + moment.error < sharp, nu


class TestRawMomentConstant:
    def test_endpoint_value(self):
        assert raw_moment_constant(0.5) == pytest.approx(
            VARSIGMA_3 / 3.0, rel=1e-12)

    def test_growth(self):
        assert raw_moment_constant(1.5) > raw_moment_constant(1.0) \
            > raw_moment_constant(0.5)
