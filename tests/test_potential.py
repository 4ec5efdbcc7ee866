import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lt_spectral import potential as pot
from lt_spectral.cli import random_piecewise
from lt_spectral.sturm import solve_line


class TestEvaluate:
    def test_square_well(self):
        V = pot.SquareWell(3.0, 0.0, 2.0)
        assert V.evaluate(1.0) == 3.0
        assert V.evaluate(2.5) == 0.0

    def test_poschl_teller_origin(self):
        assert pot.PoschlTeller(1.0).evaluate(0.0) == pytest.approx(2.0)

    def test_poschl_teller_far_tail_is_silent_zero(self):
        # cosh overflows beyond |alpha (x - c)| = 710; V is 0 there, quietly
        V = pot.PoschlTeller(2.0, c=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert V.evaluate(800.0) == 0.0
            assert np.all(V.evaluate(np.array([-800.0, 400.0])) == 0.0)

    def test_scaled(self):
        V = pot.SquareWell(3.0, 0.0, 2.0).scaled(2.0)
        assert V.evaluate(0.5) == pytest.approx(12.0)

    def test_outside_domain(self):
        V = pot.SquareWell(1.0, 0.0, 1.0, domain="half_line")
        with pytest.raises(ValueError):
            V.evaluate(-0.5)

    def test_array(self):
        V = pot.Gaussian(2.0)
        out = V.evaluate(np.array([0.0, 1.0]))
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(2.0 * math.exp(-1.0))



_G = pot.Gaussian(2.0, 0.7, 1.1)
_PT = pot.PoschlTeller(2.0, c=0.3, alpha=1.5)
_PC = pot.PiecewiseConstant([-1.5, -0.2, 0.9, 2.3], [1.0, -3.0, 0.5])
_SM = pot.Sampled([-2.0, -0.5, 1.0, 2.5], [1.5, -0.5, 2.0, 0.75])
_MIX = pot.Sum([_G, _PC, _SM, _PT.amplified(0.1)])

#: every family and wrapper
SCALAR_CASES = {
    "piecewise_constant": _PC,
    "square_well": pot.SquareWell(3.0, 0.0, 2.0),
    "zero": pot.Zero(),
    "poschl_teller": _PT,
    "gaussian": _G,
    "sampled": _SM,
    "sum": _MIX,
    "scaled": _PT.scaled(1.7),
    "amplified": _G.amplified(0.6),
    "half_view_plus": _MIX.half_view(+1),
    "half_view_minus": _MIX.half_view(-1),
    "half_line_well": pot.SquareWell(3.0, 0.0, 2.0, domain="half_line"),
}

#: V(nan), V(inf), V(-inf) as the array path gives them (None: ValueError)
SPECIAL_VALUES = {
    "piecewise_constant": (0.0, 0.0, 0.0),
    "square_well": (0.0, 0.0, 0.0),
    "zero": (0.0, 0.0, 0.0),
    "poschl_teller": (math.nan, 0.0, 0.0),
    "gaussian": (math.nan, 0.0, 0.0),
    "sampled": (0.0, 0.0, 0.0),
    "sum": (math.nan, 0.0, 0.0),
    "scaled": (math.nan, 0.0, 0.0),
    "amplified": (math.nan, 0.0, 0.0),
    "half_view_plus": (math.nan, 0.0, None),
    "half_view_minus": (math.nan, 0.0, None),
    "half_line_well": (0.0, 0.0, None),
}

SCALAR_EXAMPLES = settings(max_examples=200, derandomize=True,
                           deadline=None, database=None)


def _bits(v):
    return struct.pack("<d", v)


def _in_domain(V, u):
    """The point at fraction u of V's domain cut to [-12, 12]."""
    lo, hi = max(V.domain[0], -12.0), min(V.domain[1], 12.0)
    return lo + (hi - lo) * u if u < 1.0 else hi


class TestScalarPath:
    """A float, an np.float64 and a 0-d array take evaluate's one path; each
    must give the bits and the checks of the array path on np.array([x])."""

    @SCALAR_EXAMPLES
    @given(st.sampled_from(sorted(SCALAR_CASES)), st.floats(0.0, 1.0))
    def test_matches_array_bitwise(self, name, u):
        V = SCALAR_CASES[name]
        x = _in_domain(V, u)
        ref = V.evaluate(np.array([x]))[0]
        for arg in (x, np.float64(x), np.array(x)):
            out = V.evaluate(arg)
            assert type(out) is float
            assert _bits(out) == _bits(ref)

    @SCALAR_EXAMPLES
    @given(st.sampled_from(sorted(SCALAR_CASES)), st.integers(-12, 12))
    def test_int_matches_float(self, name, n):
        V = SCALAR_CASES[name]
        if not V.domain[0] <= n <= V.domain[1]:
            with pytest.raises(ValueError):
                V.evaluate(n)
            return
        assert _bits(V.evaluate(n)) == _bits(V.evaluate(float(n)))

    @pytest.mark.parametrize("arg", [float, np.float64, np.array])
    def test_out_of_domain_raises(self, arg):
        half = _MIX.half_view(+1)
        with pytest.raises(ValueError, match="outside domain"):
            half.evaluate(arg(-1e-300))

    @pytest.mark.parametrize("name", sorted(SCALAR_CASES))
    @pytest.mark.parametrize("arg", [float, np.float64, np.array])
    def test_nan_and_inf_pinned(self, name, arg):
        V = SCALAR_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, want in zip((math.nan, math.inf, -math.inf),
                               SPECIAL_VALUES[name]):
                if want is None:
                    with pytest.raises(ValueError, match="outside domain"):
                        V.evaluate(arg(x))
                elif math.isnan(want):
                    assert math.isnan(V.evaluate(arg(x)))
                else:
                    assert _bits(V.evaluate(arg(x))) == _bits(want)

class TestIntegrate:
    def test_square_well(self):
        assert pot.SquareWell(3.0, 0.0, 2.0).integrate(0.0, 2.0) == \
            pytest.approx(6.0)

    def test_poschl_teller(self):
        assert pot.PoschlTeller(1.0).integrate() == pytest.approx(4.0)

    def test_zero(self):
        assert pot.Zero().integrate() == 0.0

    def test_additivity(self):
        for V in (pot.PoschlTeller(1.5, 0.3), pot.Gaussian(2.0, -0.5, 1.3),
                  pot.PiecewiseConstant([-1.0, 0.2, 1.5], [2.0, 0.7])):
            whole = V.integrate(-2.0, 2.0)
            split = V.integrate(-2.0, 0.3) + V.integrate(0.3, 2.0)
            assert whole == pytest.approx(split, rel=1e-9)

    def test_gaussian_closed_form(self):
        V = pot.Gaussian(2.0, 1.0, 1.5)
        assert V.integrate() == pytest.approx(2.0 * 1.5 * math.sqrt(math.pi),
                                              rel=1e-12)


class TestLpIntegral:
    def test_square_well(self):
        assert pot.SquareWell(3.0, 0.0, 2.0).lp_integral(1.0) == \
            pytest.approx(6.0)
        assert pot.SquareWell(3.0, 0.0, 2.0).lp_integral(2.0) == \
            pytest.approx(18.0)

    def test_poschl_teller_p2(self):
        assert pot.PoschlTeller(1.0).lp_integral(2.0) == \
            pytest.approx(16.0 / 3.0, rel=1e-10)

    def test_p1_equals_integrate(self):
        for V in (pot.Gaussian(1.5, 0.2), pot.PoschlTeller(2.0),
                  pot.SquareWell(1.0, -1.0, 1.0)):
            assert V.lp_integral(1.0) == pytest.approx(V.integrate(),
                                                       rel=1e-10)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            pot.Gaussian(1.0).lp_integral(0.5)

    def test_sampled_exact_segments(self):
        # piecewise-linear V^p integrated exactly per segment
        V = pot.Sampled([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        # int_0^1 (2x)^2 dx + int_1^2 (2(2-x))^2 dx = 8/3
        assert V.lp_integral(2.0) == pytest.approx(8.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("gap, p, value", [
        (3e-14, 1.5, 1.0000000000000225), (1e-9, 1.0, 1.0000000005)])
    def test_sampled_close_ends_do_not_cancel(self, gap, p, value):
        # (y2^{p+1} - y1^{p+1}) / ((p+1)(y2 - y1)) cancels when y2 - y1 is
        # a few ulps of y1
        mpmath = pytest.importorskip("mpmath")
        y1, y2 = 1.0, 1.0 + gap
        with mpmath.workdps(50):
            m1, m2 = mpmath.mpf(y1), mpmath.mpf(y2)
            exact = float((m2 ** (p + 1) - m1 ** (p + 1))
                          / ((p + 1) * (m2 - m1)))
        got = pot.Sampled([0.0, 1.0], [y1, y2]).lp_integral(p)
        assert got == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert got == pytest.approx(value, rel=1e-15, abs=0.0)


class TestScalingCovariance:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_integral(self, alpha):
        V = pot.Gaussian(1.7, 0.1, 0.8)
        assert V.scaled(alpha).integrate() == \
            pytest.approx(alpha * V.integrate(), rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_lp(self, alpha, p):
        V = pot.PoschlTeller(1.3)
        assert V.scaled(alpha).lp_integral(p) == \
            pytest.approx(alpha ** (2 * p - 1) * V.lp_integral(p), rel=1e-8)


#: positive on the left, negative on the right
_SIGNED_SUM = pot.Sum([pot.Gaussian(2.0, -1.0), pot.Gaussian(-1.5, 1.0)])


class TestSignMasses:
    def test_nonnegative(self):
        V = pot.PoschlTeller(1.0)
        assert V.sign_masses() == (V.integrate(), 0.0)

    def test_negative_gaussian(self):
        assert pot.Gaussian(-2.0).sign_masses() == (0.0,
                                                    2.0 * math.sqrt(math.pi))

    def test_piecewise_widths(self):
        V = pot.PiecewiseConstant([0.0, 1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        assert V.sign_masses() == (4.0, 2.0)
        # the wrappers scale both masses by their factor on integrals
        assert V.scaled(2.0).sign_masses() == (8.0, 4.0)
        assert V.amplified(0.5).sign_masses() == (2.0, 1.0)

    def test_sampled_clips_the_interpolant(self):
        # the parts clip the interpolant, not the samples: the sign change
        # inside the first segment splits its area
        V = pot.Sampled([0.0, 0.3, 1.0], [-1.0, 0.4, 1.0])
        plus, minus = V.sign_masses()
        assert plus == pytest.approx(0.507142857142857, abs=1e-12)
        assert minus == pytest.approx(0.107142857142857, abs=1e-12)
        x = np.linspace(0.0, 1.0, 2_000_001)
        y = V.evaluate(x)
        assert plus == pytest.approx(
            np.trapezoid(np.maximum(y, 0.0), x), abs=1e-12)
        assert minus == pytest.approx(
            np.trapezoid(np.maximum(-y, 0.0), x), abs=1e-12)

    def test_long_signed_sampled_loads(self):
        # 2,000 grid points are 1,998 kinks: the masses are exact per
        # segment, and a sum's quadrature takes every kink as a hint
        grid = np.linspace(-5.0, 5.0, 2000)
        doc = {"family": "sampled",
               "params": {"grid": grid.tolist(),
                          "values": (np.sin(3.0 * grid) + 0.2).tolist()}}
        V = pot.from_json_dict(doc)
        x = np.linspace(-5.0, 5.0, 4_000_001)
        y = V.evaluate(x)
        plus, minus = V.sign_masses()
        assert plus == pytest.approx(
            np.trapezoid(np.maximum(y, 0.0), x), abs=1e-11)
        assert minus == pytest.approx(
            np.trapezoid(np.maximum(-y, 0.0), x), abs=1e-11)
        assert plus - minus == pytest.approx(V.integrate(), abs=1e-12)
        step = {"family": "piecewise_constant",
                "params": {"breakpoints": [0.0, 1.0], "values": [-0.5]}}
        S = pot.from_json_dict({"family": "sum",
                                "params": {"terms": [doc, step]}})
        plus, minus = S.sign_masses()
        assert plus - minus == pytest.approx(S.integrate(), abs=1e-9)

    def test_signed_sampled_half_views(self):
        V = pot.Sampled([-1.0, 0.0, 1.0], [-1.0, 2.0, -0.5])
        assert V.half_view(+1).sign_masses() == pytest.approx((0.8, 0.05))
        assert V.half_view(-1).sign_masses() == pytest.approx((2 / 3, 1 / 6))

    def test_whole_line_sum_splits_at_its_jumps(self):
        # V = 2 e^{-x^2} - 1 on [0, 1] is negative on (sqrt(ln 2), 1]; quad
        # on the whole line, which takes no hints, missed that part
        V = pot.from_json_dict({"family": "sum", "params": {"terms": [
            {"family": "gaussian", "params": {"amplitude": 2}},
            {"family": "piecewise_constant",
             "params": {"breakpoints": [0, 1], "values": [-1]}}]}})
        plus, minus = V.sign_masses()
        r = math.sqrt(math.log(2.0))
        exact = (1.0 - r) - math.sqrt(math.pi) * (math.erf(1.0)
                                                   - math.erf(r))
        assert minus == pytest.approx(exact, abs=1e-9)
        assert minus == pytest.approx(0.0225779776, abs=1e-9)
        assert plus - minus == pytest.approx(V.integrate(), abs=1e-9)

    def test_signed_sum_parts_add_up(self):
        plus, minus = _SIGNED_SUM.sign_masses()
        assert minus > 0.5
        assert plus - minus == pytest.approx(_SIGNED_SUM.integrate(),
                                             abs=1e-12)

    @pytest.mark.parametrize("side", [+1, -1])
    def test_half_view_keeps_its_side(self, side):
        half = _SIGNED_SUM.half_view(side)
        x = np.linspace(0.0, 12.0, 1_200_001)
        y = half.evaluate(x)
        want = (np.trapezoid(np.maximum(y, 0.0), x),
                np.trapezoid(np.maximum(-y, 0.0), x))
        assert half.sign_masses() == pytest.approx(want, abs=1e-9)


class TestHalfView:
    def test_values_and_mass(self):
        V = pot.Gaussian(2.0, 0.7, 1.1)
        plus, minus = V.half_view(+1), V.half_view(-1)
        for x in (0.0, 0.4, 2.0):
            assert plus.evaluate(x) == pytest.approx(V.evaluate(x))
            assert minus.evaluate(x) == pytest.approx(V.evaluate(-x))
        assert plus.integrate() + minus.integrate() == \
            pytest.approx(V.integrate(), rel=1e-10)

    def test_requires_full_line(self):
        with pytest.raises(ValueError):
            pot.SquareWell(1.0, 0.0, 1.0, domain="half_line").half_view(1)


class TestCellAverage:
    @pytest.mark.parametrize("V", [
        pot.SquareWell(2.0, -0.737, 1.111),
        pot.PiecewiseConstant([-1.5, -0.2, 0.9, 2.3], [1.0, 3.0, 0.5]),
        pot.SquareWell(2.0, -0.737, 1.111).scaled(1.7),
        pot.PiecewiseConstant([0.0, 1.0], [2.0]).amplified(0.6),
    ])
    def test_matches_integral(self, V):
        lo = np.linspace(-3.0, 2.9, 60)
        hi = lo + 0.1
        avg = V.cell_average(lo, hi)
        for i in range(len(lo)):
            exact = V.integrate(lo[i], hi[i]) / 0.1
            assert avg[i] == pytest.approx(exact, abs=1e-12)

    def test_jump_totals(self):
        assert pot.SquareWell(2.0, 0.0, 1.0).jumps() == [(0.0, 2.0),
                                                         (1.0, 2.0)]
        V = pot.PiecewiseConstant([0.0, 1.0, 2.0], [1.0, 3.0])
        assert V.jumps() == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        # scaled(2) is 4 V(2x): the points halve and the sizes quadruple
        assert V.scaled(2.0).jumps() == [(0.0, 4.0), (0.5, 8.0), (1.0, 12.0)]
        assert pot.Gaussian(1.0).jumps() == []

    def test_sampled_end_values_are_jumps(self):
        # zero outside the grid: the plateau [0, 2] at height 3 is a well
        V = pot.Sampled([0.0, 2.0], [3.0, 3.0])
        assert V.jumps() == [(0.0, 3.0), (2.0, 3.0)]
        assert V.cell_average(np.array([1.9]), np.array([2.1]))[0] == \
            pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("V", [
        pot.Sampled([0.0, 0.3, 1.0], [-1.0, 0.4, 1.0]),
        pot.Sampled([-1.0, 0.5, 0.7, 2.0], [2.0, 0.0, 3.0, 1.5]),
    ])
    def test_sampled_matches_integral(self, V):
        lo = np.linspace(-1.5, 2.1, 37)
        hi = lo + 0.13
        avg = V.cell_average(lo, hi)
        for i in range(len(lo)):
            exact = V.integrate(lo[i], hi[i]) / 0.13
            assert avg[i] == pytest.approx(exact, abs=1e-12)


#: above the steepest slope of any SCALAR_CASES member away from its jumps
#: (about 77, the scaled Poschl-Teller well)
SLOPE = 100.0


def _step(V, x, delta):
    """|V(x + delta) - V(x - delta)|, both points cut to V's domain."""
    lo, hi = V.domain
    return abs(V.evaluate(min(x + delta, hi)) - V.evaluate(max(x - delta, lo)))


class TestJumps:
    """jumps() names each point of the domain where V may jump, with a
    bound on the size of the jump there."""

    @SCALAR_EXAMPLES
    @given(st.sampled_from(sorted(SCALAR_CASES)), st.floats(0.0, 1.0),
           st.floats(-12.0, -4.0))
    def test_jumps_bound_steps(self, name, u, log_delta):
        V = SCALAR_CASES[name]
        delta = 10.0**log_delta
        lo, hi = V.domain
        jumps = V.jumps()
        for x, size in jumps:
            assert lo <= x <= hi
            assert _step(V, x, delta) <= size + 2.0 * delta * SLOPE
        # away from the reported points V moves no faster than SLOPE
        x = _in_domain(V, u)
        if not any(abs(x - q) <= delta for q, _ in jumps):
            assert _step(V, x, delta) <= 2.0 * delta * SLOPE

    @pytest.mark.parametrize("name", sorted(SCALAR_CASES))
    def test_every_step_is_reported(self, name):
        # each grid cell in which V moves faster than SLOPE holds a jump
        V = SCALAR_CASES[name]
        lo, hi = max(V.domain[0], -12.0), min(V.domain[1], 12.0)
        xs = np.linspace(lo, hi, 24001)
        steep = np.abs(np.diff(V.evaluate(xs))) > SLOPE * (xs[1] - xs[0])
        points = [x for x, _ in V.jumps()]
        for i in np.nonzero(steep)[0]:
            assert any(xs[i] <= q <= xs[i + 1] for q in points), xs[i]

    def test_half_views_keep_their_side(self):
        V = pot.Sum([pot.Gaussian(1.0), pot.SquareWell(1.0, 0.5, 1.5)])
        assert V.half_view(-1).jumps() == []
        assert V.half_view(+1).jumps() == [(0.5, 1.0), (1.5, 1.0)]
        # W jumps at -0.75 and 0.5; its left half sees -0.75, at 0.75
        W = pot.PiecewiseConstant([-1.5, 1.0], [2.0]).scaled(2.0)
        assert W.half_view(-1).jumps() == [(0.75, 8.0)]

    def test_sampled_kinks_are_listed(self):
        # V is continuous at the interior grid points, but not smooth
        V = pot.Sampled([-1.0, 0.0, 0.5, 2.0], [0.0, 3.0, 1.0, 0.5])
        assert V.jumps() == [(-1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (2.0, 0.5)]

    def test_sum_adds_sizes_at_a_shared_point(self):
        V = pot.Sum([pot.SquareWell(1.0, 0.0, 1.0),
                     pot.SquareWell(2.0, 1.0, 2.0)])
        # V steps up from 1 to 2 at x = 1; 1 + 2 bounds that step
        assert sum(d for x, d in V.jumps() if x == 1.0) == 3.0


class TestPieces:
    """pieces() is the piece list of the exact transfer path."""

    @pytest.mark.parametrize("V", [
        pot.Zero(),
        pot.SquareWell(2.0, -0.737, 1.111),
        pot.PiecewiseConstant([-1.5, -0.2, 0.9, 2.3], [1.0, -3.0, 0.5]),
        pot.SquareWell(2.0, -0.737, 1.111).scaled(1.7),
        pot.PiecewiseConstant([0.0, 1.0], [2.0]).amplified(0.6),
        pot.Sum([pot.SquareWell(1.0, -1.0, 0.5),
                 pot.PiecewiseConstant([0.0, 1.0, 2.0], [2.0, -1.0])]),
        pot.Sum([pot.SquareWell(1.0, -1.0, 0.5), pot.Zero()]).scaled(0.5),
    ])
    def test_pieces_sum_to_values(self, V):
        pieces = V.pieces()
        assert pieces is not None
        # the contract the exact transfer path reads the list by: sorted,
        # contiguous, of positive length and inside support()
        lo, hi = V.support()
        for (_, b0, _), (a1, _, _) in zip(pieces, pieces[1:]):
            assert b0 == a1
        for a, b, _ in pieces:
            assert lo <= a < b <= hi
        for x in np.linspace(-3.1, 3.3, 41) + 1e-3:
            inside = sum(v for a, b, v in pieces if a <= x <= b)
            assert inside == pytest.approx(V.evaluate(x), abs=1e-12)

    @pytest.mark.parametrize("V", [
        pot.Gaussian(1.0),
        pot.PoschlTeller(1.0),
        pot.Sampled([0.0, 1.0], [1.0, 1.0]),
        pot.Sum([pot.SquareWell(1.0, -1.0, 1.0), pot.Gaussian(0.5)]),
        pot.Gaussian(1.0).scaled(2.0),
    ])
    def test_other_potentials_have_none(self, V):
        assert V.pieces() is None

    @pytest.mark.parametrize("side", [+1, -1])
    @pytest.mark.parametrize("V", [
        pot.SquareWell(1.0, -1.0, 1.0),
        pot.PiecewiseConstant([-2.0, -1.0, 0.5], [1.0, -2.0]),
        pot.SquareWell(1.0, 0.5, 1.0),
    ] + [random_piecewise(seed) for seed in range(1, 21)])
    def test_half_views_keep_their_pieces(self, V, side):
        # the half-line piece list V.half_view(side) stands for, mirrored
        # when side < 0 and cut at 0
        bp = [side * x for x in V.breakpoints.tolist()][::side]
        vals = V.values.tolist()[::side]
        k = next((k for k in range(len(vals)) if bp[k + 1] > 0.0), len(vals))
        W = pot.PiecewiseConstant([max(bp[k], 0.0)] + bp[k + 1:], vals[k:],
                                  domain="half_line")
        half = V.half_view(side)
        assert half.pieces() == W.pieces()
        # so both take the exact path, bit for bit
        assert solve_line(half) == solve_line(W)


def _loads_as(doc, V):
    """The document loads to a potential with V's values at 7 points and
    V's domain."""
    W = pot.from_json_dict(json.loads(json.dumps(doc)))
    xs = np.linspace(0.1, 1.9, 7)
    assert W.evaluate(xs).tolist() == V.evaluate(xs).tolist()
    assert W.domain == V.domain


class TestJsonRoundTrip:
    """The loader, the one reader of potential documents: each literal
    document loads to the potential its constructors build."""

    @pytest.mark.parametrize("doc, V", [
        ({"family": "zero", "params": {}}, pot.Zero()),
        ({"family": "square_well", "params": {"v": 3.0, "a": 0.0, "b": 2.0},
          "domain": "half_line"},
         pot.SquareWell(3.0, 0.0, 2.0, domain="half_line")),
        ({"family": "poschl_teller",
          "params": {"nu": 2.0, "c": 0.5, "alpha": 1.5}},
         pot.PoschlTeller(2.0, 0.5, 1.5)),
        ({"family": "gaussian",
          "params": {"amplitude": -1.0, "center": 0.3, "width": 2.0}},
         pot.Gaussian(-1.0, 0.3, 2.0)),
        ({"family": "piecewise_constant",
          "params": {"breakpoints": [0.0, 1.0, 2.0], "values": [1.0, -1.0]}},
         pot.PiecewiseConstant([0.0, 1.0, 2.0], [1.0, -1.0])),
        ({"family": "sampled",
          "params": {"grid": [0.0, 0.5, 1.0], "values": [1.0, 2.0, 0.5]}},
         pot.Sampled([0.0, 0.5, 1.0], [1.0, 2.0, 0.5])),
        ({"family": "sum", "params": {"terms": [
            {"family": "gaussian", "params": {"amplitude": 1.0}},
            {"family": "gaussian",
             "params": {"amplitude": 0.5, "center": 1.0}}]}},
         pot.Sum([pot.Gaussian(1.0), pot.Gaussian(0.5, 1.0)])),
        ({"family": "scaled", "params": {"alpha": 2.0, "inner": {
            "family": "square_well",
            "params": {"v": 1.0, "a": -1.0, "b": 1.0}}}},
         pot.SquareWell(1.0, -1.0, 1.0).scaled(2.0)),
        ({"family": "amplified", "params": {"c": 0.3, "inner": {
            "family": "poschl_teller", "params": {"nu": 1.0}}}},
         pot.PoschlTeller(1.0).amplified(0.3)),
        ({"family": "half_view", "params": {"side": -1, "inner": {
            "family": "gaussian", "params": {"amplitude": 1.0}}},
          "domain": "half_line"},
         pot.Gaussian(1.0).half_view(-1)),
    ], ids=[f"V{i}" for i in range(10)])
    def test_round_trip(self, doc, V):
        _loads_as(doc, V)

    @pytest.mark.parametrize("doc, V", [
        ({"family": "scaled",
          "params": {"alpha": 1.7,
                     "inner": {"family": "square_well",
                               "params": {"v": 2.0, "a": -0.737, "b": 1.111},
                               "domain": "full_line"}},
          "domain": "full_line"},
         pot.SquareWell(2.0, -0.737, 1.111).scaled(1.7)),
        ({"family": "amplified",
          "params": {"c": 0.6,
                     "inner": {"family": "poschl_teller",
                               "params": {"nu": 2.0, "c": 0.3, "alpha": 1.0},
                               "domain": "full_line"}},
          "domain": "full_line"},
         pot.PoschlTeller(2.0, 0.3, 1.0).amplified(0.6)),
        ({"family": "half_view",
          "params": {"side": -1,
                     "inner": {"family": "gaussian",
                               "params": {"amplitude": 2.0, "center": 0.7,
                                          "width": 1.1},
                               "domain": "full_line"}},
          "domain": "half_line"},
         pot.Gaussian(2.0, 0.7, 1.1).half_view(-1)),
    ], ids=[f"doc{i}" for i in range(3)])
    def test_wrapper_documents_round_trip(self, doc, V):
        # every key stated, the domains of wrapper and inner included
        _loads_as(doc, V)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            pot.from_json_dict(
                json.loads('{"family": "nonsense", "params": {}}'))

    @pytest.mark.parametrize("doc, key", [
        ({"family": "gaussian", "params": {"amplitude": 3, "widht": 5}},
         "widht"),
        ({"family": "gaussian", "params": {"amplitude": 3},
          "domian": "half_line"}, "domian"),
        ({"family": "gaussian", "params": {"amplitude": 3,
                                           "domain": "half_line"}},
         "domain"),
        ({"family": "zero", "params": {"v": 1}}, "'v'"),
        ({"family": "sum", "params": {"terms": [], "weights": [1]}},
         "weights"),
        ({"family": "scaled", "params": {"alpha": 2, "c": 1,
                                         "inner": {"family": "zero"}}},
         "'c'"),
        ({"family": "half_view", "params": {"side": 1, "alpha": 1,
                                            "inner": {"family": "zero"}}},
         "'alpha'"),
    ])
    def test_unknown_keys_rejected(self, doc, key):
        # params reach the constructor by keyword; the wrappers take inner
        # and their one parameter; domain belongs to the document
        with pytest.raises(ValueError, match=key):
            pot.from_json_dict(doc)

    def test_sum_lives_on_its_terms_domain(self):
        well = {"family": "square_well", "params": {"v": 1, "a": -2, "b": 2},
                "domain": "half_line"}
        V = pot.from_json_dict({"family": "sum", "params": {"terms": [well]}})
        assert V.domain == pot.HALF_LINE
        assert V.integrate() == 2.0

    @pytest.mark.parametrize("doc, key", [
        ({"family": "square_well", "params": {"v": math.nan, "a": 0, "b": 1}},
         "v"),
        ({"family": "piecewise_constant",
          "params": {"breakpoints": [0, 1], "values": [math.nan]}}, "values"),
        ({"family": "sampled",
          "params": {"grid": [0, math.inf], "values": [1, 1]}}, "grid"),
        ({"family": "scaled",
          "params": {"alpha": -math.inf, "inner": {"family": "zero"}}},
         "alpha"),
        # an integer too large for a float, which float() cannot convert
        ({"family": "square_well", "params": {"v": 1, "a": 0, "b": 10**400}},
         "b"),
    ])
    def test_non_finite_numbers_rejected(self, doc, key):
        # json reads NaN, Infinity, 1e400 (as inf) and integers of any size
        with pytest.raises(ValueError, match=f"^{key}: .* not a finite float"):
            pot.from_json_dict(doc)

    def test_underflowing_mass_rejected(self):
        # the check is on the whole document: a term's subnormal mass next
        # to a normal one is harmless, and zero is no mass at all
        for amplitude in (1, -1):
            with pytest.raises(ValueError, match="underflows"):
                pot.from_json_dict({"family": "gaussian", "params": {
                    "amplitude": amplitude, "width": 1e-320}})
        tiny = {"family": "gaussian",
                "params": {"amplitude": 1, "width": 1e-320}}
        one = {"family": "gaussian", "params": {"amplitude": 1}}
        V = pot.from_json_dict({"family": "sum",
                                "params": {"terms": [tiny, one]}})
        assert V.integrate() == pytest.approx(math.sqrt(math.pi))
        assert pot.from_json_dict({"family": "zero"}).integrate() == 0.0


class TestValidation:
    @pytest.mark.parametrize("domain", [[-1.0, 2.0], (0.0, 1.0)])
    def test_only_the_line_and_half_line(self, domain):
        with pytest.raises(ValueError, match="malformed domain"):
            pot.Gaussian(1.0, domain=domain)

    def test_sum_terms_share_a_domain(self):
        with pytest.raises(ValueError, match="share one domain"):
            pot.Sum([pot.Gaussian(1.0),
                     pot.SquareWell(1.0, -2.0, 2.0, domain="half_line")])

    def test_square_well_orientation(self):
        with pytest.raises(ValueError):
            pot.SquareWell(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            pot.SquareWell(-1.0, 0.0, 1.0)

    def test_piecewise_breakpoints(self):
        with pytest.raises(ValueError):
            pot.PiecewiseConstant([0.0, 0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pot.PiecewiseConstant([0.0, 1.0], [1.0, 2.0])


class TestTruncationPoint:
    def test_tail_below_tolerance(self):
        V = pot.PoschlTeller(1.0)
        X = pot.truncation_point(V, 1e-8)
        tail = V.integrate() - V.integrate(-X, X)
        assert tail < 1e-8
        assert X >= pot.TRUNCATION_X_MIN

    def test_compact_support(self):
        V = pot.SquareWell(1.0, -1.0, 1.0)
        X = pot.truncation_point(V, 1e-12)
        assert X == pot.TRUNCATION_X_MIN


class TestRandomGenerator:
    def test_deterministic(self):
        a = random_piecewise(42)
        b = random_piecewise(42)
        assert list(a.breakpoints) == list(b.breakpoints)
        assert list(a.values) == list(b.values)

    def test_shape(self):
        for seed in range(20):
            V = random_piecewise(seed)
            assert 3 <= len(V.values) <= 8
            assert all(0.0 < v <= 5.0 for v in V.values)
            assert V.breakpoints[0] >= -5.0 and V.breakpoints[-1] <= 5.0
