import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from lt_spectral import sturm
from lt_spectral.cli import random_piecewise
from lt_spectral.kyfan import _solve_share
from lt_spectral.numerics import InvariantError
from lt_spectral.potential import (Gaussian, PiecewiseConstant, PoschlTeller,
                                   Sampled, SquareWell, Sum, Zero)
from lt_spectral.sturm import (JUMP_TOL, SOLVER_TOL, SolverError, Spectrum,
                               _negative_eigs, _tridiag, riesz_mean,
                               solve_interval, solve_line)

from fd_path import FDOnly
from oracles import (bs_interval_bound, bs_line_ground_bound,
                     poschl_teller_levels, prufer_angle,
                     prufer_neumann_levels, sobolev_pointwise_check,
                     square_well_line_levels)


def _check_against(spec, exact, tol=1e-6):
    assert len(spec) == len(exact)
    for e, r, ex in zip(spec.eigenvalues, spec.radii, exact):
        assert abs(e - ex) <= r + 1e-12, (e, ex, r)
        assert abs(e - ex) <= tol or abs(e - ex) <= r


class TestSpectrumInvariants:
    def test_ordering_enforced(self):
        with pytest.raises(InvariantError):
            Spectrum((-1.0, -2.0), (0.0, 0.0))

    def test_sign_certainty(self):
        with pytest.raises(InvariantError):
            Spectrum((-1.0,), (1.5,))
        with pytest.raises(InvariantError):
            Spectrum((0.0,), (0.0,))


class TestAnalyticSpectra:
    def test_poschl_teller_two(self):
        spec = solve_line(PoschlTeller(2.0))
        _check_against(spec, poschl_teller_levels(2.0))
        # truncation edge states may show up as unresolved candidates, but
        # their worst-case size must stay negligible
        assert spec.near_threshold <= 1
        assert spec.threshold < 1e-4

    def test_poschl_teller_three(self):
        spec = solve_line(PoschlTeller(3.0))
        _check_against(spec, poschl_teller_levels(3.0), tol=1e-5)

    @pytest.mark.parametrize("v,half_width", [(1.0, 1.0), (2.0, 1.0),
                                              (10.0, 1.0), (4.0, 0.5)])
    def test_square_wells(self, v, half_width):
        V = SquareWell(v, -half_width, half_width)
        spec = solve_line(V)
        exact = square_well_line_levels(v, half_width)
        # states closer to zero than the solver's confidence bound may be
        # reported as near-threshold candidates instead of eigenvalues
        resolved = [e for e in exact if abs(e) > spec.threshold]
        assert len(spec) >= len(resolved)
        assert len(spec) + spec.near_threshold >= len(exact)
        for e, r, ex in zip(spec.eigenvalues, spec.radii, exact):
            assert abs(e - ex) <= r + 1e-12

    def test_shifted_well_invariance(self):
        base = solve_line(SquareWell(2.0, -1.0, 1.0))
        moved = solve_line(SquareWell(2.0, 4.0, 6.0))
        for e1, e2, r1, r2 in zip(base.eigenvalues, moved.eigenvalues,
                                  base.radii, moved.radii):
            assert abs(e1 - e2) <= r1 + r2


class TestSampledContainment:
    """A sampled plateau is zero outside its grid, so it is a square well:
    its ends are jumps the certified radii must account for."""

    LEVEL = square_well_line_levels(3.0, 0.5)  # [-1.1736021...]

    @pytest.mark.parametrize("shift", np.linspace(-0.37, 0.41, 10))
    def test_plateau_contains_square_well_level(self, shift):
        V = Sampled([shift - 0.5, shift + 0.5], [3.0, 3.0])
        # 2e-4 lies below the jump tolerance (JUMP_TOL = 1e-3), so the
        # solver raises it to that instead of refusing; the radius it
        # returns must not miss the level
        spec = solve_line(V, tol=2e-4)
        _check_against(spec, self.LEVEL, tol=2e-4)
        _check_against(solve_line(V), self.LEVEL, tol=1e-2)


class TestPruferOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_neumann_interval_matches_shooting(self, seed):
        from lt_spectral.cli import random_piecewise
        V = random_piecewise(seed)
        lo, hi = V.support()
        spec = solve_interval(V, (lo - 0.5, hi + 0.5), bc="neumann")
        exact = prufer_neumann_levels(V, lo - 0.5, hi + 0.5)
        assert len(spec) + spec.near_threshold >= len(exact) >= len(spec)
        for e, r, ex in zip(spec.eigenvalues, spec.radii, exact):
            assert abs(e - ex) <= r + 1e-10

    def test_interior_jump(self):
        V = PiecewiseConstant([0.0, 0.7, 1.3, 2.0], [1.0, 5.0, 2.0])
        spec = solve_interval(V, (0.0, 2.0), bc="neumann")
        exact = prufer_neumann_levels(V, 0.0, 2.0)
        assert len(spec) == len(exact)
        for e, r, ex in zip(spec.eigenvalues, spec.radii, exact):
            assert abs(e - ex) <= r + 1e-10


    def test_narrow_spike(self):
        # one step across the spike's jumps could step over it: the angle
        # must still rise with E through the ground state near -5.237e-3
        V = PiecewiseConstant([4.0, 4.05], [1.0])
        below = prufer_angle(V, 0.0, 10.0, -0.006)
        above = prufer_angle(V, 0.0, 10.0, -0.005)
        assert below < 0.5 * math.pi < above
        (ground,) = prufer_neumann_levels(V, 0.0, 10.0)
        assert ground == pytest.approx(-5.237e-3, rel=1e-3)


class TestJumpLadder:
    """On the FD path (FDOnly: with pieces() and Neumann ends, interval
    spectra are shot exactly) each radius carries the allowance
    0.5 J (b - a) / 2^k across jumps, with J the jumps strictly inside
    [a, b]; the ladder starts one level below the first level k0 whose
    allowance fits the tolerance."""

    @staticmethod
    def _spy(monkeypatch):
        rows = []

        def spy(d, e, lo):
            rows.append(len(d))
            return _negative_eigs(d, e, lo)

        monkeypatch.setattr(sturm, "_negative_eigs", spy)
        return rows

    def test_starts_one_level_below_the_first_that_fits(self, monkeypatch):
        # interior jumps 4 and 3 on a length 2: 7 / 2^k <= JUMP_TOL first
        # at k0 = 13, so only the pair (12, 13) is solved; climbing from
        # LEVEL_MIN took seven solves, from 2^8 + 1 to 2^14 + 1 rows
        V = FDOnly(PiecewiseConstant([0.0, 0.7, 1.3, 2.0], [1.0, 5.0, 2.0]))
        rows = self._spy(monkeypatch)
        spec = solve_interval(V, (0.0, 2.0))
        assert rows == [2**12 + 1, 2**13 + 1]
        _check_against(spec, prufer_neumann_levels(V, 0.0, 2.0),
                       tol=JUMP_TOL)

    def test_jumps_at_the_ends_cost_nothing(self):
        # V = 3 on [0, 2] jumps only at the ends, inside no grid cell: the
        # solve is jump free and meets SOLVER_TOL, where charged for its
        # ends it gave radii of 7.3e-4.  (The ground state's radius, 2.8e-11,
        # does not cover LAPACK's bisection error: the raw values at 2^10 + 1
        # and 2^11 + 1 rows are off by 2.8e-11 and 1.1e-10, the extrapolated
        # one by 1.4e-10, and the first Richardson step leaves that out.)
        V = FDOnly(PiecewiseConstant([0.0, 2.0], [3.0]))
        spec = solve_interval(V, (0.0, 2.0))
        exact = [-3.0, -3.0 + 0.25 * math.pi**2]
        assert spec.eigenvalues == pytest.approx(exact, abs=1e-6)
        assert max(spec.radii) < 1e-6

    def test_unresolved_spike_keeps_its_bound(self):
        # the spike's only state lies above -10 tol at every level; solved
        # on the pair (13, 14) it is still one near-threshold candidate
        # whose bound covers it
        V = FDOnly(PiecewiseConstant([4.0, 4.05], [1.0]))
        spec = solve_interval(V, (0.0, 10.0))
        (ground,) = prufer_neumann_levels(V, 0.0, 10.0)
        assert (len(spec), spec.near_threshold) == (0, 1)
        assert spec.threshold >= abs(ground)


    @pytest.mark.parametrize("level", [0, 1], ids=["coarse", "fine"])
    def test_unmatched_count_is_near_threshold(self, monkeypatch, level):
        # the pair (12, 13) certifies all three levels of this well; with
        # the shallowest raw value dropped on one level, the other level's
        # extra value is unmatched: it counts as one near-threshold state
        # whose bound, twice its raw value, covers the level it stands for
        V = FDOnly(PiecewiseConstant([0.0, 1.0, 3.0, 4.0], [2.0, 6.0, 2.0]))
        raw = []

        def spy(d, e, lo):
            vals = _negative_eigs(d, e, lo)
            if len(raw) == level:
                vals = vals[:-1]
            raw.append(vals)
            return vals

        monkeypatch.setattr(sturm, "_negative_eigs", spy)
        spec = solve_interval(V, (0.0, 4.0))
        exact = prufer_neumann_levels(V, 0.0, 4.0)
        (extra,) = raw[1 - level][len(raw[level]):]
        assert [len(r) for r in raw] == [2 + level, 3 - level]
        assert (len(spec), spec.near_threshold) == (2, 1)
        assert spec.threshold >= 2.0 * abs(extra) >= abs(exact[2])
        _check_against(spec, exact[:2], tol=JUMP_TOL)


class TestBracketingMonotonicity:
    @pytest.mark.parametrize("seed", range(20))
    def test_neumann_below_dirichlet(self, seed):
        from lt_spectral.cli import random_piecewise
        V = random_piecewise(seed)
        lo, hi = V.support()
        iv = (lo - 0.3, hi + 0.3)
        neu = solve_interval(V, iv, bc="neumann")
        dir_ = solve_interval(V, iv, bc="dirichlet")
        # Neumann eigenvalues interlace below Dirichlet ones
        for i, e in enumerate(dir_.eigenvalues):
            assert i < len(neu.eigenvalues)
            assert neu.eigenvalues[i] - neu.radii[i] <= e + dir_.radii[i]

    def test_neumann_walls_lower_ground_state(self):
        # splitting [-4, 4] by Neumann walls at +-2 yields a direct sum
        # whose negative spectrum contains that of [-2, 2], so the inner
        # interval's ground state lies below the unsplit one
        V = SquareWell(3.0, -1.0, 1.0)
        small = solve_interval(V, (-2.0, 2.0), bc="neumann")
        large = solve_interval(V, (-4.0, 4.0), bc="neumann")
        assert small.eigenvalues[0] <= large.eigenvalues[0] \
            + small.radii[0] + large.radii[0]


class TestScalingCovariance:
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_line_eigenvalues_scale(self, alpha):
        V = PoschlTeller(2.0)
        base = solve_line(V)
        scaled = solve_line(V.scaled(alpha))
        assert len(base) == len(scaled)
        for e, es, r, rs in zip(base.eigenvalues, scaled.eigenvalues,
                                base.radii, scaled.radii):
            assert abs(es - alpha**2 * e) <= alpha**2 * r + rs + 1e-9


def _ladder(V, interval, bc, top):
    """Raw FD eigenvalues of levels top - 3 .. top, the finest matrix and
    the solver's resolved mask at the default tolerance."""
    a, b = interval
    levels = [_negative_eigs(*_tridiag(V, a, b, 2**k + 1, (bc, bc)))
              for k in range(top - 3, top + 1)]
    d, e, _ = _tridiag(V, a, b, 2**top + 1, (bc, bc))
    coarse, fine = levels[-2:]
    m = min(len(coarse), len(fine))
    keep = (4.0 * fine[:m] - coarse[:m]) / 3.0 < -10.0 * SOLVER_TOL
    return levels, d, e, keep


class TestSecondStep:
    """The second Richardson step, fed real four-level ladders: taken on
    the boxes of smooth wells, refused where the raw error is not
    c2 h^2 + c4 h^4 + ... (a kink, or a Neumann end where V' != 0)."""

    HALF = (PoschlTeller(2.0, c=0.5, alpha=2.0).half_view(+1), (1.07, 6.0))

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 6.2])
    def test_accepted_on_whole_line_boxes(self, nu):
        V = PoschlTeller(nu)
        X = sturm._box(V, SOLVER_TOL)
        tail = sturm._tail_sup(V, X)
        ends = {}
        for bc in ("neumann", "dirichlet"):
            levels, d, e, keep = _ladder(V, (-X, X), bc, 11)
            vals, rads, ordered = sturm._second_step(levels, d, e)
            assert keep.any() and ordered[keep].all()
            ends[bc] = (vals[keep], rads[keep])
        # each closed-form level lies in its Neumann-Dirichlet sandwich
        (vn, rn), (vd, rd) = ends["neumann"], ends["dirichlet"]
        exact = poschl_teller_levels(nu)
        assert len(vn) == len(exact)
        for i, ex in enumerate(exact[:len(vd)]):
            assert vn[i] - rn[i] - tail <= ex <= vd[i] + rd[i] + tail

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 6.2])
    def test_line_spectra_stop_early(self, monkeypatch, nu):
        sizes = []

        def spy(d, e, lo):
            sizes.append(len(d))
            return _negative_eigs(d, e, lo)

        monkeypatch.setattr(sturm, "_negative_eigs", spy)
        spec = solve_line(PoschlTeller(nu))
        _check_against(spec, poschl_teller_levels(nu)[:len(spec)])
        assert len(spec) + spec.near_threshold >= math.ceil(nu)
        # the raw defect alone climbs to 2^16 + 1 nodes on nu = 2 and 3
        assert max(sizes) <= 2**12 + 1

    @pytest.mark.parametrize("top", [11, 12, 13])
    def test_rejected_on_kinked_tent(self, top):
        # at top 13 the h^3 term is below the eigensolver's rounding: the
        # R1 differences (2.6e-9, 1.8e-10) give a ratio of 14.3 that only
        # the rounding check refuses
        V = Sampled([-1.0, 0.0, 1.0], [0.0, 4.0, 0.0])
        levels, d, e, keep = _ladder(V, (-3.0, 3.0), "neumann", top)
        _, _, ordered = sturm._second_step(levels, d, e)
        assert keep.any() and not ordered[keep].all()

    def test_rejected_where_neumann_end_has_slope(self):
        V, iv = self.HALF
        levels, d, e, keep = _ladder(V, iv, "neumann", 11)
        _, _, ordered = sturm._second_step(levels, d, e)
        assert keep.any() and not ordered[keep].all()
        spec = solve_interval(V, iv)
        _check_against(spec, prufer_neumann_levels(V, *iv))

    def test_not_tried_across_jumps(self, monkeypatch):
        # this well's first-order jump allowance keeps the first step short
        # of its tolerance until 2^15 + 1 nodes; a second step would drop
        # that allowance from the radius
        def refuse(*args):
            raise AssertionError("second step tried across a jump")

        monkeypatch.setattr(sturm, "_second_step", refuse)
        spec = solve_interval(FDOnly(SquareWell(50.0, -1.0, 1.0)), (-3.0, 3.0))
        assert len(spec) > 0

    def test_planted_fault_without_order_window(self, monkeypatch):
        # the h^3 term at a sloped Neumann end gives ratios near 8; taken
        # anyway, the second step's radius (1.72e-8 at 2049 nodes) misses
        # the true error (1.86e-8)
        V, iv = self.HALF
        monkeypatch.setattr(sturm, "_ORDER_WINDOW", (-math.inf, math.inf))
        spec = solve_interval(V, iv)
        exact = prufer_neumann_levels(V, *iv)
        assert len(spec) == len(exact) == 1
        assert abs(spec.eigenvalues[0] - exact[0]) > spec.radii[0]


class TestSturmCount:
    """The negative count comes from LAPACK's Sturm-sequence bisection,
    started at _tridiag's floor lo = -max v - 1 - 4 ulp ||T||_1; it must
    miss no eigenvalue.  T - mu has the floor lo - mu."""

    @pytest.mark.parametrize("seed", range(50))
    def test_count_matches_eigh(self, seed):
        from lt_spectral.cli import random_piecewise
        rng = np.random.default_rng(seed)
        V = random_piecewise(seed)
        lo, hi = V.support()
        d, e, floor = _tridiag(V, lo, hi, 129, ("neumann", "neumann"))
        mu = float(rng.uniform(-5.0, 5.0))
        w = eigh_tridiagonal(d, e, eigvals_only=True)
        # eigenvalues of T - mu below 0 are those of T below mu
        assert len(_negative_eigs(d - mu, e, floor - mu)) \
            == int(np.sum(w < mu))

    def test_shift_consistency(self):
        V = SquareWell(4.0, 0.0, 2.0)
        d, e, lo = _tridiag(V, -1.0, 3.0, 257, ("dirichlet", "dirichlet"))
        c1 = len(_negative_eigs(d + 1.0, e, lo + 1.0))
        c2 = len(_negative_eigs(d, e, lo))
        assert 0 <= c1 <= c2


class TestFloor:
    """The difference part of T is positive semidefinite under every end
    condition, so T >= -max v, and the bisection starts at _tridiag's floor
    -max v - 1 - 4 ulp ||T||_1.  Under it the count is that of the whole
    spectrum, and each value lies within ulp ||T||_1 of the same eigenvalue
    bisected to full accuracy from LAPACK's own Gershgorin end."""

    ENDS = [("neumann", "neumann"), ("dirichlet", "dirichlet"),
            ("neumann", "dirichlet")]

    @staticmethod
    def _ulp_norm(d, e):
        norm = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
        return np.finfo(float).eps * norm

    def _check_values(self, d, e, vals):
        ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                               select_range=(0, len(vals) - 1),
                               tol=np.finfo(float).tiny)
        assert np.max(np.abs(vals - ref)) <= self._ulp_norm(d, e)

    def _check(self, V, a, b, n, bc):
        d, e, lo = _tridiag(V, a, b, n, bc)
        vals = _negative_eigs(d, e, lo)
        # divide and conquer, with no select, gives the count; its values
        # stray up to 4.4 ulp ||T||_1 here, so they are not the reference
        w = eigh_tridiagonal(d, e, eigvals_only=True)
        assert len(vals) == int(np.sum(w < 0.0)) > 0
        self._check_values(d, e, vals)

    @pytest.mark.parametrize("bc", ENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_piece_lists(self, seed, bc):
        V = random_piecewise(seed)
        lo, hi = V.support()
        self._check(V, lo - 0.5, hi + 0.5, 1025, bc)

    @pytest.mark.parametrize("bc", ENDS)
    @pytest.mark.parametrize("n", [257, 2049])
    def test_gaussian(self, n, bc):
        self._check(Gaussian(3.0), -4.0, 4.0, n, bc)

    @pytest.mark.parametrize("n", [257, 513, 1025, 2049, 4097])
    def test_ground_state_at_minus_max_v(self, n):
        # V = 3 on [0, 2] is constant on every cell, so the Neumann ground
        # state of T is -max v = -3 itself; only the margin keeps it above
        # the floor
        self._check(PiecewiseConstant([0.0, 2.0], [3.0]), 0.0, 2.0, n,
                    ("neumann", "neumann"))

    @pytest.mark.parametrize("V, b", [
        (PiecewiseConstant([0.0, 5e-4], [1e6]), 1e-3),
        # constant on every cell, so the ground state is -max v = -3; the
        # rounding of the entries (2 / h^2 = 3.4e16) puts it 2 lower, past
        # the absolute margin of 1
        (PiecewiseConstant([0.0, 5e-4], [3.0]), 5e-4)],
        ids=["tall-well", "constant"])
    def test_rounding_margin_above_one(self, V, b):
        # 2^16 + 1 rows on [0, b] put ulp ||T||_1 at 4.6 and 18.4, past
        # the absolute margin; the count must equal that of the lowest
        # eigenvalues by index, which LAPACK finds with no floor
        d, e, lo = _tridiag(V, 0.0, b, 2**16 + 1, ("neumann", "neumann"))
        assert self._ulp_norm(d, e) > 1.0
        vals = _negative_eigs(d, e, lo)
        w = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                             select_range=(0, len(vals)))
        assert len(vals) == int(np.sum(w < 0.0)) == 1
        self._check_values(d, e, vals)


class TestRieszMean:
    def test_exact_sum(self):
        spec = Spectrum((-4.0, -1.0), (0.0, 1e-12))
        rm = riesz_mean(spec, 1.0)
        assert rm.value == pytest.approx(5.0)
        rm = riesz_mean(spec, 0.5)
        assert rm.value == pytest.approx(3.0)

    def test_error_propagation(self):
        spec = Spectrum((-4.0,), (0.1,))
        rm = riesz_mean(spec, 0.5)
        # d|E|^1/2 = r / (2 sqrt|E|)
        assert rm.error == pytest.approx(0.1 / 4.0)

    def test_near_threshold_budget(self):
        spec = Spectrum((-4.0,), (0.0,), near_threshold=2,
                        threshold=1e-4)
        rm = riesz_mean(spec, 0.5)
        assert rm.error == pytest.approx(2.0 * 1e-2)

    def test_empty_spectrum_sums_to_float_zero(self):
        rm = riesz_mean(Spectrum((), (), 1, 1e-4), 0.5)
        assert type(rm.value) is float and rm.value == 0.0

    def test_gamma_domain(self):
        spec = Spectrum((), ())
        with pytest.raises(ValueError):
            riesz_mean(spec, 0.4)


class TestCountBounds:
    def test_interval_bound_value(self):
        V = SquareWell(2.0, 0.0, 1.0)
        got = bs_interval_bound(V, (0.0, 1.0), -1.0)
        assert got == pytest.approx((2.0 / math.tanh(1.0)) ** 2, rel=1e-12)

    def test_coth_asymptote(self):
        # for lambda*l = 50 the coth factor is 1 to within 1e-8
        V = SquareWell(1.0, 0.0, 1.0)
        got = bs_interval_bound(V, (0.0, 1.0), -2500.0)
        assert got == pytest.approx((1.0 / 50.0) ** 2, rel=1e-8)

    def test_counts_dominated(self):
        V = SquareWell(6.0, -1.0, 1.0)
        spec = solve_interval(V, (-2.0, 2.0), bc="neumann")
        for e in spec.eigenvalues:
            n_below = sum(1 for x in spec.eigenvalues if x <= e)
            assert n_below <= bs_interval_bound(V, (-2.0, 2.0), e) + 1e-9

    def test_line_ground_bound(self):
        for V in (SquareWell(2.0, -1.0, 1.0), PoschlTeller(2.0),
                  Gaussian(3.0)):
            spec = solve_line(V)
            lam = math.sqrt(abs(spec.eigenvalues[0]))
            assert lam <= bs_line_ground_bound(V) + 1e-6

    def test_weak_coupling_saturation(self):
        # sqrt|E_1| -> (1/2) int V as the coupling vanishes
        ratios = []
        for c in (0.6, 0.4, 0.2):
            V = Gaussian(c)
            spec = solve_line(V)
            lam = math.sqrt(abs(spec.eigenvalues[0]))
            ratios.append(lam / bs_line_ground_bound(V))
        assert all(0.7 < r <= 1.0 + 1e-6 for r in ratios)
        # and the ratio climbs toward 1 as the coupling shrinks
        assert ratios == sorted(ratios)

    def test_reject_positive_energy(self):
        with pytest.raises(ValueError):
            bs_interval_bound(Zero(), (0.0, 1.0), 0.5)


class TestSobolevCheck:
    def test_generic_function(self):
        x = np.linspace(0.0, 2.0, 400)
        u = np.cos(math.pi * x) + 0.3 * x
        lhs, rhs = sobolev_pointwise_check(x, u)
        assert lhs <= rhs

    def test_extremizer_near_equality(self):
        # u(x) = (l-x)^2/2 - l^2/6 saturates the bound on [0, l]
        l = 1.5
        x = np.linspace(0.0, l, 4000)
        u = 0.5 * (l - x) ** 2 - l * l / 6.0
        lhs, rhs = sobolev_pointwise_check(x, u)
        assert lhs <= rhs
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = np.sort(rng.uniform(0.0, 3.0, 50))
            x[0], x[-1] = 0.0, 3.0
            if np.any(np.diff(x) <= 0):
                continue
            u = rng.standard_normal(50)
            lhs, rhs = sobolev_pointwise_check(x, u)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sobolev_pointwise_check([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            sobolev_pointwise_check([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


class TestSolverBehavior:
    def test_empty_for_zero_potential(self):
        spec = solve_line(Zero())
        assert len(spec) == 0

    def test_kinetic_share(self):
        # -theta u'' - V u is theta * (-u'' - (V/theta) u), which is how
        # kyfan solves a kinetic share.  For V = 6 sech^2 and theta = 1/2,
        # V/theta = 12 sech^2 is Poschl-Teller nu = 3 with levels -9, -4, -1
        theta = 0.5
        spec = _solve_share(PoschlTeller(2.0), theta, SOLVER_TOL)
        exact = [theta * e for e in poschl_teller_levels(3.0)]
        assert len(spec) == len(exact)
        for e, ex in zip(spec.eigenvalues, exact):
            assert e == pytest.approx(ex, abs=1e-5)

    def test_interval_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            solve_interval(Zero(), (1.0, 1.0))

    def test_jump_floor_in_radii(self):
        # on the FD path, discontinuous potentials carry an explicit
        # first-order allowance
        V = FDOnly(SquareWell(2.0, -1.0, 1.0))
        spec = solve_line(V)
        assert all(r > 1e-8 for r in spec.radii)
        spec = solve_interval(V, (-3.0, 3.0))
        assert all(r > 1e-8 for r in spec.radii)

    def test_interval_charged_only_for_its_jumps(self):
        # the well's jumps at 5 and 6 lie outside [-3, 3], so the solve
        # there sees the Gaussian alone, bit for bit
        mix = Sum([Gaussian(1.0), SquareWell(1.0, 5.0, 6.0)])
        assert solve_interval(mix, (-3.0, 3.0)) == \
            solve_interval(Gaussian(1.0), (-3.0, 3.0))

    def test_stated_tolerance_raised_across_jumps(self):
        # on the FD path a tolerance below the jump tolerance means that
        # tolerance, so a stated 1e-8 solves as the default does instead of
        # refusing
        V = FDOnly(SquareWell(2.0, -1.0, 1.0))
        assert solve_interval(V, (-3.0, 3.0), tol=1e-8) \
            == solve_interval(V, (-3.0, 3.0))

    def test_tail_allowance_on_both_sides(self, monkeypatch):
        # cutting V >= 0 off outside the box raises every eigenvalue, so
        # the Neumann value may lie above the true one by sup V beyond X:
        # the lower end of each radius must give way by that allowance
        V = Gaussian(1.5, width=2.0)
        monkeypatch.setattr(sturm, "_tail_sup", lambda V, X: 0.0)
        base = solve_line(V)
        monkeypatch.setattr(sturm, "_tail_sup", lambda V, X: 1e-3)
        wide = solve_line(V)
        assert len(wide) == len(base) > 0
        for e0, r0, e1, r1 in zip(base.eigenvalues, base.radii,
                                  wide.eigenvalues, wide.radii):
            assert (e0 - r0) - (e1 - r1) >= 1e-3 - 1e-12

    def test_jump_floor_beyond_any_tolerance(self):
        # jumps of 2e4 over a length 2000 put the FD path's first-order
        # floor near 300: no tolerance covers it, which is a numerical
        # failure
        with pytest.raises(SolverError, match="first-order floor"):
            solve_interval(FDOnly(SquareWell(1e4, 0.0, 1e-6)), (0.0, 2000.0))

    def test_interval_too_long_for_a_grid(self):
        # h = 3e200 / 2^LEVEL_MIN squares past the float range: on the FD
        # path a numerical failure that names the interval, not an
        # OverflowError
        with pytest.raises(SolverError,
                           match=r"\[0\.0, 3e\+200\] is too long"):
            solve_interval(FDOnly(SquareWell(1e-200, 0.0, 1.0)),
                           (0.0, 3e200))

    def test_exact_radii_for_pieces(self):
        # with pieces() the jumps cost nothing: exact shooting brackets
        # the closed-form level to a relative 1e-12 or so
        spec = solve_line(SquareWell(2.0, -1.0, 1.0))
        _check_against(spec, square_well_line_levels(2.0, 1.0), tol=1e-13)
        assert all(r < 1e-10 * abs(e)
                   for e, r in zip(spec.eigenvalues, spec.radii))

    def test_unresolved_states_counted_once(self):
        # random_piecewise(2) has three bound states; the shallowest,
        # E_3 ~ -0.0622 by exact shooting, lies above the FD cut.  The
        # zero-energy solution, flat left of the support, has one node per
        # bound state: its Prufer angle at the right edge heads for
        # pi/2 + 3 pi.  The FD sandwich counts the unresolved one once.
        V = random_piecewise(2)
        lo, hi = V.support()
        theta = prufer_angle(V, lo, hi, 0.0)
        assert math.ceil((theta - 0.5 * math.pi) / math.pi) == 3
        spec = solve_line(FDOnly(V))
        assert (len(spec), spec.near_threshold) == (2, 1)
        assert riesz_mean(spec, 0.5).error >= math.sqrt(0.0622)

    def test_exact_path_resolves_shallow_state(self):
        # exact shooting resolves all three, the shallowest included
        spec = solve_line(random_piecewise(2))
        assert (len(spec), spec.near_threshold) == (3, 0)
        assert spec.eigenvalues[2] == pytest.approx(-0.0622, abs=1e-4)
        assert riesz_mean(spec, 0.5).error < 1e-10
