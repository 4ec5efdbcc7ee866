"""Exact shooting for piecewise-constant potentials, against oracles.

Random piece lists on the whole and half line, and sums, scaled and
amplified forms of them, are drawn with hypothesis (bounded, derandomized
examples).  Three independent checks: the count of bound states equals the
zero-energy Pruefer count of tests/oracles.py; each exact eigenvalue lies in
the sandwich of the finite-difference (FD) interval spectra with Neumann
and Dirichlet ends on a box around the support; and for V >= 0 on the
whole line the moment lies in the window (1/4) int V <= Sigma sqrt|E_i| <=
(1/2) int V, whose constant 1/2 is sharp (Hundertmark, Lieb and Thomas,
Adv. Theor. Math. Phys. 2 (1998) 719).  Neumann interval spectra, shot
exactly as well, are held to FD and to the piecewise Pruefer oracle on
every proper partition interval of the random seeds.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lt_spectral import sturm
from lt_spectral.bracketing import build_partition, interval_spectrum
from lt_spectral.cli import random_piecewise
from lt_spectral.kyfan import Splitting, verify_splitting
from lt_spectral.numerics import piece_step
from lt_spectral.potential import (HALF_LINE, PiecewiseConstant, SquareWell,
                                   Sum, piece_steps)
from lt_spectral.scattering import _transfer, piece_step_array
from lt_spectral.sturm import (SolverError, riesz_mean, solve_interval,
                               solve_line)

from fd_path import FDOnly
from oracles import (prufer_angle, prufer_neumann_levels,
                     square_well_line_levels, square_well_line_levels_mp,
                     transfer_exact)

EXAMPLES = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def piece_lists(draw, domain, signed):
    """PiecewiseConstant with 1-4 pieces inside [-4, 4] (half line: [0, 6])
    and values in [-3, 6] when signed, else in [0.2, 6]."""
    n = draw(st.integers(1, 4))
    lo, hi = (0.0, 6.0) if domain == "half_line" else (-4.0, 4.0)
    cuts = draw(st.lists(st.floats(lo, hi), min_size=n + 1, max_size=n + 1,
                         unique=True).map(sorted))
    assume(min(b - a for a, b in zip(cuts, cuts[1:])) > 0.05)
    vmin = -3.0 if signed else 0.2
    vals = draw(st.lists(st.floats(vmin, 6.0), min_size=n, max_size=n))
    return PiecewiseConstant(cuts, vals, domain)


@st.composite
def potentials(draw, signed=True):
    """A piece list, a sum of two, or a scaled or amplified piece list."""
    domain = draw(st.sampled_from(["full_line", "half_line"]))
    V = draw(piece_lists(domain, signed))
    form = draw(st.sampled_from(["plain", "sum", "scaled", "amplified"]))
    if form == "sum":
        V = Sum([V, draw(piece_lists(domain, signed))])
    elif form == "scaled":
        V = V.scaled(draw(st.floats(0.5, 2.0)))
    elif form == "amplified":
        V = V.amplified(draw(st.floats(0.3, 2.0)))
    return V


def _span(V):
    """Where the shooting runs: the support, from 0 on the half line."""
    lo, hi = V.support()
    return (0.0 if V.domain == HALF_LINE else lo), hi


@EXAMPLES
@given(potentials())
def test_count_matches_zero_energy_prufer(V):
    # the zero-energy solution, flat left of the support (Neumann at 0 on
    # the half line), has one node per bound state, the right tail included
    a, b = _span(V)
    turns = (prufer_angle(V, a, b, 0.0) - 0.5 * math.pi) / math.pi
    # a zero-energy resonance sits on the boundary; the oracle cannot decide
    assume(abs(turns - round(turns)) > 1e-6)
    spec = solve_line(V)
    assert len(spec) + spec.near_threshold == math.ceil(turns)


@settings(EXAMPLES, max_examples=15)
@given(potentials())
def test_inside_fd_sandwich(V):
    # Neumann ends on a box around the support lower every eigenvalue and
    # Dirichlet ends raise it (min-max), so E_i lies between the two FD
    # interval spectra, widened by their certified radii
    a, b = _span(V)
    box = (a if V.domain == HALF_LINE else a - 1.0, b + 1.0)
    upper_bc = ("neumann", "dirichlet") if V.domain == HALF_LINE \
        else "dirichlet"
    lower = solve_interval(FDOnly(V), box, "neumann")
    upper = solve_interval(FDOnly(V), box, upper_bc)
    spec = solve_line(V)
    assert len(upper) <= len(spec) <= len(lower) + lower.near_threshold
    for i, (e, r) in enumerate(zip(spec.eigenvalues, spec.radii)):
        if i < len(lower):
            assert e + r >= lower.eigenvalues[i] - lower.radii[i]
        if i < len(upper):
            assert e - r <= upper.eigenvalues[i] + upper.radii[i]


@EXAMPLES
@given(potentials(signed=False))
def test_moment_window(V):
    spec = solve_line(V)
    mean = riesz_mean(spec, 0.5)
    mass = V.integrate()
    if V.domain == HALF_LINE:
        # the Neumann states are the even states of the even extension,
        # whose mass is 2 int V
        assert mean.value - mean.error <= mass
    else:
        assert 0.25 * mass <= mean.value + mean.error
        assert mean.value - mean.error <= 0.5 * mass


def test_half_line_well_is_even_part_of_whole():
    # Neumann at 0 keeps the even states of the mirrored well
    spec = solve_line(SquareWell(3.0, 0.0, 2.0, domain="half_line"))
    even = square_well_line_levels(3.0, 2.0)[::2]
    assert len(spec) == len(even) == 2
    for e, r, x in zip(spec.eigenvalues, spec.radii, even):
        assert abs(e - x) <= r + 1e-13


def test_many_oscillations():
    # 64 bound states: the Pruefer count has to follow 20 turns of the
    # angle inside one piece
    spec = solve_line(SquareWell(400.0, -5.0, 5.0))
    exact = square_well_line_levels(400.0, 5.0)
    assert len(spec) == len(exact) == 64
    for e, r, x in zip(spec.eigenvalues, spec.radii, exact):
        assert abs(e - x) <= max(r, 1e-11)


def test_state_budget(monkeypatch):
    # 64 states below -10 tol: a budget of 63 refuses the well at once
    V = SquareWell(400.0, -5.0, 5.0)
    monkeypatch.setattr(sturm, "EXACT_STATES_MAX", 64)
    assert len(solve_line(V)) == 64
    monkeypatch.setattr(sturm, "EXACT_STATES_MAX", 63)
    sturm._solve_exact.cache_clear()  # the memo would serve the first solve
    with pytest.raises(SolverError, match="64 states below -1e-05 pass the "
                                          "budget of 63"):
        solve_line(V)


def test_memo_keys_on_step_content():
    # a fresh potential with the same steps, bit for bit, is served the
    # same frozen Spectrum; another tolerance is another entry
    V = random_piecewise(1)
    spec = solve_line(V)
    assert solve_line(V.amplified(0.5).amplified(2.0)) is spec
    fine = solve_line(V, tol=1e-9)
    assert fine is not spec and solve_line(V, tol=1e-9) is fine
    info = sturm._solve_exact.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_memo_keeps_no_failure(monkeypatch):
    # a SolverError is raised again on the second call, not remembered
    V = SquareWell(400.0, -5.0, 5.0)
    monkeypatch.setattr(sturm, "EXACT_STATES_MAX", 63)
    for _ in range(2):
        with pytest.raises(SolverError, match="budget of 63"):
            solve_line(V)
    info = sturm._solve_exact.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


@pytest.mark.parametrize("seed", [1, 7])
def test_even_split_solves_once(seed):
    # V and its even split's shares (V/2 amplified by 2) have the same
    # steps, so the Ky Fan check shoots one spectrum for all three
    V = random_piecewise(seed)
    half = V.amplified(0.5)
    verify_splitting(V, Splitting(theta=0.5, V0=half, V1=half, N=1), 6)
    info = sturm._solve_exact.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("seed", range(1, 21))
def test_each_energy_shot_once_per_solve(monkeypatch, seed):
    # N(E) and g(E) come from one shot, and find_root's bracket ends from
    # the bisection's shots: on the line, the half line and every finite
    # partition interval, no run of the body past the memo shoots an
    # energy twice
    V = random_piecewise(seed)
    half = random_piecewise(seed, domain="half_line")
    bp = build_partition(half).breakpoints
    solves = [(sturm._line_steps(V), (False, False)),
              (sturm._line_steps(half), (True, False))]
    solves += [(tuple(piece_steps(half.pieces(), a, b)), (True, True))
               for a, b in zip(bp, bp[1:]) if math.isfinite(b)]
    shoot = sturm._shoot
    for steps, ends in solves:
        energies = []

        def spy(steps, E, ends):
            energies.append(E)
            return shoot(steps, E, ends)

        monkeypatch.setattr(sturm, "_shoot", spy)
        sturm._solve_exact.__wrapped__(steps, ends, sturm.SOLVER_TOL)
        assert len(set(energies)) == len(energies) > 0


@pytest.mark.parametrize("v, w", [(2.0, 1.0), (10.0, 1.0), (50.0, 1.0),
                                  (4.0, 0.5)])
def test_bracket_widens_from_one_float(monkeypatch, v, w):
    # at EXACT_RTOL = 1e-300 the first bracket around each Brent root is
    # the root alone, of radius 0, where g shows no sign change: it must
    # widen tenfold until g changes sign, and then hold the exact level
    import mpmath as mp

    monkeypatch.setattr(sturm, "EXACT_RTOL", 1e-300)
    V = SquareWell(v, -w, w)
    steps = sturm._line_steps(V)
    spec = solve_line(V)
    exact = square_well_line_levels_mp(v, w)
    assert len(spec) == len(exact) > 0
    for e, r, x in zip(spec.eigenvalues, spec.radii, exact):
        lo, hi = e - r, e + r
        assert 0.0 < r < 1e-13 * abs(e)
        assert sturm._shoot(steps, lo, (False, False))[1] \
            * sturm._shoot(steps, hi, (False, False))[1] <= 0.0
        assert mp.mpf(lo) <= x <= mp.mpf(hi)


def test_tunnelling_pair_below_rounding():
    # two wells 200 apart: the pair splitting e^{-kappa 200} is far below
    # rounding, so both states share one bracket instead of failing, and
    # the long hyperbolic step must not overflow
    V = PiecewiseConstant([-101.0, -100.0, 100.0, 101.0], [50.0, 0.0, 50.0])
    spec = solve_line(V)
    assert len(spec) % 2 == 0
    for i in range(0, len(spec), 2):
        assert spec.eigenvalues[i] == spec.eigenvalues[i + 1]
        assert spec.radii[i] < 1e-10 * abs(spec.eigenvalues[i])
    single = solve_line(PiecewiseConstant([-0.5, 0.5], [50.0]))
    assert len(spec) == 2 * len(single)
    for i, (one, r) in enumerate(zip(single.eigenvalues, single.radii)):
        assert abs(spec.eigenvalues[2 * i] - one) <= spec.radii[2 * i] + r


def test_piece_steps_cut_at_both_ends():
    # a piece across a or b is cut there, one past b is dropped, and free
    # steps fill the rest
    pieces = [(-1.0, 1.0, 2.0), (1.0, 3.0, 5.0), (4.0, 6.0, 1.0)]
    assert piece_steps(pieces, 0.5, 2.0) == [(0.5, 2.0), (1.0, 5.0)]
    assert piece_steps(pieces, 0.0, 3.5) == \
        [(1.0, 2.0), (2.0, 5.0), (0.5, 0.0)]
    assert piece_steps(pieces, 3.5, 5.0) == [(0.5, 0.0), (1.0, 1.0)]


def test_neumann_interval_shot_at_tol_as_given(monkeypatch):
    # with pieces() and Neumann ends no FD matrix is built and tol is not
    # raised across jumps.  Jumps of 2e4 on [0, 2000], whose FD floor no
    # tolerance covers, are shot to a relative 1e-10; the spike's state
    # near -5.237e-3 is resolved at tol 1e-4 and, in [-10 tol, 0) at tol
    # 1e-3, one near-threshold state
    def refuse(*args):
        raise AssertionError("FD eigensolve on a Neumann piece list")

    monkeypatch.setattr(sturm, "_negative_eigs", refuse)
    spec = solve_interval(SquareWell(1e4, 0.0, 1e-6), (0.0, 2000.0))
    assert len(spec) == 1 and spec.radii[0] < 1e-10 * abs(spec.eigenvalues[0])
    V = PiecewiseConstant([4.0, 4.05], [1.0])
    (ground,) = prufer_neumann_levels(V, 0.0, 10.0)
    fine = solve_interval(V, (0.0, 10.0), tol=1e-4)
    assert (len(fine), fine.near_threshold) == (1, 0)
    assert abs(fine.eigenvalues[0] - ground) <= fine.radii[0] + 1e-10
    coarse = solve_interval(V, (0.0, 10.0), tol=1e-3)
    assert (len(coarse), coarse.near_threshold, coarse.threshold) \
        == (0, 1, 1e-2)


#: the FD first Richardson step's radius leaves out the eigensolver's
#: rounding, which reaches 2.4e-10 on the jump-free intervals below (the
#: raw values of a constant V stray from -V by up to about 1e-10)
FD_FIRST_STEP_ROUNDING = 1e-9


@pytest.mark.parametrize("seed", range(1, 21))
def test_neumann_intervals_against_fd_and_prufer(seed):
    # every proper partition interval of both halves holds one state: its
    # exact value lies in the FD enclosure of the same piece list without
    # pieces() (across jumps with no allowance beyond FD's own radius) and
    # matches the piecewise Pruefer oracle
    V = random_piecewise(seed)
    count = 0
    for side in (-1, 1):
        half = V.half_view(side)
        part = build_partition(half)
        for k in part.finite_indices():
            a, b = part.breakpoints[k:k + 2]
            spec = interval_spectrum(half, part, k)
            (e,), (r,) = spec.eigenvalues, spec.radii
            W = FDOnly(half)
            fd = solve_interval(W, (a, b), "neumann")
            (f,), (rf,) = fd.eigenvalues, fd.radii
            slack = 0.0 if sturm._jump_sum(W, a, b) > 0.0 \
                else FD_FIRST_STEP_ROUNDING
            assert abs(e - f) <= r + rf + slack
            (exact,) = prufer_neumann_levels(half, a, b)
            assert abs(e - exact) <= r + 1e-10
            count += 1
    assert count > 0


@pytest.mark.parametrize("q", [2.5, -1.5, 0.0])
def test_scattering_steps_share_the_formula(q):
    # the transfer matrix of one step is the step's entries, bit for bit:
    # piece_step_array's in the batched product, piece_step's in the oracle
    M = [float(m[0]) for m in _transfer(([0.7], [q - 0.25], [0.0]),
                                         np.array([0.5]))]
    assert M == [float(m[0]) for m in piece_step_array([0.7], [q])]
    assert transfer_exact([(0.7, q - 0.25)], 0.5) == piece_step(0.7, q)


@EXAMPLES
@given(V=piece_lists("full_line", signed=True), k=st.floats(0.01, 30.0))
def test_scalar_transfer_matches_matrix_product(V, k):
    # the scalar oracle against numpy's 2x2 products of piece_step
    steps = piece_steps(V.pieces(), -5.0, 5.0)
    M = np.eye(2)
    for d, v in steps:
        M = np.array(piece_step(d, k * k + v)).reshape(2, 2) @ M
    scalar = np.array(transfer_exact(steps, k))
    assert np.max(np.abs(scalar - M.ravel())) <= 1e-12 * np.max(np.abs(M))


@st.composite
def step_lists(draw):
    """1-6 (length, v) steps: signed values, exact zeros (free steps) and
    deep narrow wells."""
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["signed", "free", "deep"]))
        if kind == "deep":
            steps.append((draw(st.floats(1e-4, 0.05)),
                          draw(st.floats(1e2, 1e6))))
        else:
            v = 0.0 if kind == "free" else draw(st.floats(-20.0, 50.0))
            steps.append((draw(st.floats(0.01, 2.0)), v))
    return steps


@EXAMPLES
@given(steps=step_lists(),
       ks=st.lists(st.floats(0.01, 30.0), min_size=1, max_size=8),
       shear=st.booleans())
def test_batched_transfer_matches_scalar_oracle(steps, ks, shear):
    # one batched product over all ks against the oracle one k at a time;
    # a barrier is a rotation at some k and hyperbolic at others, and with
    # shear one step has k^2 + v == 0 exactly at the first k
    if shear:
        steps = [*steps, (0.5, -(ks[0] * ks[0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lengths, values = np.transpose(steps)
        batched = np.array(_transfer((lengths, values, np.zeros_like(lengths)),
                                     np.array(ks)))
    for j, k in enumerate(ks):
        M = np.array(transfer_exact(steps, k))
        assert np.max(np.abs(batched[:, j] - M)) <= 1e-12 * np.max(np.abs(M))
