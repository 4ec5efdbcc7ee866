from collections import Counter

import pytest

from lt_spectral.cli import random_piecewise
from lt_spectral.constants import m_factor
from lt_spectral.kyfan import (Splitting, _padded, split_indices,
                               verify_splitting)
from lt_spectral.potential import (Gaussian, PoschlTeller, SquareWell, Zero)
from lt_spectral.sturm import Spectrum, riesz_mean


def _walk(spec, N, k_max, side):
    """E_{s(k)} (side 0) or E_{l(k)} (side 1) of spec for k = 1 .. k_max,
    zero past the negative spectrum: the sequence verify_splitting reads."""
    return tuple(_padded(spec, split_indices(k, N)[side])
                 for k in range(1, k_max + 1))


class TestSplitIndices:
    def test_pattern_n2(self):
        # s = 1 + floor(k/(N+1)) repeats each value N+1 times; l advances
        # by N across each block boundary
        got = [split_indices(k, 2) for k in range(1, 7)]
        assert got == [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4)]

    @pytest.mark.parametrize("N", range(1, 9))
    def test_identity_exhaustive(self, N):
        for k in range(1, 10001):
            s, l = split_indices(k, N)
            assert s + l - 1 == k
            assert s >= 1 and l >= 1

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_multiplicities(self, N):
        # each source index is reused at most N+1 times on the s side and
        # at most ceil((N+1)/N) times on the l side
        ks = range(1, 500)
        s_all = [split_indices(k, N)[0] for k in ks]
        l_all = [split_indices(k, N)[1] for k in ks]
        assert max(s_all.count(i) for i in set(s_all)) <= N + 1
        assert max(l_all.count(i) for i in set(l_all)) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            split_indices(0, 1)
        with pytest.raises(ValueError):
            split_indices(1, 0)


class TestSplittingValidation:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            Splitting(0.0, Zero(), Zero(), 1)
        with pytest.raises(ValueError):
            Splitting(1.0, Zero(), Zero(), 1)

    def test_n_integrality(self):
        # N is a positive int: 1/m, non-integers and N < 1 are refused
        assert Splitting(0.5, Zero(), Zero(), 3).N == 3
        for N in (1.0 / 3.0, 1.5, 2.0, 0, -2):
            with pytest.raises(ValueError):
                Splitting(0.5, Zero(), Zero(), N)


class TestInterleaving:
    def test_padding_beyond_spectrum(self):
        s0 = Spectrum((-4.0, -1.0), (0.0, 0.0))
        s1 = Spectrum((-2.0,), (0.0,))
        # s walks 1,2,2,3,3,4,4,5 and l walks 1,1,2,2,3,3,4,4
        assert _walk(s0, 1, 8, 0) == (-4.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0,
                                      0.0)
        assert _walk(s1, 1, 8, 1) == (-2.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                      0.0)


class TestCountingConsequence:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_moment_inflation(self, N, p):
        # each source eigenvalue appears at most (1+N) times among a_k, so
        # Sigma |a_k|^p <= (1+N) Sigma |E(H0)|^p
        s0 = Spectrum((-5.0, -3.0, -1.0, -0.25), (0.0,) * 4)
        s1 = Spectrum((-2.0, -0.5), (0.0,) * 2)
        lhs = sum(abs(a) ** p for a in _walk(s0, N, 40, 0))
        rhs = (1 + N) * riesz_mean(s0, p).value
        assert lhs <= rhs + 1e-12

    @staticmethod
    def _multiplicities(N):
        """Uses per source index of H0 and of H1, counted over one interior
        period of split_indices; for N = 1/m the roles are interchanged."""
        n = round(N if N >= 1 else 1 / N)
        s_uses, l_uses = Counter(), Counter()
        for k in range(1, 4 * (n + 1)):
            s, l = split_indices(k, n)
            s_uses[s] += 1
            l_uses[l] += 1
        # s = 2 fills one block of n + 1 targets; l = n .. 2n - 1 spans one
        # block's advance, its first index shared with the block before
        per_s = s_uses[2]
        per_l = sum(l_uses[i] for i in range(n, 2 * n)) / n
        return (per_s, per_l) if N >= 1 else (per_l, per_s)

    @pytest.mark.parametrize("eta", [1 / 9 + 7 / 9 * i / 40
                                     for i in range(41)], ids="{:.4f}".format)
    def test_m_factor_objective_counts_the_reuse(self, eta):
        # M(eta) = min over N of (1+N)^(1-eta) (1+1/N)^eta: the bases are
        # the reuse counts N + 1 and 1 + 1/N of the interleaving, and the
        # minimum beats every split N, 1/N <= 9 (N* = eta/(1-eta) in
        # [1/8, 8])
        M, N = m_factor(eta)
        m0, m1 = self._multiplicities(N)
        assert (m0, m1) == pytest.approx((1 + N, 1 + 1 / N), rel=1e-15)
        assert M == pytest.approx(m0 ** (1 - eta) * m1 ** eta, rel=1e-14)
        for n in list(range(1, 10)) + [1 / k for k in range(2, 10)]:
            a, b = self._multiplicities(n)
            assert M <= a ** (1 - eta) * b ** eta * (1 + 1e-14)


class TestVerifySplitting:
    def test_even_split_square_well(self):
        V = SquareWell(4.0, -1.0, 1.0)
        half = SquareWell(2.0, -1.0, 1.0)
        split = Splitting(0.5, half, half, 1)
        report = verify_splitting(V, split, k_max=6)
        assert report["ok"]
        assert all(m >= 0.0 for m in report["margins"])

    def test_poschl_teller_zero_partner(self):
        # V1 = 0 forces b_k = 0; the bound reduces to |E_k| <= |a_{s(k)}|
        V = PoschlTeller(2.0)
        split = Splitting(0.5, V, Zero(), 1)
        report = verify_splitting(V, split, k_max=4)
        assert report["ok"]

    def test_uneven_theta(self):
        V = SquareWell(4.0, -1.0, 1.0)
        split = Splitting(0.3, SquareWell(1.0, -1.0, 1.0),
                          SquareWell(3.0, -1.0, 1.0), 2)
        report = verify_splitting(V, split, k_max=6)
        assert report["ok"]

    def test_rejects_signed_inputs(self):
        with pytest.raises(ValueError):
            verify_splitting(Gaussian(-1.0),
                             Splitting(0.5, Zero(), Zero(), 1), 2)

    def test_rejects_empty_range(self):
        V = SquareWell(4.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            verify_splitting(V, Splitting(0.5, V, Zero(), 1), 0)


class TestBenchmarkContract:
    """The benchmark's piecewise workload runs verify_splitting with the
    even split theta = 1/2, V0 = V1 = V/2, N = 1, k_max = 6, and reads only
    ok and margins."""

    @pytest.mark.parametrize("V", [random_piecewise(s) for s in range(1, 21)]
                             + [SquareWell(v, -w, w) for v, w in
                                ((2.0, 1.0), (5.0, 0.5), (1.0, 2.0))],
                             ids=[f"seed{s}" for s in range(1, 21)]
                             + ["well0", "well1", "well2"])
    def test_even_split_passes(self, V):
        half = V.amplified(0.5)
        report = verify_splitting(V, Splitting(0.5, half, half, 1), 6)
        assert set(report) == {"ok", "margins"}
        assert len(report["margins"]) == 6
        assert report["ok"]
        assert all(m >= 0.0 for m in report["margins"])
