"""Eigenvalue-sequence interleaving for operator splittings.

Splitting -d^2/dx^2 - V into H0 = -theta d^2/dx^2 - V0 and
H1 = -(1-theta) d^2/dx^2 - V1 (V = V0 + V1, theta in (0,1)) gives the Ky-Fan
bound |E_{m+n-1}(H)| <= |E_n(H0)| + |E_m(H1)|.  Distributing the indices as

    s(k) = 1 + floor(k/(N+1)),    l(k) = N floor(k/(N+1)) + (k mod (N+1)),

which satisfy s(k) + l(k) - 1 = k, interleaves the two spectra into
sequences a_k = E_s(H0), b_k = E_l(H1) with E_k(H) <= a_k + b_k, each source
index reused at most N+1 (resp. 1 + 1/N) times.  That multiplicity control
is what turns the two one-sided moment bounds into a bound on the moment sum
of H itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import constants_row
from .potential import Potential
from .sturm import SOLVER_TOL, Spectrum, riesz_mean, solve_line


def split_indices(k: int, N: int) -> tuple[int, int]:
    """(s, l) source indices for target index k >= 1; s + l - 1 = k."""
    if k < 1 or N < 1:
        raise ValueError("k and N must be positive integers")
    q, r = divmod(k, N + 1)
    return 1 + q, N * q + r


@dataclass(frozen=True)
class Splitting:
    """A decomposition H = H0 + H1 with kinetic shares theta, 1 - theta."""

    theta: float
    V0: Potential
    V1: Potential
    N: float
    p0: float = 0.5
    p1: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if self.N <= 0:
            raise ValueError("N must be positive")
        n = self.N if self.N >= 1.0 else 1.0 / self.N
        if abs(n - round(n)) > 1e-12:
            raise ValueError("N or 1/N must be a positive integer")
        if min(self.p0, self.p1) < 0.5:
            raise ValueError("exponents below 1/2 are not admissible here")


@dataclass(frozen=True)
class InterleavedSequences:
    """a_k = E_{s(k)}(H0) and b_k = E_{l(k)}(H1), zero-padded."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    s_index: tuple[int, ...]
    l_index: tuple[int, ...]

    def __post_init__(self):
        if any(x > 0 for x in self.a) or any(x > 0 for x in self.b):
            raise ValueError("sequence entries must be <= 0")
        for pos, (s, l) in enumerate(zip(self.s_index, self.l_index)):
            if s + l - 1 != pos + 1:
                raise ValueError("index identity s + l - 1 = k violated")

    def __len__(self):
        return len(self.a)


def _padded(spec: Spectrum, index: int) -> float:
    """index-th eigenvalue (1-based), or 0 beyond the negative spectrum."""
    if 1 <= index <= len(spec.eigenvalues):
        return spec.eigenvalues[index - 1]
    return 0.0


def _padded_radius(spec: Spectrum, index: int) -> float:
    if 1 <= index <= len(spec.eigenvalues):
        return spec.radii[index - 1]
    # an unresolved near-threshold state may hide below the padding zero
    return spec.threshold if spec.near_threshold else 0.0


def build_interleaving(spec0: Spectrum, spec1: Spectrum, N: int,
                       k_max: int) -> InterleavedSequences:
    """Interleave two spectra along the index formulas, k = 1 .. k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if N < 1 or N != int(N):
        raise ValueError("N must be a positive integer (swap roles for 1/N)")
    s_idx, l_idx, a, b = [], [], [], []
    for k in range(1, k_max + 1):
        s, l = split_indices(k, int(N))
        s_idx.append(s)
        l_idx.append(l)
        a.append(_padded(spec0, s))
        b.append(_padded(spec1, l))
    return InterleavedSequences(tuple(a), tuple(b), tuple(s_idx),
                                tuple(l_idx))


def _solve_share(V: Potential, share: float, tol: float) -> Spectrum:
    """Spectrum of -share*u'' - V u, realized by scaling the potential.

    Dividing the equation by share shows the eigenvalues are share times
    those of the unit-kinetic operator with potential V/share.
    """
    inner = solve_line(V.amplified(1.0 / share), tol=tol)
    return Spectrum(tuple(share * e for e in inner.eigenvalues),
                    tuple(share * r for r in inner.radii),
                    inner.near_threshold, share * inner.threshold)


def _moment_factor(p: float, share: float, N_factor: float):
    """(1 + N) * share^(-1/2) * L_p for one side of the K-bound display."""
    try:
        L = constants_row(p).L_best
    except ValueError:
        return None
    return N_factor * L / math.sqrt(share)


def verify_splitting(V: Potential, split: Splitting, k_max: int,
                     tol: float = SOLVER_TOL) -> dict:
    """Check |E_k(H)| <= |a_k| + |b_k| for k <= k_max, radii folded in.

    This is the splitting inequality with eigenvalue magnitudes written out;
    for the negative eigenvalues at hand it is the content of the Ky-Fan
    input |E_{m+n-1}(H)| <= |E_n(H0)| + |E_m(H1)| at m + n - 1 = k.

    Returns a report with the three spectra, the interleaved sequences, the
    per-k margins, and the moment-sum factors (1+N) share^(-1/2) L_p of the
    two sides.  A violation beyond the certified error marks ok = False.
    """
    if not (V.is_nonnegative() and split.V0.is_nonnegative()
            and split.V1.is_nonnegative()):
        raise ValueError("V, V0, V1 must all be nonnegative")
    spec = solve_line(V, tol=tol)
    spec0 = _solve_share(split.V0, split.theta, tol)
    spec1 = _solve_share(split.V1, 1.0 - split.theta, tol)
    if split.N >= 1.0:
        N = int(round(split.N))
        seqs = build_interleaving(spec0, spec1, N, k_max)
    else:
        # fractional N = 1/m: interchange the roles of the two operators
        N = int(round(1.0 / split.N))
        swapped = build_interleaving(spec1, spec0, N, k_max)
        seqs = InterleavedSequences(swapped.b, swapped.a, swapped.l_index,
                                    swapped.s_index)
    margins = []
    ok = True
    for k in range(1, k_max + 1):
        e_k = _padded(spec, k)
        r_k = _padded_radius(spec, k)
        r_a = _padded_radius(spec0, seqs.s_index[k - 1])
        r_b = _padded_radius(spec1, seqs.l_index[k - 1])
        bound = abs(seqs.a[k - 1]) + abs(seqs.b[k - 1])
        margin = bound + r_a + r_b - (abs(e_k) - r_k)
        margins.append(margin)
        if margin < 0.0:
            ok = False
    N_big = split.N if split.N >= 1.0 else 1.0 / split.N
    report = {
        "ok": ok,
        "margins": tuple(margins),
        "spectrum": spec,
        "spectrum0": spec0,
        "spectrum1": spec1,
        "sequences": seqs,
        "factor0": _moment_factor(split.p0, split.theta, 1.0 + split.N),
        "factor1": _moment_factor(split.p1, 1.0 - split.theta,
                                  1.0 + 1.0 / split.N),
        "moment0": riesz_mean(spec0, split.p0).value,
        "moment1": riesz_mean(spec1, split.p1).value,
        "N": N_big,
    }
    return report
