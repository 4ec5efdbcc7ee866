"""The Ky-Fan splitting check: index identity and eigenvalue bound.

Splitting -d^2/dx^2 - V into H0 = -theta d^2/dx^2 - V0 and
H1 = -(1-theta) d^2/dx^2 - V1 (V = V0 + V1, theta in (0,1)) gives the Ky-Fan
bound |E_{m+n-1}(H)| <= |E_n(H0)| + |E_m(H1)|.  The source indices

    s(k) = 1 + floor(k/(N+1)),    l(k) = N floor(k/(N+1)) + (k mod (N+1)),

satisfy s(k) + l(k) - 1 = k, so E_k(H) <= E_s(H0) + E_l(H1), each index
of H0 reused at most N+1 times and each of H1 at most 1 + 1/N times on
average.  That multiplicity control is what turns the two one-sided moment
bounds into a bound on the moment sum of H itself; constants.m_factor
minimizes it in closed form.

No command reads this module.  It stays in the package because the
benchmark's piecewise workload runs verify_splitting; once the benchmark
drops that operation (ROADMAP item 1) it can move to the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .potential import Potential
from .sturm import SOLVER_TOL, Spectrum, solve_line


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
    N: int

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError("N must be a positive integer")


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


def _solve_share(V: Potential, share: float, tol: float) -> Spectrum:
    """Spectrum of -share*u'' - V u, realized by scaling the potential.

    Dividing the equation by share shows the eigenvalues are share times
    those of the unit-kinetic operator with potential V/share.
    """
    inner = solve_line(V.amplified(1.0 / share), tol=tol)
    return Spectrum(tuple(share * e for e in inner.eigenvalues),
                    tuple(share * r for r in inner.radii),
                    inner.near_threshold, share * inner.threshold)


def verify_splitting(V: Potential, split: Splitting, k_max: int,
                     tol: float = SOLVER_TOL) -> dict:
    """Check |E_k(H)| <= |E_s(H0)| + |E_l(H1)| for k <= k_max, radii
    folded in, with (s, l) = split_indices(k, N) and zero padding: the
    Ky-Fan input at m + n - 1 = k with eigenvalue magnitudes written out.

    Returns {"ok", "margins"}; ok is False when a margin is negative, a
    violation beyond the certified error.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not (V.is_nonnegative() and split.V0.is_nonnegative()
            and split.V1.is_nonnegative()):
        raise ValueError("V, V0, V1 must all be nonnegative")
    spec = solve_line(V, tol=tol)
    spec0 = _solve_share(split.V0, split.theta, tol)
    spec1 = _solve_share(split.V1, 1.0 - split.theta, tol)
    margins = []
    for k in range(1, k_max + 1):
        s, l = split_indices(k, split.N)
        e_k = _padded(spec, k)
        r_k = _padded_radius(spec, k)
        r_a = _padded_radius(spec0, s)
        r_b = _padded_radius(spec1, l)
        bound = abs(_padded(spec0, s)) + abs(_padded(spec1, l))
        margins.append(bound + r_a + r_b - (abs(e_k) - r_k))
    return {"ok": not any(m < 0.0 for m in margins),
            "margins": tuple(margins)}
