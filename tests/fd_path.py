"""A piecewise-constant potential that hides its pieces().

solve_line solves a potential with pieces() exactly by shooting; the same
piece list without pieces() takes the finite-difference (FD) path.  The
tests use it to keep that path covered on jump potentials and as an
independent check of the exact values.
"""

from lt_spectral.potential import PiecewiseConstant


class FDOnly(PiecewiseConstant):
    """V's piece list with pieces() None, on V's domain."""

    def __init__(self, V: PiecewiseConstant):
        super().__init__(V.breakpoints, V.values, V.domain)

    def pieces(self):
        return None
