"""A piecewise-constant potential that hides its pieces().

solve_line and solve_interval (with Neumann ends) solve a potential with
pieces() exactly by shooting; the same piece list without pieces() takes
the finite-difference (FD) path.  The tests use it to keep that path
covered on jump potentials and as an independent check of the exact
values.
"""

from lt_spectral.potential import PiecewiseConstant


class FDOnly(PiecewiseConstant):
    """V's piece list with pieces() None, on V's domain; V is any potential
    with a nonempty pieces(), a half view or a sum as well."""

    def __init__(self, V):
        pieces = V.pieces()
        super().__init__([pieces[0][0]] + [b for _, b, _ in pieces],
                         [v for _, _, v in pieces], V.domain)

    def pieces(self):
        return None
