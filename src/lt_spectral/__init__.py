"""Certified numerical toolkit for critical-case spectral moment bounds of
one-dimensional Schrodinger operators -d^2/dx^2 - V with V >= 0."""

from .bracketing import (BracketingError, Partition, Theorem1Certificate,
                         build_partition, certify_theorem1,
                         interval_ground_bounds)
from .constants import (VARSIGMA_3, ConstantsRow, classical_constant,
                        constants_row, crossover, density_constants,
                        doublestar_constant, ggm_constant, lt_constant,
                        one_state_constant, star_constant, theta_fn,
                        theta_weight, varsigma)
from .numerics import (BracketError, DivergenceError, NumericsError,
                       find_root, integrate_de, minimize_1d)
from .potential import (Gaussian, PiecewiseConstant, PoschlTeller, Potential,
                        Sampled, SquareWell, Sum, Zero, from_json,
                        from_json_dict, load)
from .scattering import (ScatteringData, ScatteringError,
                         reflection_coefficient, sum_rule_residual,
                         theorem2_check)
from .sturm import (RieszMean, SolverError, Spectrum, riesz_mean,
                    solve_interval, solve_line)

__version__ = "1.0.0"

__all__ = [
    "BracketError", "BracketingError", "ConstantsRow", "DivergenceError",
    "Gaussian", "NumericsError", "Partition", "PiecewiseConstant",
    "PoschlTeller", "Potential", "RieszMean", "Sampled", "ScatteringData",
    "ScatteringError", "SolverError", "Spectrum", "SquareWell", "Sum",
    "Theorem1Certificate", "VARSIGMA_3", "Zero", "build_partition",
    "certify_theorem1", "classical_constant", "constants_row", "crossover",
    "density_constants", "doublestar_constant", "find_root", "from_json",
    "from_json_dict", "ggm_constant", "integrate_de",
    "interval_ground_bounds", "load", "lt_constant", "minimize_1d",
    "one_state_constant", "reflection_coefficient", "riesz_mean",
    "solve_interval", "solve_line", "star_constant", "sum_rule_residual",
    "theorem2_check", "theta_fn", "theta_weight", "varsigma",
]
