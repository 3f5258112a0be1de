"""Boundary-vortex energetics in thin ferromagnetic films.

Computes minimizing boundary-vortex positions and the associated unit
magnetization field on the unit disk and on conformal oval images, for a
constant in-plane external field, by evaluating and minimizing the
renormalized vortex interaction energy.
"""

from .canonical import VortexConfig, canonical_map_disk
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     SingularityError)
from .geom import ConformalDomain
from .micromag import (ExternalField, FixedPointReport, MagnetizationField,
                       SampleSpec, VectorFieldSample, magnetization_field,
                       minimize_g_descent, picard_solve, total_energy)
from .optimize import (LandscapeGrid, NelderMeadResult, energy_objective, grid_oracle,
                       landscape, nelder_mead)
from .poisson import (GridSpec, PolarField, singular_quadrature_1d, solve_dirichlet,
                      solver_for)
from .renorm import (EnergyBreakdown, g_functional, punctured_energy,
                     w0_conformal, w0_disk)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "ConformalDomain", "ConvergenceError", "DomainError",
    "EnergyBreakdown", "ExternalField", "FixedPointReport", "GridSpec",
    "LandscapeGrid", "MagnetizationField", "NelderMeadResult", "PolarField",
    "SampleSpec", "SingularityError", "VectorFieldSample", "VortexConfig",
    "canonical_map_disk", "energy_objective", "g_functional",
    "grid_oracle",
    "landscape", "magnetization_field", "minimize_g_descent", "nelder_mead",
    "picard_solve", "punctured_energy",
    "singular_quadrature_1d", "solve_dirichlet", "solver_for",
    "total_energy", "w0_conformal", "w0_disk",
]
