"""Canonical harmonic maps attached to a pair of boundary vortices.

The problem has exactly two degree-one vortices a_1 = e^{i s_1},
a_2 = e^{i s_2} on the unit circle; :class:`VortexConfig` holds nothing
else.  The canonical harmonic map on the disk is

    M(x; a) = (x - a_1)(x - a_2) |a_1 - a_2| / (|x - a_1| |x - a_2| (a_1 - a_2)),

a unit-modulus field tangent to the boundary away from the vortices.  On
a conformal image Omega = Phi(B_1) it is pushed forward by the phase of
Phi', at disk points (``pushforward_disk``).  The multivalued harmonic
lifting phi* of M is never materialized; ``grad_phistar`` evaluates its
single-valued analytic gradient

    grad phi*(x) = (x - a_1)^perp / |x - a_1|^2 + (x - a_2)^perp / |x - a_2|^2

term by term (v^perp rotates v by +90 degrees).  It serves as the
reference for the closed form of |grad phi*|^2 that
``renorm.punctured_energy`` integrates.

A pair is degenerate when its angular separation on the circle is below
``DEGENERACY_GUARD``; :attr:`VortexConfig.is_degenerate` is the one test
for it.  ``canonical_map_disk`` raises on a degenerate pair, while the
energy evaluators return +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularityError
from .geom import TWO_PI, ConformalDomain

# evaluation closer than this to a vortex is treated as singular
SINGULARITY_GUARD = 1e-12

# vortex pairs closer than this angle on the circle are degenerate
DEGENERACY_GUARD = 1e-9


@dataclass(frozen=True)
class VortexConfig:
    """The angles (s_1, s_2) of two degree-one boundary vortices.

    The angles are stored modulo 2 pi.  Coincident angles are allowed
    to exist (they mark a degenerate, infinite-energy configuration)
    but are rejected by operations that need distinct vortices.
    """

    angles: tuple

    def __post_init__(self):
        angles = tuple(float(s) % TWO_PI for s in self.angles)
        if len(angles) != 2:
            raise ConfigurationError(
                f"exactly two vortex angles are required, got {len(angles)}")
        if not all(np.isfinite(angles)):
            raise ConfigurationError("vortex angles must be finite")
        object.__setattr__(self, "angles", angles)

    @staticmethod
    def pair(s1: float, s2: float) -> "VortexConfig":
        """Two degree-one vortices at angles (s1, s2)."""
        return VortexConfig(angles=(s1, s2))

    @property
    def positions(self) -> np.ndarray:
        """Vortex positions a_j = e^{i s_j} on the unit circle."""
        return np.exp(1j * np.asarray(self.angles))

    @property
    def is_degenerate(self) -> bool:
        """True when the angular separation is below ``DEGENERACY_GUARD``."""
        sep = abs(self.angles[0] - self.angles[1])
        return min(sep, TWO_PI - sep) < DEGENERACY_GUARD

    def canonical_order(self) -> "VortexConfig":
        """Copy with angles sorted ascending (label-exchange normal form)."""
        return VortexConfig(angles=tuple(sorted(self.angles)))


def _guard_singularities(*distances: np.ndarray) -> None:
    """Raise if any distance to a vortex is below ``SINGULARITY_GUARD``."""
    if any(np.any(d < SINGULARITY_GUARD) for d in distances):
        raise SingularityError("evaluation point within guard radius of a vortex")


def canonical_map_disk(config: VortexConfig, x, out=None, work=None) -> np.ndarray:
    """Canonical harmonic map M(x; a) on the unit disk.

    Parameters
    ----------
    config : VortexConfig
        Two distinct degree-one vortices; a degenerate pair raises
        :class:`ConfigurationError`.
    x : complex scalar or array
        Evaluation points in the closed disk, away from the vortices.
    out, work : arrays of the shape of ``x``, optional
        ``out`` (complex, not ``x`` itself) receives M, and ``work``
        (complex, real, real) receives x - a_2, |x - a_1| and |x - a_2|.

    Returns
    -------
    Complex array of unit modulus shaped like ``x``: ``out`` when given.
    """
    if config.is_degenerate:
        raise ConfigurationError("coincident vortex angles are degenerate")
    x = np.asarray(x, dtype=complex)
    a1, a2 = config.positions
    d2_out, r_out, r2_out = (None, None, None) if work is None else work
    m, d2 = np.subtract(x, a1, out=out), np.subtract(x, a2, out=d2_out)
    r, r2 = np.abs(m, out=r_out), np.abs(d2, out=r2_out)
    _guard_singularities(r, r2)
    # in place, with one complex constant |a1 - a2| / (a1 - a2) and a real
    # reciprocal: no complex division per point
    m *= d2
    m *= abs(a1 - a2) / (a1 - a2)
    r *= r2
    m *= np.divide(1.0, r, out=r_out)
    return m


def pushforward_disk(domain: ConformalDomain, config: VortexConfig, z) -> np.ndarray:
    """M_*(Phi(z)) = M(z; a) Phi'(z) / |Phi'(z)|, at disk points z.

    For the disk Phi' = 1 exactly, and M itself comes back bitwise.
    """
    m = canonical_map_disk(config, z)
    dphi = domain.dforward(z)
    return m * dphi / np.abs(dphi)


def grad_phistar(config: VortexConfig, x):
    """Gradient of the harmonic lifting, sum_j (x - a_j)^perp / |x - a_j|^2.

    The sum runs over the two vortices; the lifting itself is multivalued
    and never formed.  Returns a pair (gx, gy) of real arrays.
    """
    x = np.asarray(x, dtype=complex)
    _guard_singularities(*(np.abs(x - a) for a in config.positions))
    gx = np.zeros(x.shape, dtype=float)
    gy = np.zeros(x.shape, dtype=float)
    for a in config.positions:
        vx = x.real - a.real
        vy = x.imag - a.imag
        r2 = vx * vx + vy * vy
        gx -= vy / r2
        gy += vx / r2
    return gx, gy
