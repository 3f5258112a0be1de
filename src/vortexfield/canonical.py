"""Canonical harmonic maps attached to a pair of boundary vortices.

The problem has exactly two degree-one vortices a_1 = e^{i s_1},
a_2 = e^{i s_2} on the unit circle; :class:`VortexConfig` holds nothing
else.  The canonical harmonic map on the disk is

    M(x; a) = (x - a_1)(x - a_2) |a_1 - a_2| / (|x - a_1| |x - a_2| (a_1 - a_2)),

a unit-modulus field tangent to the boundary away from the vortices.  On
a conformal image Omega = Phi(B_1) it is pushed forward by the phase of
Phi', at disk points (``pushforward_disk``).

A pair is degenerate when its angular separation on the circle is below
``DEGENERACY_GUARD``; :attr:`VortexConfig.is_degenerate` is the one test
for it.  ``canonical_map_disk`` raises on a degenerate pair, while the
energy evaluators return +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularityError
from .geom import ConformalDomain, circle_distance, wrap

# evaluation closer than this to a vortex is treated as singular
SINGULARITY_GUARD = 1e-12

# vortex pairs closer than this angle on the circle are degenerate
DEGENERACY_GUARD = 1e-9


@dataclass(frozen=True)
class VortexConfig:
    """The angles (s_1, s_2) of two degree-one boundary vortices.

    The angles are stored in [0, 2 pi) (``geom.wrap``).  They may
    coincide (a degenerate, infinite-energy configuration), but
    operations that need distinct vortices reject that.
    """

    angles: tuple

    def __post_init__(self):
        angles = tuple(wrap(float(s)) for s in self.angles)
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
        return circle_distance(*self.angles) < DEGENERACY_GUARD

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
        (complex, real, real) receives x - a_2, the modulus of the
        product (x - a_1)(x - a_2) and, near a vortex only, the distances.

    Returns
    -------
    Complex array of unit modulus shaped like ``x``: ``out`` when given.
    """
    if config.is_degenerate:
        raise ConfigurationError("coincident vortex angles are degenerate")
    x = np.asarray(x, dtype=complex)
    a1, a2 = config.positions
    d2_out, r_out, dist_out = (None, None, None) if work is None else work
    m, d2 = np.subtract(x, a1, out=out), np.subtract(x, a2, out=d2_out)
    # in place, with one complex constant |a1 - a2| / (a1 - a2), one modulus
    # and a real reciprocal: no complex division per point
    m *= d2
    m *= abs(a1 - a2) / (a1 - a2)
    r = np.abs(m, out=r_out)
    # |x - a_j| <= 2 in the closed disk, so a distance below the guard puts
    # the product's modulus below twice the guard (16 ulp cover the rounding);
    # only then is each distance formed and checked
    if r.min(initial=np.inf) < 2.0 * SINGULARITY_GUARD * (1.0 + 16.0 * np.finfo(float).eps):
        for a in (a1, a2):
            _guard_singularities(np.abs(np.subtract(x, a, out=d2_out), out=dist_out))
    m *= np.divide(1.0, r, out=r_out)
    return m


def pushforward_disk(domain: ConformalDomain, config: VortexConfig, z) -> np.ndarray:
    """M_*(Phi(z)) = M(z; a) Phi'(z) / |Phi'(z)|, at disk points z.

    For the disk Phi' = 1 exactly, and M itself comes back bitwise.
    """
    m = canonical_map_disk(config, z)
    dphi = domain.dforward(z)
    return m * dphi / np.abs(dphi)
