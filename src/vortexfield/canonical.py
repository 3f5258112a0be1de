"""Canonical harmonic maps attached to a pair of boundary vortices.

For two degree-one vortices a_1 = e^{i s_1}, a_2 = e^{i s_2} on the unit
circle, the canonical harmonic map on the disk is

    M(x; a) = (x - a_1)(x - a_2) |a_1 - a_2| / (|x - a_1| |x - a_2| (a_1 - a_2)),

a unit-modulus field tangent to the boundary away from the vortices.  On
a conformal image Omega = Phi(B_1) it is pushed forward by the phase of
Phi' (``pushforward_disk`` in disk coordinates, ``pushforward_map`` at
points of Omega).  The multivalued harmonic lifting phi* of M is never
materialized; only its single-valued analytic gradient

    grad phi*(x) = sum_j d_j (x - a_j)^perp / |x - a_j|^2

is used downstream (v^perp rotates v by +90 degrees).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SingularityError
from .geom import TWO_PI, ConformalDomain

# evaluation closer than this to a vortex is treated as singular
SINGULARITY_GUARD = 1e-12


@dataclass(frozen=True)
class VortexConfig:
    """Boundary vortex angles and multiplicities.

    The angles live on [0, 2 pi) (stored modulo 2 pi); multiplicities
    must sum to 2, the topological constraint for a boundary-tangent
    field on a simply connected domain.  Coincident angles are allowed
    to exist (they mark a degenerate, infinite-energy configuration)
    but are rejected by operations that need distinct vortices.
    """

    angles: tuple
    multiplicities: tuple = field(default=())

    def __post_init__(self):
        angles = tuple(float(s) % TWO_PI for s in self.angles)
        mult = self.multiplicities or (1,) * len(angles)
        mult = tuple(int(d) for d in mult)
        if len(mult) != len(angles):
            raise ConfigurationError("one multiplicity per angle is required")
        if len(angles) == 0:
            raise ConfigurationError("at least one vortex is required")
        if not all(np.isfinite(angles)):
            raise ConfigurationError("vortex angles must be finite")
        if any(d == 0 for d in mult):
            raise ConfigurationError("multiplicities must be nonzero")
        if sum(mult) != 2:
            raise ConfigurationError(
                f"multiplicities must sum to 2, got {sum(mult)}"
            )
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "multiplicities", mult)

    @staticmethod
    def pair(s1: float, s2: float) -> "VortexConfig":
        """Two degree-one vortices at angles (s1, s2)."""
        return VortexConfig(angles=(s1, s2), multiplicities=(1, 1))

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def positions(self) -> np.ndarray:
        """Vortex positions a_j = e^{i s_j} on the unit circle."""
        return np.exp(1j * np.asarray(self.angles))

    @property
    def is_degenerate(self) -> bool:
        """True when two vortex angles coincide modulo 2 pi."""
        a = self.positions
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if abs(a[i] - a[j]) < SINGULARITY_GUARD:
                    return True
        return False

    def canonical_order(self) -> "VortexConfig":
        """Copy with angles sorted ascending (label-exchange normal form)."""
        order = np.argsort(self.angles, kind="stable")
        return VortexConfig(
            angles=tuple(self.angles[i] for i in order),
            multiplicities=tuple(self.multiplicities[i] for i in order),
        )

    def require_simple_pair(self) -> None:
        """Reject anything but two distinct degree-one vortices."""
        if self.n != 2 or self.multiplicities != (1, 1):
            raise ConfigurationError(
                "only N = 2 vortices with multiplicities (1, 1) are supported here"
            )
        if self.is_degenerate:
            raise ConfigurationError("coincident vortex angles are degenerate")


def _guard_singularities(x: np.ndarray, positions: np.ndarray) -> None:
    for a in positions:
        if np.any(np.abs(x - a) < SINGULARITY_GUARD):
            raise SingularityError("evaluation point within guard radius of a vortex")


def canonical_map_disk(config: VortexConfig, x) -> np.ndarray:
    """Canonical harmonic map M(x; a) on the unit disk.

    Parameters
    ----------
    config : VortexConfig
        Exactly two degree-one vortices.
    x : complex scalar or array
        Evaluation points in the closed disk, away from the vortices.

    Returns
    -------
    Complex array of unit modulus with the same shape as ``x``.
    """
    config.require_simple_pair()
    x = np.asarray(x, dtype=complex)
    a1, a2 = config.positions
    _guard_singularities(x, config.positions)
    num = (x - a1) * (x - a2) * abs(a1 - a2)
    den = np.abs(x - a1) * np.abs(x - a2) * (a1 - a2)
    return num / den


def pushforward_disk(domain: ConformalDomain, config: VortexConfig, z) -> np.ndarray:
    """M_*(Phi(z)) = M(z; a) Phi'(z) / |Phi'(z)|, at disk points z.

    For the disk the correction factor is 1 and M itself is returned.
    """
    m = canonical_map_disk(config, z)
    if domain.is_disk:
        return m
    dphi = domain.dforward(z)
    return m * dphi / np.abs(dphi)


def pushforward_map(domain: ConformalDomain, config: VortexConfig, w) -> np.ndarray:
    """Canonical map M_* on Omega = Phi(B_1), at points w of Omega."""
    return pushforward_disk(domain, config, domain.inverse(w))


def grad_phistar(config: VortexConfig, x):
    """Gradient of the harmonic lifting, sum_j d_j (x - a_j)^perp / |x - a_j|^2.

    Valid for any multiplicity vector summing to 2; the lifting itself is
    multivalued and never formed.  Returns a pair (gx, gy) of real arrays.
    """
    x = np.asarray(x, dtype=complex)
    _guard_singularities(x, config.positions)
    gx = np.zeros(x.shape, dtype=float)
    gy = np.zeros(x.shape, dtype=float)
    for a, d in zip(config.positions, config.multiplicities):
        vx = x.real - a.real
        vy = x.imag - a.imag
        r2 = vx * vx + vy * vy
        gx += d * (-vy) / r2
        gy += d * vx / r2
    return gx, gy
