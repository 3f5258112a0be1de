"""Complex-plane geometry for the unit disk and its conformal oval images.

The oval family is the one-parameter conformal map

    Phi(z) = z / (1 - c z^2),   0 <= c < 1/2,

with explicit inverse Psi(w) = (-1 + sqrt(1 + 4 c w^2)) / (2 c w).  For
c < 1/2 the derivative Phi'(z) = (1 + c z^2) / (1 - c z^2)^2 never
vanishes on the closed disk, so Phi is a conformal diffeomorphism onto
its image.  The boundary's turning density kappa |gamma'|
(``curvature_speed``) is evaluated analytically from Phi' and Phi''.

The disk is c = 0 and runs the same formulas, which are exact there:
every c z^2 term is a signed zero, so Phi(z) = z (a -0.0 part may come
back as +0.0), Phi' = 1, Phi'' = 0 and the turning density is 1, each
to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# the period of every angle in the package
TWO_PI = 2.0 * np.pi

# slack for |z| <= 1 membership tests
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ConformalDomain:
    """The image of the unit disk under z / (1 - c z^2); c = 0 is the disk.

    Parameters
    ----------
    c : float
        Coefficient of the map family; must satisfy 0 <= c < 1/2 so the
        map stays conformal on the closed disk.
    """

    c: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.c < 0.5):
            raise ValueError(f"conformal coefficient must be in [0, 0.5), got {self.c}")

    @staticmethod
    def disk() -> "ConformalDomain":
        return ConformalDomain(0.0)

    @staticmethod
    def oval(c: float = 0.2) -> "ConformalDomain":
        return ConformalDomain(c)

    # ------------------------------------------------------------------
    # forward map and its derivatives
    # ------------------------------------------------------------------
    def forward(self, z):
        """Phi(z) for z in the closed unit disk.

        Accepts complex scalars or arrays; raises :class:`DomainError`
        when |z| exceeds 1 beyond tolerance.
        """
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1.0 + _BOUNDARY_TOL):
            raise DomainError("forward map evaluated outside the closed unit disk")
        return z / (1.0 - self.c * z * z)

    def dforward(self, z):
        """Phi'(z)."""
        z = np.asarray(z, dtype=complex)
        q = 1.0 - self.c * z * z
        return (1.0 + self.c * z * z) / (q * q)

    def d2forward(self, z):
        """Phi''(z)."""
        z = np.asarray(z, dtype=complex)
        q = 1.0 - self.c * z * z
        return 2.0 * self.c * z * (3.0 + self.c * z * z) / (q * q * q)

    # ------------------------------------------------------------------
    # boundary curve gamma(t) = Phi(e^{it})
    # ------------------------------------------------------------------
    def boundary_point(self, t):
        return self.forward(np.exp(1j * np.asarray(t, dtype=float)))

    def curvature_speed(self, t):
        """kappa(t) |gamma'(t)|, the total-turning density.

        Simplifies to 1 + Re(z Phi''(z)/Phi'(z)) with z = e^{it}; its
        integral over a period is exactly 2 pi (Gauss-Bonnet) because
        Phi' has no zeros inside the disk.
        """
        z = np.exp(1j * np.asarray(t, dtype=float))
        return 1.0 + np.real(z * self.d2forward(z) / self.dforward(z))
