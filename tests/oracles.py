"""Test-only references for closed forms the package evaluates in reduced form.

* The boundary curve gamma(t) = Phi(e^{it}) of a :class:`ConformalDomain`
  by its analytic derivatives: velocity, speed, signed curvature and
  outward normal.  ``ConformalDomain.curvature_speed`` is the product
  kappa |gamma'| simplified to 1 + Re(z Phi''(z) / Phi'(z)); the geometry
  tests compare it with the product of these.
* ``grad_phistar``, the gradient of the harmonic lifting phi* of the
  canonical map, term by term.  ``renorm._grad_phistar_sq`` is its
  squared modulus in closed form, and ``renorm.punctured_energy``
  integrates that.
* ``integrate_disk``, the integral of a grid field over the disk with
  the grid's cell weights, which the package forms as weighted row sums
  where it needs one (``renorm.g_value``).
"""

import numpy as np

from vortexfield.canonical import _guard_singularities


def boundary_velocity(domain, t):
    """gamma'(t) = i e^{it} Phi'(e^{it})."""
    z = np.exp(1j * np.asarray(t, dtype=float))
    return 1j * z * domain.dforward(z)


def boundary_speed(domain, t):
    return np.abs(boundary_velocity(domain, t))


def boundary_curvature(domain, t):
    """Signed curvature kappa = Im(conj(gamma') gamma'') / |gamma'|^3 at parameter t.

    Positive for a counterclockwise convex arc; identically 1 on the disk.
    """
    z = np.exp(1j * np.asarray(t, dtype=float))
    g1 = 1j * z * domain.dforward(z)
    g2 = -z * z * domain.d2forward(z) - z * domain.dforward(z)
    return np.imag(np.conj(g1) * g2) / np.abs(g1) ** 3


def outward_normal(domain, t):
    """Unit outward normal at gamma(t), as a complex number."""
    v = boundary_velocity(domain, t)
    return -1j * v / np.abs(v)


def grad_phistar(config, x):
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


def integrate_disk(g):
    """Integral of the ``PolarField`` g over the unit disk: midpoint in r, trapezoid in t."""
    return float(np.sum(g.values * g.grid.cell_weights()))
