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
* ``boundary_formula_w0``, W_0 by the paper's boundary formula in one
  pass, the reference for the closed form ``renorm.w0_conformal``.
"""

import numpy as np

from vortexfield.canonical import _guard_singularities
from vortexfield.geom import TWO_PI
from vortexfield.renorm import w0_disk


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


def boundary_formula_w0(domain, config, nodes):
    """W_0 = -pi log|a_1 - a_2| + (1/2) int f (log|z - a_1| + log|z - a_2| + log|Phi'|) dt.

    f = kappa |Phi'| is sampled at ``nodes`` equispaced points.  The
    smooth log|Phi'| term takes the periodic trapezoid rule, and the two
    log kernels are integrated exactly against the trigonometric
    interpolant of f through log|2 sin(x/2)| = -sum_{k>=1} cos(kx)/k
    (Kress, *Linear Integral Equations*, ch. 12):
    int f(t) log|e^{it} - e^{is}| dt = -2 pi Re sum_{k=1}^{N/2} e^{iks} fhat_k / k,
    with the Nyquist mode, shared by k = +-N/2, counted once with half
    weight.  Every boundary quantity is formed per call.
    """
    base = w0_disk(config)
    if not np.isfinite(base):
        return base
    t = TWO_PI * np.arange(nodes) / nodes
    dt = TWO_PI / nodes
    f = domain.curvature_speed(t)
    correction = float(np.sum(f * np.log(np.abs(domain.dforward(np.exp(1j * t))))) * dt)
    k = np.arange(1, nodes // 2 + 1)
    fhat = np.fft.rfft(f)[1:] / nodes
    fhat[-1] *= 0.5
    phases = np.exp(1j * np.outer(np.asarray(config.angles, dtype=float), k))
    correction += float(np.sum(-TWO_PI * np.real(phases @ (fhat / k))))
    return base + 0.5 * correction
