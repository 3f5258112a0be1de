"""Unperturbed renormalized energy and the field functional it perturbs.

Three evaluators of the vortex interaction energy live here:

* ``w0_disk``: the closed form -pi log|a_1 - a_2| on the unit disk.
* ``w0_conformal``: the boundary-integral formula on a conformal image,
  with the log kernel integrated exactly against the trigonometric
  interpolant of the density through the Fourier series
  log|2 sin(x/2)| = -sum_{k>=1} cos(kx)/k (Kress, *Linear Integral
  Equations*, ch. 12).
* ``punctured_energy``: the Dirichlet integral of grad phi* over the
  disk minus small exclusion disks around the vortices, by adaptive
  midpoint quadrature.  Its renormalized limit carries twice the energy
  of the closed form above; see the module tests for the ladder.

The functional g_functional(theta) = int (1/2)|grad theta|^2
- h . (e^{i theta} M) is the external-field correction being minimized
by the fixed-point solver in :mod:`vortexfield.micromag`.  Its kinetic
term is the operator form (1/2) <theta, A_h theta>_w of the discrete
Laplacian that solver inverts, so the Picard fixed point is an exact
stationary point of the reported G.  The field enters in phase form:
with q = i conj(h_1 + i h_2) M = |h| e^{i phi} (``coupling_phase``;
|M| = 1), h . (e^{i theta} M) = |h| sin(theta + phi) and the solver's
right-hand side h . (i e^{i theta} M) = |h| cos(theta + phi), one
transcendental per node each.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .canonical import VortexConfig, canonical_map_disk, grad_phistar
from .geom import TWO_PI, ConformalDomain
from .poisson import GridSpec, PolarField, integrate_disk, solver_for


@dataclass
class EnergyBreakdown:
    """Total renormalized energy split into its two summands."""

    w0: float
    v_ext: float
    diagnostics: dict = dataclass_field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.w0 + self.v_ext


def w0_disk(config: VortexConfig) -> float:
    """Unperturbed renormalized energy -pi log|a_1 - a_2| on the disk.

    Returns +inf for a degenerate pair (the energy blows up as the
    vortices merge).
    """
    if config.is_degenerate:
        return float("inf")
    s1, s2 = config.angles
    return float(-np.pi * np.log(2.0 * abs(np.sin(0.5 * (s1 - s2)))))


def _log_kernel_integrals(f: np.ndarray, s) -> np.ndarray:
    """int_0^{2 pi} f(t) log|e^{it} - e^{is}| dt for each s, f sampled at N nodes.

    With f(t) = sum_k fhat_k e^{ikt} the integral is
    -pi sum_{k != 0} fhat_k e^{iks} / |k|; the Nyquist mode, shared by
    k = +-N/2, counts once with half weight.
    """
    n = f.size
    k = np.arange(1, n // 2 + 1)
    fhat = np.fft.rfft(f)[1:] / n
    fhat[-1] *= 0.5
    phases = np.exp(1j * np.outer(np.asarray(s, dtype=float), k))
    return -TWO_PI * np.real(phases @ (fhat / k))


def require_w0_nodes(nodes: int) -> None:
    """Reject a boundary node count that is not a power of two of at least 64."""
    if nodes < 64 or (nodes & (nodes - 1)) != 0:
        raise ValueError(f"w0 nodes must be a power of two, at least 64, got {nodes}")


def w0_conformal(domain: ConformalDomain, config: VortexConfig, nodes: int = 2048) -> float:
    """Unperturbed renormalized energy on a conformal image of the disk.

    Evaluates

        -pi log|a_1 - a_2|
        + (1/2) int_{|z|=1} kappa(Phi(z)) |Phi'(z)|
              (log|z - a_1| + log|z - a_2| + log|Phi'(z)|) dH^1

    with the density sampled at ``nodes`` equispaced points: the smooth
    log|Phi'| term by the periodic trapezoid rule, the two log kernels
    exactly against the density's trigonometric interpolant.  On the
    disk the density is 1 and log|Phi'| is 0, so both corrections vanish
    and the quadrature reproduces the closed form exactly.
    """
    require_w0_nodes(nodes)
    base = w0_disk(config)
    if not np.isfinite(base):
        return base

    t = TWO_PI * np.arange(nodes) / nodes
    dt = TWO_PI / nodes
    z = np.exp(1j * t)
    f = domain.curvature_speed(t)
    correction = float(np.sum(f * np.log(np.abs(domain.dforward(z)))) * dt)
    correction += float(np.sum(_log_kernel_integrals(f, config.angles)))
    return base + 0.5 * correction


def punctured_energy(config: VortexConfig, rho: float, grid: GridSpec) -> float:
    """Dirichlet integral of grad phi* over the disk minus vortex disks.

    Midpoint quadrature on the polar grid, with cells within 4 rho of a
    vortex recursively split until their diameter is below rho / 8; a
    (sub)cell contributes iff its center lies outside both exclusion
    disks B_rho(a_j).  Requires 2 rho to be smaller than the vortex
    separation so the exclusion disks stay disjoint.
    """
    positions = config.positions
    if not (0.0 < rho < 0.5 * abs(positions[0] - positions[1])):
        raise ValueError("rho must be positive and below half the vortex separation")

    def integrand(x: np.ndarray) -> np.ndarray:
        gx, gy = grad_phistar(config, x)
        return gx * gx + gy * gy

    def dist_to_vortices(x: np.ndarray) -> np.ndarray:
        d = np.full(x.shape, np.inf)
        for a in positions:
            d = np.minimum(d, np.abs(x - a))
        return d

    R, T = grid.mesh()
    R = R.ravel()
    T = T.ravel()
    DR = np.full(R.shape, grid.dr)
    DT = np.full(T.shape, grid.dt)

    total = 0.0
    stack = [(R, T, DR, DT)]
    target = rho / 8.0
    while stack:
        Rc, Tc, DRc, DTc = stack.pop()
        if Rc.size == 0:
            continue
        x = Rc * np.exp(1j * Tc)
        d = dist_to_vortices(x)
        diam = np.hypot(DRc, Rc * DTc)
        # cells far from every vortex integrate at base resolution
        coarse_ok = d > 4.0 * rho + 0.5 * diam
        leaf = coarse_ok | (diam < target)
        keep = leaf & (d > rho)
        if np.any(keep):
            total += float(np.sum(integrand(x[keep]) * Rc[keep] * DRc[keep] * DTc[keep]))
        split = ~leaf
        if np.any(split):
            Rs, Ts, DRs, DTs = Rc[split], Tc[split], DRc[split], DTc[split]
            quads = []
            for i_off in (-0.25, 0.25):
                for j_off in (-0.25, 0.25):
                    quads.append((Rs + i_off * DRs, Ts + j_off * DTs,
                                  0.5 * DRs, 0.5 * DTs))
            stack.append((np.concatenate([q[0] for q in quads]),
                          np.concatenate([q[1] for q in quads]),
                          np.concatenate([q[2] for q in quads]),
                          np.concatenate([q[3] for q in quads])))
    return total


def coupling_phase(config: VortexConfig, grid: GridSpec, h) -> tuple:
    """(|h|, phi) on the grid nodes, with q = i conj(h_1 + i h_2) M = |h| e^{i phi}.

    Since |M| = 1, h . (e^{i theta} M) = |h| sin(theta + phi) and
    h . (i e^{i theta} M) = |h| cos(theta + phi).
    """
    q = canonical_map_disk(config, grid.nodes_complex())
    q *= 1j * complex(h[0], -h[1])
    return float(np.hypot(h[0], h[1])), np.angle(q)


def g_functional(config: VortexConfig, theta: PolarField, h) -> float:
    """G(a; theta) = int (1/2)|grad theta|^2 - h . (e^{i theta} M(x; a)) dx.

    The Dirichlet energy is (1/2) <theta, A_h theta>_w, with A_h the
    discrete -lap of :class:`~vortexfield.poisson.DiskPoissonSolver` and
    w the disk quadrature weights.  The coupling integrand
    h . (e^{i theta} M) is |h| sin(theta + phi) (``coupling_phase``).
    ``theta`` must be Dirichlet-tagged (it represents an H^1_0 candidate).
    """
    if not theta.dirichlet:
        raise ValueError("g_functional requires a Dirichlet-tagged theta")
    grid = theta.grid
    kinetic = PolarField(grid, 0.5 * theta.values * solver_for(grid).apply(theta),
                         dirichlet=False)
    h_abs, phi = coupling_phase(config, grid, h)
    coupling = PolarField(grid, h_abs * np.sin(theta.values + phi), dirichlet=False)
    return integrate_disk(kinetic) - integrate_disk(coupling)
