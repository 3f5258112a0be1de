"""Unperturbed renormalized energy and the field functional it perturbs.

Three evaluators of the vortex interaction energy live here:

* ``w0_disk``: the closed form -pi log|a_1 - a_2| on the unit disk.
* ``w0_conformal``: the paper's boundary formula on a conformal image
  Phi(B_1), Phi(0) = 0 and Phi'(0) = 1, summed in closed form:

      W_0(a) = -pi log|a_1 - a_2| - (pi/2) (log|Phi'(a_1)| + log|Phi'(a_2)|) + C_Phi.

  On the circle the turning density is kappa |Phi'| = 1 + d_r u, with
  u = log|Phi'| harmonic and u(0) = 0: the 1 integrates each log kernel
  to 0, the Neumann function of the disk gives
  int d_r u log|e^{it} - a| dt = -pi u(a), and what is left is the
  domain constant C_Phi (``w0_constant``).  The gradient
  (``w0_gradient``) needs Phi'' at the vortices.  On the disk both are
  ``w0_disk``'s closed forms, bit for bit.
* ``punctured_energy``: the Dirichlet integral of grad phi* over the
  disk minus small exclusion disks around the vortices, by adaptive
  midpoint quadrature.  Its renormalized limit carries twice the energy
  of the closed form above; see the module tests for the ladder.  Since
  grad phi* = i sum_j 1 / conj(x - a_j) as a complex number, the
  integrand is |2x - a_1 - a_2|^2 / (|x - a_1| |x - a_2|)^2, from the
  two distances the exclusion test needs anyway, and each sub-cell
  centre is its parent's scaled and turned by one scalar per level: no
  cell costs a transcendental.  It takes one radius or a ladder of
  radii; the grid level, which does not depend on the radius, is
  integrated once per call and read by each radius's masks and
  refinement, bitwise as in a call of its own.

The functional g_functional(theta) = int (1/2)|grad theta|^2
- h . (e^{i theta} M) is the external-field correction being minimized
by the fixed-point solver in :mod:`vortexfield.micromag`.  Its kinetic
term is the operator form (1/2) <theta, A_h theta>_w of the discrete
Laplacian that solver inverts, so the Picard fixed point is an exact
stationary point of the reported G.  The field enters in phase form:
with q = i conj(h_1 + i h_2) M = a e^{i phi}, a = +-|h|
(``coupling_phase``; |M| = 1), h . (e^{i theta} M) = a sin(theta + phi)
and the solver's right-hand side h . (i e^{i theta} M) =
a cos(theta + phi), one transcendental per node each.  h and -h share
phi bitwise and differ in the sign of a.

Both orientations of M are states of the same vortex pair, so the energy
reported is W = W_0 + min over sigma = +-1 of V(a; sigma h), V the
minimum of G (:func:`vortexfield.micromag.total_energy`).
``coupling_phase`` also returns L = int h . M dx = sum w Im q on
request, from which ``total_energy`` picks the branch solved first and
bounds the other below without a solve; the :mod:`vortexfield.micromag`
docstring derives that bound.
``coupling_phase`` and ``g_functional`` work in arrays made once per grid
(:class:`EvaluationWork`); a returned phi holds until the next call on its grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .canonical import VortexConfig, canonical_map_disk
from .geom import TWO_PI, ConformalDomain
from .poisson import GridSpec, PolarField, solver_for


@dataclass
class EnergyBreakdown:
    """Total renormalized energy split into its two summands; ``float()`` is the total.

    ``theta``, not compared, is the winning solve if kept (``micromag.total_energy``).
    ``diagnostics`` is that solve and the branch choice.
    ``gradient``, not compared, is None or a callable of no arguments that
    returns (dW/ds_1, dW/ds_2) at the evaluated pair, in the caller's
    label order; ``micromag.total_energy`` sets it on each finite
    evaluation that is not bounded.  ``bounded`` marks an evaluation cut
    short by a threshold: ``v_ext`` is then a certified lower bound on V,
    not V, and there is no theta.
    """

    w0: float
    v_ext: float
    diagnostics: dict = dataclass_field(default_factory=dict)
    theta: PolarField | None = dataclass_field(default=None, compare=False)
    gradient: object = dataclass_field(default=None, compare=False, repr=False)
    bounded: bool = False

    @property
    def total(self) -> float:
        return self.w0 + self.v_ext

    __float__ = total.fget


def w0_disk(config: VortexConfig) -> float:
    """Unperturbed renormalized energy -pi log|a_1 - a_2| on the disk.

    Returns +inf for a degenerate pair (the energy blows up as the
    vortices merge).
    """
    if config.is_degenerate:
        return float("inf")
    s1, s2 = config.angles
    return float(-np.pi * np.log(2.0 * abs(np.sin(0.5 * (s1 - s2)))))


def require_w0_nodes(nodes: int) -> None:
    """Reject a boundary node count that is not a power of two of at least 64."""
    if nodes < 64 or (nodes & (nodes - 1)) != 0:
        raise ValueError(f"w0 nodes must be a power of two, at least 64, got {nodes}")


@lru_cache(maxsize=16)
def w0_constant(domain: ConformalDomain, nodes: int) -> float:
    """C_Phi = (1/2) int kappa |Phi'| log|Phi'| dt, the trapezoid rule at ``nodes`` points.

    By Green's identity it is (1/2) int_B |grad log|Phi'||^2 dA =
    (pi/2) sum_k k |beta_k|^2, log Phi' = sum_k beta_k z^k; on the disk
    it is exactly 0.  One per (domain, nodes) in the process.
    """
    require_w0_nodes(nodes)
    t = TWO_PI * np.arange(nodes) / nodes
    f = domain.curvature_speed(t)
    return 0.5 * float(np.sum(f * np.log(np.abs(domain.dforward(np.exp(1j * t)))))
                       * (TWO_PI / nodes))


def _log_speeds(domain: ConformalDomain, angles) -> np.ndarray:
    """log|Phi'(e^{i s_j})| at each angle s_j, the log of the boundary's speed there."""
    return np.log(np.abs(domain.dforward(np.exp(1j * np.asarray(angles, dtype=float)))))


def w0_conformal(domain: ConformalDomain, config: VortexConfig, nodes: int = 2048) -> float:
    """W_0 in closed form (module docstring): ``w0_disk`` less
    (pi/2) sum_j log|Phi'(a_j)|, plus :func:`w0_constant` at ``nodes``,
    which is validated first; +inf for a degenerate pair.  A zero
    correction, the disk's, leaves ``w0_disk``'s bits, -0.0 included.
    """
    constant = w0_constant(domain, nodes)
    base = w0_disk(config)
    correction = constant - 0.5 * np.pi * float(np.sum(_log_speeds(domain, config.angles)))
    return base + correction if correction else base


def w0_gradient(domain: ConformalDomain, angles) -> np.ndarray:
    """(dW_0/ds_1, dW_0/ds_2) of a distinct pair, in the order of ``angles``.

    The disk's -+(pi/2) cot((s_1 - s_2)/2) plus (pi/2) Im(z Phi''(z) / Phi'(z))
    at z = e^{i s_j}, the slope of -(pi/2) log|Phi'(e^{is})|; C_Phi has
    none, so no node count enters.  On the disk it is the cotangent's bits.
    """
    s1, s2 = angles
    slope = 0.5 * np.pi / np.tan(0.5 * (s1 - s2))
    z = np.exp(1j * np.asarray(angles, dtype=float))
    return (np.array([-slope, slope])
            + 0.5 * np.pi * np.imag(z * domain.d2forward(z) / domain.dforward(z)))


def _grad_phistar_sq(x: np.ndarray, a1: complex, a2: complex,
                     d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """|grad phi*|^2 = |2x - a_1 - a_2|^2 / (|x - a_1| |x - a_2|)^2, given d_j = |x - a_j|.

    As a complex number grad phi* = i sum_j 1 / conj(x - a_j), whose
    modulus is |conj(x - a_2) + conj(x - a_1)| / (d_1 d_2).
    """
    g = np.abs(2.0 * x - (a1 + a2))
    g /= d1
    g /= d2
    return g * g


# the four children of a split cell, in the order they are stacked: the
# offsets of their centres in units of the parent's dr and dt
_CHILD_DR = np.array([-0.25, -0.25, 0.25, 0.25])[:, None]
_CHILD_DT = np.array([-0.25, 0.25, -0.25, 0.25])[:, None]


def punctured_energy(config: VortexConfig, rho: float | Sequence[float],
                     grid: GridSpec) -> float | list[float]:
    """Dirichlet integral of grad phi* over the disk minus vortex disks.

    Midpoint quadrature on the polar grid, with cells within 4 rho of a
    vortex recursively split into 2 x 2 children until their diameter is
    below rho / 8; a (sub)cell contributes iff its center lies outside
    both exclusion disks B_rho(a_j).  Requires 2 rho to be smaller than
    the vortex separation so the exclusion disks stay disjoint.

    ``rho`` is one radius, which returns a float, or a sequence of radii,
    which returns a list of floats in the same order; every radius is
    checked before any grid work.  The grid level does not depend on
    rho: each node's distance to the nearer vortex and its density
    |grad phi*|^2 r are computed once and read by every radius, whose
    masks and refinement follow, so each value is bitwise the
    one-radius call's.  Nothing outlives the call.

    No transcendental is evaluated per cell.  All cells of one level share
    dr and dt, halved per level, so the diameter is sqrt(dr^2 + (r dt)^2)
    and a child's center is its parent's x scaled by (r +- dr/4) / r and
    turned by e^{+-i dt/4}, one scalar exponential per level.  The base
    level is the grid's cached ``nodes_complex``, one radius per ring; a
    deeper level is a column of cells, one radius each.  The integrand is
    ``_grad_phistar_sq``, from the two vortex distances of the exclusion
    test.
    """
    single = np.ndim(rho) == 0
    radii = [float(rho)] if single else [float(v) for v in rho]
    a1, a2 = config.positions
    for radius in radii:
        if not (0.0 < radius < 0.5 * abs(a1 - a2)):
            raise ValueError("rho must be positive and below half the vortex separation")

    x, r = grid.nodes_complex(), grid.r[:, None]
    d, weighted = _distance_and_density(x, r, a1, a2)
    energies = [_refined_sum(x, r, d, weighted, radius, a1, a2, grid.dr, grid.dt)
                for radius in radii]
    return energies[0] if single else energies


def _distance_and_density(x: np.ndarray, r: np.ndarray, a1: complex, a2: complex) -> tuple:
    """Each cell's distance to the nearer vortex and its |grad phi*|^2 r."""
    d1, d2 = np.abs(x - a1), np.abs(x - a2)
    density = _grad_phistar_sq(x, a1, a2, d1, d2)
    density *= r
    return np.minimum(d1, d2), density


def _refined_sum(x: np.ndarray, r: np.ndarray, d: np.ndarray, weighted: np.ndarray,
                 rho: float, a1: complex, a2: complex, dr: float, dt: float) -> float:
    """The quadrature at one radius from a level's cells, ``d`` and ``weighted``
    those of :func:`_distance_and_density`, refining the cells near a vortex."""
    total = 0.0
    while True:
        half_diam = np.sqrt((0.5 * dr) ** 2 + (r * (0.5 * dt)) ** 2)
        # cells far from every vortex integrate at base resolution
        leaf = (d > 4.0 * rho + half_diam) | (half_diam < rho / 16.0)
        keep = leaf & (d > rho)
        total += float(np.sum(weighted, where=keep)) * dr * dt
        split = ~leaf
        xs, rs = x[split], np.broadcast_to(r, x.shape)[split]
        if not xs.size:
            return total
        r = rs + _CHILD_DR * dr
        x = (xs * np.exp(1j * dt * _CHILD_DT) * (r / rs)).reshape(-1, 1)
        r = r.reshape(-1, 1)
        dr, dt = 0.5 * dr, 0.5 * dt
        d, weighted = _distance_and_density(x, r, a1, a2)


class EvaluationWork:
    """The arrays an energy evaluation on one grid writes into, made once per grid.

    ``phase`` is the phi of the latest :func:`coupling_phase` on the grid;
    the others carry the iterates of :func:`vortexfield.micromag.picard_solve`,
    which leaves A_h theta of the theta it returns in ``x``.
    The map (``map_out``, ``map_work``: ``d_f``, ``d_g`` and ``f``), the
    contiguous parts of q that :func:`coupling_phase` copies into ``f``,
    :func:`g_functional` and :func:`vortexfield.micromag.energy_gradient`
    (``rhs``, ``scratch``) borrow from those, since none runs during a
    Picard solve.
    """

    def __init__(self, grid: GridSpec):
        shape = (grid.n_r, grid.n_t)
        arrays = np.zeros((12,) + shape)
        # pairs[k] is arrays[2k] and arrays[2k + 1] seen as one complex array
        pairs = arrays.reshape(6, -1).view(complex).reshape((6,) + shape)
        self.phase, self.x, self.scratch = arrays[0], arrays[1], arrays[2]
        self.rhs = PolarField(grid, arrays[3], dirichlet=False)
        self.g = (PolarField(grid, arrays[4]), PolarField(grid, arrays[5]))
        self.f, self.d_f, self.d_g = arrays[6:8], arrays[8:10], arrays[10:12]
        self.map_out, self.map_work = pairs[4], (pairs[5], self.f[0], self.f[1])


@lru_cache(maxsize=16)
def evaluation_work(grid: GridSpec) -> EvaluationWork:
    """The grid's shared :class:`EvaluationWork`."""
    return EvaluationWork(grid)


def coupling_phase(config: VortexConfig, grid: GridSpec, h, moment: bool = False) -> tuple:
    """(a, phi) on the grid nodes, with q = i conj(h_1 + i h_2) M = a e^{i phi}.

    Since |M| = 1, h . (e^{i theta} M) = a sin(theta + phi) and
    h . (i e^{i theta} M) = a cos(theta + phi), with the amplitude
    a = +-|h|.  The phase is that of the orientation of h with h_1 > 0,
    or h_1 = 0 <= h_2, and the other orientation has a = -|h|: h and -h
    share one phi bitwise, so flipping the field negates a exactly
    (phi + pi is not exact in floating point).  With ``moment``, the
    result gains a third entry, L = int h . M dx = sum w Im q, summed
    from the q the map has just built.  phi is the grid's
    ``EvaluationWork.phase``: it holds until the next call on that grid.
    """
    work = evaluation_work(grid)
    q = canonical_map_disk(config, grid.nodes_complex(), out=work.map_out,
                           work=work.map_work)
    sign = -1.0 if h[0] < 0.0 or (h[0] == 0.0 and h[1] < 0.0) else 1.0
    q *= 1j * complex(sign * h[0], -sign * h[1])
    amplitude = sign * float(np.hypot(h[0], h[1]))
    # arctan2 runs faster on contiguous copies than on the strided parts of q
    imag, real = work.f
    np.copyto(imag, q.imag)
    np.copyto(real, q.real)
    phi = np.arctan2(imag, real, out=work.phase)
    if not moment:
        return amplitude, phi
    return amplitude, phi, sign * float(grid.cell_weights()[:, 0] @ imag.sum(axis=1))


def g_functional(config: VortexConfig, theta: PolarField, h,
                 a_theta: np.ndarray | None = None) -> float:
    """G(a; theta) = int (1/2)|grad theta|^2 - h . (e^{i theta} M(x; a)) dx.

    The Dirichlet energy is (1/2) <theta, A_h theta>_w, with A_h the
    discrete -lap of :class:`~vortexfield.poisson.DiskPoissonSolver` and
    w the disk quadrature weights.  The coupling integrand
    h . (e^{i theta} M) is |h| sin(theta + phi) (``coupling_phase``).
    ``theta`` must be Dirichlet-tagged (it represents an H^1_0 candidate).
    ``a_theta`` is A_h theta when the caller has it (a Picard solve
    leaves it in ``EvaluationWork.x``); the value is the same bit for bit.
    Both integrands are formed in the grid's ``EvaluationWork``.
    """
    if not theta.dirichlet:
        raise ValueError("g_functional requires a Dirichlet-tagged theta")
    if a_theta is None:
        a_theta = solver_for(theta.grid).apply(theta, out=evaluation_work(theta.grid).scratch)
    return g_value(theta, a_theta, coupling_phase(config, theta.grid, h))


def g_value(theta: PolarField, a_theta: np.ndarray, coupling: tuple) -> float:
    """G at theta from A_h theta and the coupling (a, phi) of ``coupling_phase``.

    The operations of :func:`g_functional`, which calls it, so a caller
    that holds the coupling gets the same value bit for bit with no map.
    Both integrals are weighted row sums, sum_i w_i sum_j: the kinetic
    one of theta A_h theta in one ``einsum``, the coupling one of
    sin(theta + phi), formed in the grid's ``EvaluationWork.rhs``, scaled
    by the amplitude after the sum.
    """
    weights = theta.grid.cell_weights()[:, 0]
    kinetic = 0.5 * float(weights @ np.einsum("ij,ij->i", theta.values, a_theta))
    amplitude, phi = coupling
    integrand = np.add(theta.values, phi, out=evaluation_work(theta.grid).rhs.values)
    np.sin(integrand, out=integrand)
    return kinetic - amplitude * float(weights @ integrand.sum(axis=1))
