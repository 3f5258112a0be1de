"""Unperturbed renormalized energy and the field functional it perturbs.

Three evaluators of the vortex interaction energy live here:

* ``w0_disk``: the closed form -pi log|a_1 - a_2| on the unit disk.
* ``w0_conformal``: the boundary-integral formula on a conformal image,
  with the log kernel integrated exactly against the trigonometric
  interpolant of the density through the Fourier series
  log|2 sin(x/2)| = -sum_{k>=1} cos(kx)/k (Kress, *Linear Integral
  Equations*, ch. 12).  The boundary data that do not depend on the
  pair, the log|Phi'| term and the density's coefficients, form a
  :class:`W0Boundary`, which evaluates any number of pairs and their
  gradients (each kernel integral differentiated term by term).  There
  is one per (domain, nodes) in the process, from :func:`w0_boundary`,
  as there is one Poisson factor per grid (``poisson.solver_for``).
* ``punctured_energy``: the Dirichlet integral of grad phi* over the
  disk minus small exclusion disks around the vortices, by adaptive
  midpoint quadrature.  Its renormalized limit carries twice the energy
  of the closed form above; see the module tests for the ladder.  Since
  grad phi* = i sum_j 1 / conj(x - a_j) as a complex number, the
  integrand is |2x - a_1 - a_2|^2 / (|x - a_1| |x - a_2|)^2, from the
  two distances the exclusion test needs anyway, and each sub-cell
  centre is its parent's scaled and turned by one scalar per level: no
  cell costs a transcendental.

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
    ``diagnostics`` is that solve and the branch choice, or a failed
    evaluation's ``error`` (``optimize.energy_objective``).
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


def w0_disk_gradient(angles) -> np.ndarray:
    """(dW_0/ds_1, dW_0/ds_2) of the closed form: -+(pi/2) cot((s_1 - s_2)/2)."""
    s1, s2 = angles
    slope = 0.5 * np.pi / np.tan(0.5 * (s1 - s2))
    return np.array([-slope, slope])


def _log_kernel_integrals(coeffs: np.ndarray, s) -> np.ndarray:
    """int_0^{2 pi} f(t) log|e^{it} - e^{is}| dt for each s, from ``coeffs`` = fhat_k / k.

    With f(t) = sum_k fhat_k e^{ikt} sampled at N nodes, the integral is
    -pi sum_{k != 0} fhat_k e^{iks} / |k| = -2 pi Re sum_{k=1}^{N/2} e^{iks} fhat_k / k,
    the Nyquist mode, shared by k = +-N/2, counted once with half weight
    (:class:`W0Boundary` halves it in ``coeffs``).
    """
    k = np.arange(1, coeffs.size + 1)
    phases = np.exp(1j * np.outer(np.asarray(s, dtype=float), k))
    return -TWO_PI * np.real(phases @ coeffs)


def _log_kernel_slopes(coeffs: np.ndarray, s) -> np.ndarray:
    """d/ds of :func:`_log_kernel_integrals`: 2 pi sum_k k Im(e^{iks} fhat_k / k), for each s."""
    k = np.arange(1, coeffs.size + 1)
    phases = np.exp(1j * np.outer(np.asarray(s, dtype=float), k))
    return TWO_PI * np.imag(phases @ (k * coeffs))


def require_w0_nodes(nodes: int) -> None:
    """Reject a boundary node count that is not a power of two of at least 64."""
    if nodes < 64 or (nodes & (nodes - 1)) != 0:
        raise ValueError(f"w0 nodes must be a power of two, at least 64, got {nodes}")


class W0Boundary:
    """The boundary data of W_0 on one domain, sampled at ``nodes`` points.

    W_0 on a conformal image of the disk is

        -pi log|a_1 - a_2|
        + (1/2) int_{|z|=1} kappa(Phi(z)) |Phi'(z)|
              (log|z - a_1| + log|z - a_2| + log|Phi'(z)|) dH^1,

    and only the two log kernels depend on the pair.  The density
    f = kappa |Phi'| is sampled at ``nodes`` equispaced points once: the
    smooth log|Phi'| term by the periodic trapezoid rule (``log_term``),
    and the density's Fourier coefficients fhat_k / k, k = 1 ... nodes/2,
    with the Nyquist mode halved (``coeffs``), against which
    :meth:`w0` integrates the log kernels exactly.  The energy path reads
    the one of each (domain, nodes) that :func:`w0_boundary` keeps.
    """

    def __init__(self, domain: ConformalDomain, nodes: int):
        require_w0_nodes(nodes)
        t = TWO_PI * np.arange(nodes) / nodes
        dt = TWO_PI / nodes
        z = np.exp(1j * t)
        f = domain.curvature_speed(t)
        self.log_term = float(np.sum(f * np.log(np.abs(domain.dforward(z)))) * dt)
        fhat = np.fft.rfft(f)[1:] / nodes
        fhat[-1] *= 0.5
        self.coeffs = fhat / np.arange(1, nodes // 2 + 1)

    def w0(self, config: VortexConfig) -> float:
        """W_0 of the pair; +inf for a degenerate one."""
        base = w0_disk(config)
        if not np.isfinite(base):
            return base
        correction = self.log_term
        correction += float(np.sum(_log_kernel_integrals(self.coeffs, config.angles)))
        return base + 0.5 * correction

    def gradient(self, angles) -> np.ndarray:
        """(dW_0/ds_1, dW_0/ds_2) of a distinct pair: the disk's closed form plus
        half the slope of each log-kernel integral at its own angle."""
        return w0_disk_gradient(angles) + 0.5 * _log_kernel_slopes(self.coeffs, angles)


@lru_cache(maxsize=16)
def w0_boundary(domain: ConformalDomain, nodes: int) -> W0Boundary:
    """The process's shared :class:`W0Boundary` of the domain at ``nodes`` points.

    Every caller gets the same object, so none may write into its arrays.
    """
    return W0Boundary(domain, nodes)


def w0_conformal(domain: ConformalDomain, config: VortexConfig, nodes: int = 2048) -> float:
    """Unperturbed renormalized energy on a conformal image of the disk.

    The boundary formula of :class:`W0Boundary`, with the density
    sampled at ``nodes`` equispaced points: the smooth log|Phi'| term by
    the periodic trapezoid rule, the two log kernels exactly against the
    density's trigonometric interpolant.  On the disk the density is 1
    and log|Phi'| is 0, so both corrections vanish and the quadrature
    reproduces the closed form exactly.  The boundary data are built on
    the first call for each (domain, nodes) and shared from then on
    (:func:`w0_boundary`).
    """
    return w0_boundary(domain, nodes).w0(config)


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


def punctured_energy(config: VortexConfig, rho: float, grid: GridSpec) -> float:
    """Dirichlet integral of grad phi* over the disk minus vortex disks.

    Midpoint quadrature on the polar grid, with cells within 4 rho of a
    vortex recursively split into 2 x 2 children until their diameter is
    below rho / 8; a (sub)cell contributes iff its center lies outside
    both exclusion disks B_rho(a_j).  Requires 2 rho to be smaller than
    the vortex separation so the exclusion disks stay disjoint.

    No transcendental is evaluated per cell.  All cells of one level share
    dr and dt, halved per level, so the diameter is sqrt(dr^2 + (r dt)^2)
    and a child's center is its parent's x scaled by (r +- dr/4) / r and
    turned by e^{+-i dt/4}, one scalar exponential per level.  The base
    level is the grid's cached ``nodes_complex``, one radius per ring; a
    deeper level is a column of cells, one radius each.  The integrand is
    ``_grad_phistar_sq``, from the two vortex distances of the exclusion
    test.
    """
    a1, a2 = config.positions
    if not (0.0 < rho < 0.5 * abs(a1 - a2)):
        raise ValueError("rho must be positive and below half the vortex separation")

    x, r = grid.nodes_complex(), grid.r[:, None]
    dr, dt = grid.dr, grid.dt
    total = 0.0
    while x.size:
        d1, d2 = np.abs(x - a1), np.abs(x - a2)
        d = np.minimum(d1, d2)
        half_diam = np.sqrt((0.5 * dr) ** 2 + (r * (0.5 * dt)) ** 2)
        # cells far from every vortex integrate at base resolution
        leaf = (d > 4.0 * rho + half_diam) | (half_diam < rho / 16.0)
        keep = leaf & (d > rho)
        density = _grad_phistar_sq(x, a1, a2, d1, d2)
        total += float(np.sum(density * r, where=keep)) * dr * dt
        split = ~leaf
        xs, rs = x[split], np.broadcast_to(r, x.shape)[split]
        r = rs + _CHILD_DR * dr
        x = (xs * np.exp(1j * dt * _CHILD_DT) * (r / rs)).reshape(-1, 1)
        r = r.reshape(-1, 1)
        dr, dt = 0.5 * dr, 0.5 * dt
    return total


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
