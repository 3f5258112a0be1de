"""Fixed-point solve for theta, the field correction V, and the total energy.

The Euler-Lagrange equation of the field functional G is the semilinear
Dirichlet problem

    -lap theta = h . (i e^{i theta} M(x; a))  in B_1,   theta = 0 on the circle,

solved as the fixed point theta = g(theta) = (-lap)^{-1} f(theta) from
theta_0 = 0.  Plain Picard iteration contracts by about |h| / lambda_1
(lambda_1 ~ 5.78, the first Dirichlet eigenvalue) and stops converging
near |h| = 5.5, so ``picard_solve`` extrapolates with Anderson(2)
(Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J. Numer. Anal. 49, 2011):
from the third iterate on, the next one combines the last three solve
outputs so that the residual g(x) - x is smallest in the least-squares
sense.  The 2 x 2 least-squares problem is solved in closed form.  When
it is singular, or when an extrapolated iterate makes the change grow,
the history is dropped and the plain Picard step is taken.  Each
iteration is one Poisson solve; the loop stops when
max|g(x_k) - x_k| < tol and returns g(x_k).  The solver records the
per-iteration changes and the final strong-form residual either way.
The right-hand side is |h| cos(theta + phi), one cosine per node, with
the phase phi of q = i conj(h_1 + i h_2) M = |h| e^{i phi} computed once
per solve (``renorm.coupling_phase``).

An independent cross-check, ``minimize_g_descent``, minimizes the same
discrete energy by gradient descent with Nesterov momentum and gradient
restart, never touching the linear solver.  It needs gradients only, so
it carries no copy of G.

The oval experiments reuse the disk solve unchanged: theta is always
computed on the unit disk against the disk canonical map, and only the
displayed magnetization is pushed forward through the conformal map.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

# canonical_map_disk stays importable from here: the benchmark's span tracer
# rebinds this copy (the map itself is built by renorm.coupling_phase)
from .canonical import SINGULARITY_GUARD, VortexConfig, canonical_map_disk, pushforward_disk
from .errors import ConvergenceError
from .geom import TWO_PI, ConformalDomain
from .poisson import GridSpec, PolarField, solver_for
from .renorm import (EnergyBreakdown, coupling_phase, g_functional, w0_conformal,
                     w0_disk)


@dataclass(frozen=True)
class ExternalField:
    """Constant in-plane applied field, already rescaled to the thin-film units.

    ``h_max`` is an optional bound on |h|, unbounded by default: the
    Anderson-accelerated solve converges well past the small-field
    regime, and a field it cannot handle ends in a solver diagnostic.
    """

    h: tuple
    h_max: float = float("inf")

    def __post_init__(self):
        h = (float(self.h[0]), float(self.h[1]))
        object.__setattr__(self, "h", h)
        if not np.all(np.isfinite(h)):
            raise ValueError("field components must be finite")
        if self.norm > self.h_max:
            raise ValueError(
                f"|h| = {self.norm:.4g} exceeds the smallness bound h_max = {self.h_max}"
            )

    @property
    def norm(self) -> float:
        return float(np.hypot(self.h[0], self.h[1]))

    @property
    def is_zero(self) -> bool:
        return self.h == (0.0, 0.0)


@dataclass
class FixedPointReport:
    """Trajectory of one Picard solve."""

    iterations: int
    changes: tuple
    residual: float
    converged: bool


def _picard_rhs(theta_vals: np.ndarray, coupling: tuple) -> np.ndarray:
    """h . (i e^{i theta} M) = |h| cos(theta + phi), ``coupling`` = (|h|, phi)."""
    h_abs, phi = coupling
    rhs = theta_vals + phi
    np.cos(rhs, out=rhs)
    rhs *= h_abs
    return rhs


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum sums in one fixed order, with no BLAS thread pool involved
    return float(np.einsum("ij,ij->", a, b))


#: an Anderson least-squares problem whose Gram determinant is below this
#: fraction of the product of its diagonal entries counts as singular
_SINGULAR_GRAM = 1e-12


def require_picard_budget(tol: float, max_iter: int) -> None:
    """Reject a Picard tolerance that is not positive and finite, or no iterations."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def picard_solve(config: VortexConfig, field: ExternalField, grid: GridSpec,
                 tol: float = 1e-9, max_iter: int = 50):
    """Solve theta = (-lap)^{-1}[h . (i e^{i theta} M)] from theta_0 = 0.

    Picard iteration with Anderson(2) extrapolation (module docstring).
    ``report.changes[k]`` is max|g(x_k) - x_k| for the k-th iterate x_k;
    the loop stops when it falls below ``tol`` and returns that last
    solve output g(x_k).  Non-convergence within ``max_iter`` is reported
    through ``report.converged``, never silently.
    """
    require_picard_budget(tol, max_iter)
    solver = solver_for(grid)
    coupling = coupling_phase(config, grid, field.h)
    shape = (grid.n_r, grid.n_t)
    x = np.zeros(shape)
    # the two most recent differences f_{j+1} - f_j and g_{j+1} - g_j,
    # iteration k writing slot k % 2
    d_f, d_g = np.empty((2,) + shape), np.empty((2,) + shape)
    pairs = 0
    accelerated = False
    changes = []
    converged = False
    for k in range(max_iter):
        theta = solver.solve(PolarField(grid, _picard_rhs(x, coupling), dirichlet=False))
        g = theta.values
        f = g - x
        change = float(np.max(np.abs(f)))
        changes.append(change)
        if change < tol:
            converged = True
            break
        if accelerated and change > changes[-2]:
            pairs = 0   # the extrapolation made things worse: drop the history
        elif k > 0:
            np.subtract(f, f_prev, out=d_f[k % 2])
            np.subtract(g, g_prev, out=d_g[k % 2])
            pairs = min(pairs + 1, 2)
        f_prev, g_prev = f, g
        x, accelerated = g, False
        if pairs == 2:
            a, b, c = _dot(d_f[0], d_f[0]), _dot(d_f[0], d_f[1]), _dot(d_f[1], d_f[1])
            det = a * c - b * b
            if det > _SINGULAR_GRAM * a * c:
                p, q = _dot(d_f[0], f), _dot(d_f[1], f)
                gamma0, gamma1 = (c * p - b * q) / det, (a * q - b * p) / det
                x = g - gamma0 * d_g[0] - gamma1 * d_g[1]
                accelerated = True
            else:
                pairs = 0
    residual = float(np.max(np.abs(
        solver.apply(theta) - _picard_rhs(theta.values, coupling)
    )))
    report = FixedPointReport(
        iterations=len(changes), changes=tuple(changes),
        residual=residual, converged=converged,
    )
    return theta, report


def _solve_theta(config: VortexConfig, field: ExternalField, grid: GridSpec,
                 tol: float, max_iter: int):
    """``picard_solve``, raising :class:`ConvergenceError` if it does not converge."""
    theta, report = picard_solve(config, field, grid, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise ConvergenceError(
            f"Picard iteration did not converge in {report.iterations} steps "
            f"(last change {report.changes[-1]:.3e})"
        )
    return theta, report


def _report_diagnostics(report: FixedPointReport) -> dict:
    """The solve's iterations, residual and final change, as artifacts report them."""
    return {"iterations": report.iterations, "residual": report.residual,
            "final_change": report.changes[-1]}


def v_external(config: VortexConfig, field: ExternalField, grid: GridSpec,
               tol: float = 1e-9, max_iter: int = 50) -> float:
    """V(a; h) = min over H^1_0 of G(a; .), via the Picard minimizer."""
    if field.is_zero:
        return 0.0
    theta, _ = _solve_theta(config, field, grid, tol, max_iter)
    return g_functional(config, theta, field.h)


def total_energy(domain: ConformalDomain, config: VortexConfig, field: ExternalField,
                 grid: GridSpec, w0_nodes: int = 2048, tol: float = 1e-9,
                 max_iter: int = 50) -> EnergyBreakdown:
    """W(a; h) = W_0(a) + V(a; h) for the disk or a conformal image.

    The two vortices are identical particles, so the configuration is
    put in canonical (sorted) label order first; this makes the energy
    exactly exchange-symmetric.  theta is always solved on the unit disk
    against the disk canonical map, also for conformal domains.
    """
    config = config.canonical_order()
    diag = {"grid": (grid.n_r, grid.n_t), "w0_nodes": w0_nodes}
    if config.is_degenerate:
        return EnergyBreakdown(w0=float("inf"), v_ext=0.0, diagnostics=diag)
    if domain.is_disk:
        w0 = w0_disk(config)
    else:
        w0 = w0_conformal(domain, config, nodes=w0_nodes)
    if field.is_zero:
        return EnergyBreakdown(w0=w0, v_ext=0.0, diagnostics=diag)
    theta, report = _solve_theta(config, field, grid, tol, max_iter)
    v = g_functional(config, theta, field.h)
    diag.update(_report_diagnostics(report))
    return EnergyBreakdown(w0=w0, v_ext=v, diagnostics=diag)


# ----------------------------------------------------------------------
# magnetization sampling
# ----------------------------------------------------------------------

#: radius of the outermost sample ring
SAMPLE_R_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class SampleSpec:
    """Polar sample lattice for magnetization output.

    The outermost ring sits essentially on the boundary, at
    ``SAMPLE_R_MAX`` = 1 - 1e-9, so quiver plots show the tangential
    wall texture.  ``jitter`` perturbs each lattice point by up to that
    fraction of a cell (seeded, reproducible); ``points`` overrides the
    lattice with explicit complex positions on the unit disk.
    """

    n_r: int = 16
    n_t: int = 48
    jitter: float = 0.0
    seed: int = 0
    points: tuple = None

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ValueError(f"sample lattice needs at least 1 x 1 points, "
                             f"got {self.n_r} x {self.n_t}")
        if not (np.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValueError(f"jitter must be finite and non-negative, got {self.jitter}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def disk_points(self) -> np.ndarray:
        if self.points is not None:
            return np.asarray(self.points, dtype=complex)
        r = (np.arange(self.n_r) + 1.0) / self.n_r * SAMPLE_R_MAX
        t = np.arange(self.n_t) * TWO_PI / self.n_t
        R, T = np.meshgrid(r, t, indexing="ij")
        if self.jitter > 0.0:
            rng = np.random.default_rng(self.seed)
            R = R + (rng.random(R.shape) - 0.5) * self.jitter * SAMPLE_R_MAX / self.n_r
            T = T + (rng.random(T.shape) - 0.5) * self.jitter * TWO_PI / self.n_t
            R = np.clip(R, 0.0, SAMPLE_R_MAX)
        return (R * np.exp(1j * T)).ravel()


@dataclass(frozen=True)
class VectorFieldSample:
    """One magnetization sample: position and unit vector components."""

    x: float
    y: float
    mx: float
    my: float


@dataclass
class MagnetizationField:
    """Sampled magnetization plus bookkeeping for skipped points.

    ``solver`` holds the Picard solve's iterations, residual and final
    change, as in :func:`total_energy`'s diagnostics; it is empty at h = 0,
    where theta = 0 needs no solve.
    """

    samples: list
    skipped: int
    vortex_positions: tuple
    solver: dict = dataclass_field(default_factory=dict)


def interpolate_field(theta: PolarField, points: np.ndarray) -> np.ndarray:
    """Bilinear (r, t) interpolation of a Dirichlet field at disk points.

    The rings are padded below by the first ring turned half a period,
    at r = -r_0, since u(-r, t) = u(r, t + pi) across the pole, and
    above by zeros at r = 1; angularly the field is periodic.  Radii
    beyond 1 count as 1.
    """
    g = theta.grid
    rings = np.concatenate([np.roll(theta.values[:1], g.n_t // 2, axis=1),
                            theta.values, np.zeros((1, g.n_t))])
    radii = np.concatenate([[-g.r[0]], g.r, [1.0]])
    r = np.minimum(np.abs(points), 1.0)
    t = np.mod(np.angle(points), TWO_PI)

    # angular index and weight
    ft = t / g.dt
    k0 = np.floor(ft).astype(int) % g.n_t
    wt = ft - np.floor(ft)
    k1 = (k0 + 1) % g.n_t

    # the padded rings i and i + 1 enclose r: radii[i] <= r <= radii[i + 1]
    i = np.searchsorted(g.r, r, side="right")
    wr = (r - radii[i]) / (radii[i + 1] - radii[i])
    lo = (1 - wt) * rings[i, k0] + wt * rings[i, k1]
    hi = (1 - wt) * rings[i + 1, k0] + wt * rings[i + 1, k1]
    return (1 - wr) * lo + wr * hi


def magnetization_field(domain: ConformalDomain, config: VortexConfig,
                        field: ExternalField, grid: GridSpec,
                        sample: SampleSpec = SampleSpec(),
                        tol: float = 1e-9, max_iter: int = 50) -> MagnetizationField:
    """Sample m = e^{i theta} M (disk) or its conformal pushforward (oval).

    theta comes from the disk Picard solve and is bilinearly interpolated
    off-grid; the exponential keeps |m| = 1 exactly.  Sample points
    outside the closed disk or inside the vortex guard are skipped and
    counted.
    """
    solver = {}
    if field.is_zero:
        theta = PolarField.zeros(grid)
    else:
        theta, report = _solve_theta(config, field, grid, tol, max_iter)
        solver = _report_diagnostics(report)

    pts = sample.disk_points()
    keep = np.abs(pts) <= 1.0
    for a in config.positions:
        keep &= np.abs(pts - a) > max(SINGULARITY_GUARD, 1e-9)
    skipped = int(np.count_nonzero(~keep))
    pts = pts[keep]

    m = np.exp(1j * interpolate_field(theta, pts)) * pushforward_disk(domain, config, pts)
    positions = pts if domain.is_disk else domain.forward(pts)

    samples = [
        VectorFieldSample(float(p.real), float(p.imag), float(v.real), float(v.imag))
        for p, v in zip(positions, m)
    ]
    vortices = tuple(complex(v) for v in np.asarray(domain.forward(config.positions)))
    return MagnetizationField(samples=samples, skipped=skipped,
                              vortex_positions=vortices, solver=solver)


# ----------------------------------------------------------------------
# independent minimizer (cross-validation oracle)
# ----------------------------------------------------------------------

def minimize_g_descent(config: VortexConfig, field: ExternalField, grid: GridSpec):
    """Minimize the discrete G over interior node values by accelerated descent.

    The quadratic part is the Dirichlet form of the same discrete
    operator the Picard solver inverts, so both methods target one
    discrete minimizer; this routine only ever applies the operator
    (no linear solves).  Steps have the fixed length 1/(lambda_max (1 + |h|)),
    below the inverse Lipschitz constant of the gradient, and carry
    Nesterov momentum that restarts whenever the gradient points along
    the last step (O'Donoghue & Candes, Found. Comput. Math. 15, 2015).
    Neither needs a value of G.  The descent stops once the max-norm of
    the discrete Euler-Lagrange gradient falls below 1e-8, or after
    400 000 iterations.

    Returns ``(theta, iterations, residual)`` where ``residual`` is the
    max-norm of that gradient at ``theta``.
    """
    solver = solver_for(grid)
    coupling = coupling_phase(config, grid, field.h)
    wgt = grid.cell_weights()
    step = 1.0 / (solver.lambda_max() * (1.0 + field.norm))

    x = np.zeros((grid.n_r, grid.n_t))
    y = x
    t = 1.0
    iterations = 0
    while True:
        grad = solver.apply(PolarField(grid, y)) - _picard_rhs(y, coupling)
        residual = float(np.max(np.abs(grad)))
        if residual < 1e-8 or iterations >= 400_000:
            break
        x_next = y - step * grad
        if np.sum(wgt * grad * (x_next - x)) > 0.0:
            t, y = 1.0, x_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        x = x_next
        iterations += 1
    return PolarField(grid, y), iterations, residual
