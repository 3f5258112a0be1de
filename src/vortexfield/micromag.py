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
The right-hand side is a cos(theta + phi), one cosine per node, with
the phase phi of q = i conj(h_1 + i h_2) M = a e^{i phi}, a = +-|h|,
computed once per solve (``renorm.coupling_phase``) or handed in by the
caller that already has it.
The iterates live in the grid's ``renorm.EvaluationWork``, made once
per grid; the theta a solve returns is a fresh copy, so no later solve
overwrites it.  The residual's A_h theta stays in that work, and
``g_functional`` reads it for the kinetic term: one operator apply per
solve.

A solve may start from any theta_0 instead of 0.  Below the smallest
eigenvalue lambda_lo of A_h (``DiskPoissonSolver.lambda_min``) that
is safe: for |h| < lambda_lo, at any theta and in any direction delta,

    <delta, Hess G delta>_w = <delta, A_h delta>_w + sum w a sin(theta + phi) delta^2
                            >= (lambda_lo - |h|) ||delta||_w^2,

so G is strongly convex with exactly one stationary point, and the
Picard map contracts in the A_h-norm by at most |h| / lambda_lo < 1
from every start.  A search (``optimize.energy_objective``) therefore
starts each solve of branch sigma from the affine combination
sum lambda_i theta_i of that branch's last three solved thetas, with
weights that solve

    [s_1 s_2 s_3; 1 1 1] lambda = [s; 1]

for the new pair s, each stored pair s_i taken in the minimal-image
chart at s.  This is the secant predictor of natural-parameter
continuation (Allgower & Georg, Numerical Continuation Methods, 1990,
ch. 2), exact where theta is affine in s.  With fewer than three solves,
or three pairs on a line (a singular system), the solve starts from the
branch's latest theta.  The weights are not bounded, since convexity
makes any finite start safe.  Along the search of the
``field-oval-strong`` benchmark (h = (0, 3), 128 x 256), 61 evaluations
that end in the gradient finish, a solve takes 7.2 iterations, against
8.0 from the latest theta alone.  Thetas outlive their solve in the dict
``thetas``, one key per branch: ``thetas[sigma]`` is its record, the
tuple of its last three or fewer (s, theta), oldest first, from which
``_start`` picks the fit, the latest theta or, when empty, 0.  Only
``_start`` and ``_branch`` read that layout; ``Orientation.theta``
hands the winning theta on to the breakdown (``EnergyBreakdown.theta``),
which ``magnetization_field`` samples with no further solve.  A search
keeps one dict across calls, and a cold ``magnetization_field`` hands
``total_energy`` a fresh one.  For |h| >= lambda_lo, where a
start can reach another fixed point, the dict is emptied first and each
record holds one cold solve; there, and for every solve outside a
search, theta_0 = 0.

An independent cross-check, ``minimize_g_descent``, minimizes the same
discrete energy by preconditioned gradient descent with Nesterov
momentum and gradient restart, never touching the linear solver.  It
needs gradients only, so it carries no copy of G.  For each angular
wavenumber A_h is a tridiagonal T = D + O, D its diagonal, and the
preconditioner is the two-term Neumann series of T^{-1},
M^{-1} = D^{-1} - D^{-1} O D^{-1} (``DiskPoissonSolver.precondition``).
A step is x - tau M^{-1} grad G with the gradient
A_h theta - a cos(theta + phi), and tau is provably below the inverse
Lipschitz constant of that gradient in the M-metric.  Each T is
r-weighted symmetric, so D^{-1} O is similar to the symmetric
(r D)^{-1/2} (r O) (r D)^{-1/2} and has real eigenvalues nu; D + O and
D - O are similar through diag((-1)^i), and both are positive definite,
so |nu| < 1.  Since M^{-1} T = I - (D^{-1} O)^2, the spectrum of
M^{-1} A_h lies in (0, 1]; and M^{-1} = D^{-1/2} (I - N) D^{-1/2} with N
similar to D^{-1} O, so M^{-1} < 2 / min D (``DiskPoissonSolver.diag_min``).
The diagonal part a sin(theta + phi) of the Hessian therefore adds at
most 2 |h| / min D in the M-metric, and tau = 1 / (1 + 2 |h| / min D).
Jacobi, M = D, took 2.6 times the steps on the ``verify`` oracle (97
against 37 at 8 x 16): its spectrum reaches 2, which halves the step.
The iterates and grad G live in arrays made once per call, y and grad G
wrapped as fields once, and each step writes into them with ``out=``.
Every operation keeps the operands of the plain expression, such as
(w grad G) (x_next - x) in the restart test, so theta and the step
count are bitwise those of a step that allocates.  The theta returned
is the call's own array.

Both orientations of M are admissible states of the same vortex pair:
swapping the labels flips M, and in the thin-film limit m = +-tau on the
boundary arcs between the vortices (Moser, ARMA 174, 2004; Kurzke,
Calc. Var. PDE 26, 2006).  So ``total_energy`` reports

    W(a; h) = W_0(a) + min over sigma = +-1 of V(a; sigma h),

which does not depend on the angle origin or the label order.  Branch
sigma is the sorted-label M times sigma, solved as the field sigma h;
``coupling_phase`` gives h and -h one phase, so flipping the branch
negates the amplitude a and nothing else.  L = int h . M dx = sum w Im q
costs one weighted sum of the q the map builds anyway, and
V(a; sigma h) <= G_sigma(0) = -sigma L, so the branch sigma* = sign L is
solved first.  The other branch is skipped when the lower bound B in

    V(a; -sigma* h) >= B = |L| - |h|^2 pi / (2 (lambda_lo - |h|)),   |h| < lambda_lo,

exceeds the solved V* by a rounding margin.  The bound holds for
G_{-sigma*} at every theta, from three facts:
|sin(x + phi) - sin phi - x cos phi| <= x^2/2 at every node;
<theta, A_h theta>_w >= lambda_lo ||theta||_w^2
(``DiskPoissonSolver.lambda_min``); and ||cos phi||_w^2 <= sum w = pi.
With Cauchy-Schwarz they give G_{-sigma*}(theta) >= |L|
- |h| ||theta||_w ||cos phi||_w + (1/2)(lambda_lo - |h|) ||theta||_w^2,
whose minimum over ||theta||_w is B.  When |h|^2 underflows, the
subnormal sums of L and V round by more than the margin, so both
branches are solved there as well.  A skipped branch would
have lost, so W is bitwise the minimum of both branches solved; ties go
to the favoured branch.

The solve also gives W its exact gradient in the pair
(``energy_gradient``), which ``optimize``'s gradient finish reads.
Since theta* is a stationary point of the discrete G, the envelope
theorem makes dV/ds_j the partial derivative of G at fixed theta*;
``v_gradient`` forms it from A_h theta* and the derivative of phi, a
Poisson kernel at a_j, so it builds no map and starts no solve.
W_0's part is closed-form on the disk and, on an oval, the derivative
of the log-kernel integrals of the domain's shared boundary data
(``renorm.w0_boundary``), which ``total_energy``'s W_0 reads too.

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
from .renorm import (EnergyBreakdown, coupling_phase, evaluation_work, g_functional,
                     w0_boundary, w0_conformal, w0_disk, w0_disk_gradient)


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
        # G grows like |h|^2; a Python float overflows to inf without a warning
        if not np.isfinite(h[0] * h[0] + h[1] * h[1]):
            raise ValueError(f"|h|^2 overflows for h = {h}")
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


def _picard_rhs(theta_vals: np.ndarray, coupling: tuple, out=None) -> np.ndarray:
    """h . (i e^{i theta} M) = a cos(theta + phi), ``coupling`` = (a, phi)."""
    amplitude, phi = coupling
    rhs = np.add(theta_vals, phi, out=out)
    np.cos(rhs, out=rhs)
    rhs *= amplitude
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
                 tol: float = 1e-9, max_iter: int = 50, coupling: tuple = None,
                 start: PolarField = None):
    """Solve theta = (-lap)^{-1}[h . (i e^{i theta} M)] from theta_0 = ``start``.

    Picard iteration with Anderson(2) extrapolation (module docstring).
    ``report.changes[k]`` is max|g(x_k) - x_k| for the k-th iterate x_k;
    the loop stops when it falls below ``tol`` and returns that last
    solve output g(x_k).  Non-convergence within ``max_iter`` is reported
    through ``report.converged``, never silently.  ``coupling`` is the
    ``(a, phi)`` of ``coupling_phase(config, grid, field.h)`` when the
    caller has it; the result is the same bit for bit.  ``field`` is
    read only to build the coupling, so with ``coupling`` it may be None.

    ``start`` defaults to theta_0 = 0, and a start of zeros gives that
    solve bit for bit.  For |h| < lambda_lo every start reaches the one
    stationary point of G (module docstring), so a search may start
    from a prediction made from nearby pairs; a start on another grid or
    with a non-finite value is refused before any solve.  The start is
    copied into the grid's ``EvaluationWork`` before the first solve, so
    it may live in that work's ``g[0]``.  The grid's
    ``EvaluationWork.x`` holds A_h theta of the returned theta until
    the next Picard solve on the grid.
    """
    require_picard_budget(tol, max_iter)
    if start is not None:
        if start.grid != grid:
            raise ValueError(f"start lives on grid {start.grid}, not {grid}")
        if not np.all(np.isfinite(start.values)):
            raise ValueError("start values must be finite")
    solver = solver_for(grid)
    if coupling is None:
        coupling = coupling_phase(config, grid, field.h)
    work = evaluation_work(grid)
    rhs, scratch, d_f, d_g = work.rhs, work.scratch, work.d_f, work.d_g
    # iteration k writes slot k % 2 of g, of f = g - x and of the two most
    # recent differences f_{j+1} - f_j and g_{j+1} - g_j; x is the last g,
    # or work.x for the start and each extrapolated iterate
    x = work.x
    if start is None:
        x.fill(0.0)
    else:
        np.copyto(x, start.values)
    pairs = 0
    accelerated = False
    changes = []
    converged = False
    for k in range(max_iter):
        _picard_rhs(x, coupling, out=rhs.values)
        theta = solver.solve(rhs, out=work.g[k % 2])
        g, f = theta.values, work.f[k % 2]
        np.subtract(g, x, out=f)
        change = float(np.max(np.abs(f, out=scratch)))
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
                # x = g - gamma0 d_g[0] - gamma1 d_g[1]
                x = np.subtract(g, np.multiply(gamma0, d_g[0], out=scratch), out=work.x)
                x -= np.multiply(gamma1, d_g[1], out=scratch)
                accelerated = True
            else:
                pairs = 0
    # A_h theta stays in work.x, where g_functional's kinetic term reads it
    a_theta = solver.apply(theta, out=work.x)
    lhs = np.subtract(a_theta, _picard_rhs(theta.values, coupling, out=rhs.values),
                      out=scratch)
    residual = float(np.max(np.abs(lhs, out=lhs)))
    # a fresh theta, which later solves on this grid cannot overwrite
    theta = PolarField(grid, theta.values.copy())
    report = FixedPointReport(
        iterations=len(changes), changes=tuple(changes),
        residual=residual, converged=converged,
    )
    return theta, report


#: the losing branch is skipped only when its bound exceeds the solved V
#: by this much times 1 + |L| + pi |h|, far above the rounding of V and L
_PRUNE_MARGIN = 1e-9


@dataclass
class Orientation:
    """The winning branch sigma of min over sigma of V(a; sigma h), and its solve.

    ``theta`` is the winning solve's theta when the call kept a record
    dict, which holds it anyway, and None without one, so that a call
    that solves both branches holds one theta at a time.
    ``loser_bound`` is the lower bound on the other branch's V, None
    when |h| >= lambda_lo.
    """

    sigma: int
    v: float
    report: FixedPointReport
    theta: PolarField | None
    branches_solved: int
    loser_bound: float | None

    def diagnostics(self) -> dict:
        """The winning solve and the branch choice, as artifacts report them."""
        report = self.report
        return {"iterations": report.iterations, "residual": report.residual,
                "final_change": report.changes[-1], "sigma": self.sigma,
                "branches_solved": self.branches_solved, "loser_bound": self.loser_bound}


def _loser_bound(moment: float, h_norm: float, lam: float) -> float | None:
    """|L| - |h|^2 pi / (2 (lambda_lo - |h|)) <= V(a; -sign(L) h), or None
    when |h| >= lambda_lo (module docstring), or when |h|^2 underflows
    and the rounding of the subnormal sums exceeds the bound's margin."""
    if h_norm >= lam or h_norm * h_norm < np.finfo(float).tiny:
        return None
    return abs(moment) - h_norm * h_norm * np.pi / (2.0 * (lam - h_norm))


def _start(record: tuple, s: tuple, grid: GridSpec) -> PolarField | None:
    """A branch's start at s from its record, its last three or fewer (s_i, theta_i).

    With three solves it is the affine fit sum lambda_i theta_i, whose
    weights solve sum lambda_i s_i = s, sum lambda_i = 1, with each s_i
    in the minimal-image chart at s (module docstring).  With fewer, or
    for three pairs on a line, it is the latest theta; for an empty
    record it is None, a cold start.  The fit is formed in the grid's
    ``EvaluationWork.g[0]``, which :func:`picard_solve` copies before
    its first solve writes there.
    """
    if len(record) < 3:
        return record[-1][1] if record else None
    # offsets from s in the chart (s - pi, s + pi]^2, relative to the latest pair
    a, b, c = (np.mod(np.subtract(p, s) + np.pi, TWO_PI) - np.pi for p, _ in record)
    u, v = a - c, b - c
    # every offset is a multiple of 2^-53, so a nonzero det is at least 2^-106,
    # each |lambda| is below 4 pi^2 2^106 < 1e34, and the combination is finite
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0.0:
        return record[-1][1]
    lam_a = (v[0] * c[1] - v[1] * c[0]) / det
    lam_b = (u[1] * c[0] - u[0] * c[1]) / det
    work = evaluation_work(grid)
    start, term = work.g[0], work.scratch
    np.multiply(lam_a, record[0][1].values, out=start.values)
    start.values += np.multiply(lam_b, record[1][1].values, out=term)
    start.values += np.multiply(1.0 - lam_a - lam_b, record[2][1].values, out=term)
    return start


def _branch(config: VortexConfig, h: tuple, sigma: int, coupling: tuple, grid: GridSpec,
            tol: float, max_iter: int, thetas: dict | None) -> tuple:
    """(V(a; sigma h), report, theta) from one Picard solve, or :class:`ConvergenceError`.

    ``coupling`` is the (a, phi) of h; the branch's is (sigma a, phi).
    When there is a dict, the solve starts from :func:`_start` of the
    branch's record ``thetas[sigma]`` and replaces that record with its
    last two solves and this one; otherwise it starts from 0 and the
    theta returned is None.
    """
    amplitude, phi = coupling
    record = () if thetas is None else thetas.get(sigma, ())
    theta, report = picard_solve(config, None, grid, tol=tol, max_iter=max_iter,
                                 coupling=(sigma * amplitude, phi),
                                 start=_start(record, config.angles, grid))
    if not report.converged:
        raise ConvergenceError(
            f"Picard iteration did not converge in {report.iterations} steps "
            f"(last change {report.changes[-1]:.3e})"
        )
    if thetas is not None:
        thetas[sigma] = record[-2:] + ((config.angles, theta),)
    # picard_solve left A_h theta in work.x
    v = g_functional(config, theta, (sigma * h[0], sigma * h[1]),
                     a_theta=evaluation_work(grid).x)
    return v, report, theta if thetas is not None else None


def min_over_orientations(config: VortexConfig, field: ExternalField, grid: GridSpec,
                          tol: float = 1e-9, max_iter: int = 50,
                          thetas: dict | None = None) -> Orientation:
    """min over sigma = +-1 of V(a; sigma h), for a pair in canonical order.

    The favoured branch sigma* = sign L (+1 at L = 0) is solved first;
    the other only when its lower bound does not clear the solved V by
    the rounding margin (module docstring).  The coupling is built once:
    its phi stays in the grid's work array, and each branch's
    ``g_functional`` rewrites it with the same bits.  Each branch solve
    starts from ``_start`` of its record ``thetas[sigma]``, the last
    three or fewer (s, theta) of that branch, and joins it (module
    docstring).  For |h| >= lambda_lo the dict is emptied first, so
    every solve starts from 0 and each record holds only its one cold
    solve.  Without ``thetas`` no theta outlives its branch, and the
    result's ``theta`` is None.
    """
    amplitude, phi, moment = coupling_phase(config, grid, field.h, moment=True)
    favoured = 1 if moment >= 0.0 else -1
    lam = solver_for(grid).lambda_min()
    bound = _loser_bound(moment, field.norm, lam)
    if thetas is not None and field.norm >= lam:
        thetas.clear()   # G need not be convex here: start from 0
    margin = _PRUNE_MARGIN * (1.0 + abs(moment) + np.pi * field.norm)
    branches = []
    for sigma in (favoured, -favoured):
        v, report, theta = _branch(config, field.h, sigma, (amplitude, phi), grid, tol,
                                   max_iter, thetas)
        branches.append((v, sigma, report, theta))
        if bound is not None and bound - margin > v:
            break
    v, sigma, report, theta = min(branches, key=lambda b: b[0])   # a tie keeps sigma*
    return Orientation(sigma, v, report, theta, len(branches), bound)


def total_energy(domain: ConformalDomain, config: VortexConfig, field: ExternalField,
                 grid: GridSpec, w0_nodes: int = 2048, tol: float = 1e-9,
                 max_iter: int = 50, thetas: dict | None = None) -> EnergyBreakdown:
    """W(a; h) = W_0(a) + min over sigma = +-1 of V(a; sigma h), on the disk or an oval.

    The two vortices are identical particles, so the configuration is
    put in canonical (sorted) label order first, and sigma is relative
    to the M of that order; the minimum over sigma makes W independent
    of the label order and of the angle origin.  theta is always solved
    on the unit disk against the disk canonical map, also for conformal
    domains.  The diagnostics carry the winning solve, its ``sigma``,
    ``branches_solved`` and ``loser_bound`` (:func:`min_over_orientations`).
    ``thetas`` carries a search's record of each branch from one call to
    the next, and for |h| < lambda_lo each solve starts from the affine
    fit through its branch's last three solves, or from its latest
    (:func:`min_over_orientations`); the breakdown's ``theta`` is then
    the winning solve.  Without it every solve starts from theta = 0,
    and ``theta`` is None.  W_0 on an oval is ``w0_conformal`` at
    ``w0_nodes``, from the boundary data shared by every call on that
    domain (``renorm.w0_boundary``).
    """
    config = config.canonical_order()
    diag = {"grid": (grid.n_r, grid.n_t), "w0_nodes": w0_nodes}
    if config.is_degenerate:
        return EnergyBreakdown(w0=float("inf"), v_ext=0.0, diagnostics=diag)
    w0 = w0_disk(config) if domain.is_disk else w0_conformal(domain, config, nodes=w0_nodes)
    if field.is_zero:
        return EnergyBreakdown(w0=w0, v_ext=0.0, diagnostics=diag)
    branch = min_over_orientations(config, field, grid, tol, max_iter, thetas=thetas)
    diag.update(branch.diagnostics())
    return EnergyBreakdown(w0=w0, v_ext=branch.v, diagnostics=diag, theta=branch.theta)


def v_gradient(angles, theta: PolarField) -> np.ndarray:
    """(dV/ds_1, dV/ds_2) at a solved pair, from its winning theta alone.

    theta is a stationary point of the discrete G, so by the envelope
    theorem (Danskin, The Theory of Max-Min, 1967) dV/ds_j is the partial
    derivative of G at fixed theta, -sum w a cos(theta + phi) dphi/ds_j.
    At the fixed point a cos(theta + phi) = A_h theta to the Picard
    tolerance, from one operator apply.  With a_j = e^{i s_j} and
    Re(a_1 / (a_1 - a_2)) = 1/2 on the circle, phi = arg(i conj(h) M) gives
    dphi/ds_j = -Re(a_j / (x - a_j)) - 1/2 = (1 - r^2) / (2 |x - a_j|^2)
    at x = r e^{it}: pi times the Poisson kernel at a_j.  The branch sign
    is in theta and the kernel belongs to each vortex, so ``angles`` may
    come in either label order.  No map is built and no solve is started;
    the grid-sized terms are formed in the grid's ``EvaluationWork``.
    """
    grid = theta.grid
    work = evaluation_work(grid)
    r = grid.r[:, None]
    weighted = solver_for(grid).apply(theta, out=work.scratch)
    weighted *= grid.cell_weights() * (0.5 * (1.0 - r * r))
    term = work.rhs.values
    slopes = []
    for s in angles:
        # |x - a_j|^2 = 1 + r^2 - 2 r cos(t - s_j)
        np.multiply(-2.0 * r, np.cos(grid.t - s), out=term)
        term += 1.0 + r * r
        slopes.append(-float(np.sum(np.divide(weighted, term, out=term))))
    return np.array(slopes)


def energy_gradient(domain: ConformalDomain, angles, theta: PolarField | None,
                    w0_nodes: int = 2048) -> np.ndarray:
    """(dW/ds_1, dW/ds_2) of a distinct solved pair, in the label order of ``angles``.

    W_0's part is the disk's closed form, and on an oval the gradient of
    the boundary data at ``w0_nodes`` that :func:`total_energy`'s W_0
    reads (``renorm.w0_boundary``); V's part is :func:`v_gradient` of the
    winning ``theta``, which is None only at h = 0, where V = 0.
    """
    if domain.is_disk:
        w0 = w0_disk_gradient(angles)
    else:
        w0 = w0_boundary(domain, w0_nodes).gradient(angles)
    return w0 if theta is None else w0 + v_gradient(angles, theta)


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
    fraction of a cell (seeded, reproducible); an offset past the pole
    continues through it, and only ``SAMPLE_R_MAX`` clips.  A jitter of
    at most 2 (n_r + 1) moves a first-ring point at most ``SAMPLE_R_MAX``
    past the pole, so every point lies inside the disk.
    """

    n_r: int = 16
    n_t: int = 48
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ValueError(f"sample lattice needs at least 1 x 1 points, "
                             f"got {self.n_r} x {self.n_t}")
        if not (np.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValueError(f"jitter must be finite and non-negative, got {self.jitter}")
        if self.jitter > 2 * (self.n_r + 1):
            raise ValueError(f"jitter {self.jitter} exceeds 2 (n_r + 1) = {2 * (self.n_r + 1)} "
                             f"for n_r = {self.n_r}, past which samples leave the disk")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def disk_points(self) -> np.ndarray:
        r = (np.arange(self.n_r) + 1.0) / self.n_r * SAMPLE_R_MAX
        t = np.arange(self.n_t) * TWO_PI / self.n_t
        R, T = np.meshgrid(r, t, indexing="ij")
        if self.jitter > 0.0:
            rng = np.random.default_rng(self.seed)
            R = R + (rng.random(R.shape) - 0.5) * self.jitter * SAMPLE_R_MAX / self.n_r
            T = T + (rng.random(T.shape) - 0.5) * self.jitter * TWO_PI / self.n_t
            R = np.minimum(R, SAMPLE_R_MAX)   # R < 0 lands past the pole
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

    ``solver`` holds the winning branch's solve and the branch choice, as
    in :func:`total_energy`'s diagnostics; it is empty at h = 0, where
    theta = 0 needs no solve.
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
                        tol: float = 1e-9, max_iter: int = 50,
                        solved: EnergyBreakdown | None = None) -> MagnetizationField:
    """Sample m = sigma e^{i theta} M (disk) or its conformal pushforward (oval).

    The configuration is put in canonical label order first, and sigma
    and theta are the winning branch of a :func:`total_energy`
    breakdown, so the state sampled is the one it scores.  theta is
    bilinearly interpolated off-grid; the exponential keeps |m| = 1
    exactly.  Sample points inside the vortex guard are skipped and
    counted; none lies outside the disk (:class:`SampleSpec`).
    ``solved`` is a search's breakdown at this pair
    (``optimize.NelderMeadResult.best``), whose theta, sigma and solve
    are taken with no further solve; without it the breakdown is that of
    ``total_energy`` with a fresh record dict, whose solves start from
    theta = 0.  At h = 0, theta = 0 needs no solve.
    """
    config = config.canonical_order()
    if solved is None:
        solved = total_energy(domain, config, field, grid, tol=tol, max_iter=max_iter,
                              thetas={})
    solver = {k: v for k, v in solved.diagnostics.items() if k not in ("grid", "w0_nodes")}
    theta = PolarField.zeros(grid) if solved.theta is None else solved.theta
    sigma = solver.get("sigma", 1)

    pts = sample.disk_points()
    guard = max(SINGULARITY_GUARD, 1e-9)
    keep = np.all([np.abs(pts - a) > guard for a in config.positions], axis=0)
    skipped = int(np.count_nonzero(~keep))
    pts = pts[keep]

    m = sigma * np.exp(1j * interpolate_field(theta, pts)) * pushforward_disk(domain, config, pts)

    samples = [
        VectorFieldSample(float(p.real), float(p.imag), float(v.real), float(v.imag))
        for p, v in zip(domain.forward(pts), m)
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
    discrete minimizer; this routine only ever applies the operator and
    the mode-wise preconditioner M^{-1} (no linear solves).  Each step
    is y - tau M^{-1} grad G with tau = 1 / (1 + 2 |h| / min D), below
    the inverse Lipschitz constant of the gradient in the M-metric
    (module docstring), and carries Nesterov momentum that restarts
    whenever the gradient points along the last step, <grad G, x_next - x>_w > 0
    (O'Donoghue & Candes, Found. Comput. Math. 15, 2015).  That test is a
    directional derivative, the same in every metric, and neither needs
    a value of G.  The descent stops once the max-norm of the discrete
    Euler-Lagrange gradient falls below 1e-8, or after 400 000 iterations.

    Returns ``(theta, iterations, residual)`` where ``residual`` is the
    max-norm of that gradient at ``theta``.
    """
    solver = solver_for(grid)
    coupling = coupling_phase(config, grid, field.h)
    wgt = grid.cell_weights()
    step = 1.0 / (1.0 + 2.0 * field.norm / solver.diag_min)

    # every step writes into these; y and grad G are wrapped as fields once
    x, x_next, grad, diff, tmp = np.zeros((5, grid.n_r, grid.n_t))
    y = PolarField(grid, np.zeros_like(x))
    grad_field = PolarField(grid, grad)
    t = 1.0
    iterations = 0
    while True:
        solver.apply(y, out=grad)
        grad -= _picard_rhs(y.values, coupling, out=tmp)
        residual = float(np.max(np.abs(grad, out=tmp)))
        if not np.isfinite(residual):
            raise ConvergenceError("descent gradient is not finite")
        if residual < 1e-8 or iterations >= 400_000:
            break
        solver.precondition(grad_field, out=tmp)
        tmp *= step
        np.subtract(y.values, tmp, out=x_next)
        np.subtract(x_next, x, out=diff)
        np.multiply(wgt, grad, out=tmp)
        tmp *= diff
        if np.sum(tmp) > 0.0:
            t = 1.0
            np.copyto(y.values, x_next)
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            np.multiply((t - 1.0) / t_next, diff, out=y.values)
            y.values += x_next
            t = t_next
        x, x_next = x_next, x
        iterations += 1
    return y, iterations, residual
