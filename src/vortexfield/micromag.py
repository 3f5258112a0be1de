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
overwrites it, or the work's own, which ``total_energy`` copies only if
it wins.  The residual's A_h theta stays in that work, and
``g_functional`` reads it for the kinetic term: one operator apply per
solve run to convergence, and one per bound check (below).

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
that end in the gradient finish, a solve run to convergence takes 7.0
iterations, against 7.9 from the latest theta alone, not counting the
solves cut short by a bound (below).  Thetas outlive their solve in the
dict ``thetas``, one key per branch: ``thetas[sigma]`` is its record,
the tuple of its last three or fewer (s, theta), oldest first, from
which ``_start`` picks the fit, the latest theta or, when empty, 0.
Only ``_start`` and ``total_energy`` read that layout, and
``total_energy`` hands the winning theta on in its breakdown
(``EnergyBreakdown.theta``), which ``magnetization_field`` samples with
no further solve.  A search keeps one dict across calls; a call given
none keeps its winning theta alone.  For |h| >= lambda_lo, where a
start can reach another fixed point, the dict is neither read, written
nor cleared, and the call runs as one given none; there, and for every
solve outside a search, theta_0 = 0.

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
costs one weighted sum of the q the map builds anyway.

One inequality gives ``total_energy``'s loop its three shortcuts.  Below
lambda_lo, G is strongly convex with modulus lambda_lo - |h| in the
w-norm (above), so at any theta

    V >= G(theta) - ||grad G(theta)||_w^2 / (2 (lambda_lo - |h|))

(Boyd & Vandenberghe, Convex Optimization, 2004, sec. 9.1.2), with the
gradient grad G = A_h theta - a cos(theta + phi).  At theta = 0 it
needs no solve.  There G_sigma(0) = -sigma sum w a sin phi = -sigma L,
that is -|L| for sigma* = sign L (+1 at L = 0) and +|L| for -sigma*,
and ||grad G(0)||_w = |h| ||cos phi||_w <= |h| sqrt(pi), since
sum w = pi.  So

    V(a; -sigma* h) >= B = |L| - |h|^2 pi / (2 (lambda_lo - |h|)),

the loser bound, and V(a; sigma* h) <= G_{sigma*}(0) = -|L|.  The loop
solves sigma* first, and skips the other branch when B exceeds the
solved V* by a rounding margin; a skipped branch would have lost, so W
is bitwise the minimum of both branches solved, and ties go to the
favoured branch.  A search asks of most pairs only whether W beats a
value it already holds, so a branch solve may stop once V is certainly
at least a threshold t (``picard_solve``'s ``above``).  The favoured
branch gets a search's threshold less W_0 unless W_0 - |L| is below it:
then the pair may win, and V is needed exactly.  The other branch runs
against the lower of that and the favoured V, which cuts a losing
orientation in every call.

Inside a solve the inequality is read at a solve output
g_k = A_h^{-1} a cos(x_k + phi).  There |cos(x_k + phi) - cos(g_k + phi)|
<= |g_k - x_k| at every node, so

    ||grad G(g_k)||_w <= |a| ||g_k - x_k||_w + ||A_h g_k - a cos(x_k + phi)||_w,

the second term being the solve's rounding.  A check applies A_h to g_k
once, for that term and for the kinetic term of G(g_k), which
``renorm.g_value`` forms with the operations of ``g_functional``; the
branch's ``g_functional`` then reads the same A_h g_k, so the G it
reports is the G checked, bit for bit.  The solve stops when G(g_k)
less the squared bound over 2 (lambda_lo - |h|) and the margin
``_PRUNE_MARGIN`` (1 + pi |h|) reaches t, and the branch reports that
certified lower bound in place of V.  A check is made only when the
cheap first term could decide, that is while the latest G checked
(+inf before the first) less the first term's square over
2 (lambda_lo - |h|) reaches t, and none after a G(g_k) < t, since then
V <= G(g_k) < t and the value is needed exactly.  No tunable constant
enters, and nothing is skipped or cut for |h| >= lambda_lo.

The solve also gives W its exact gradient in the pair
(``energy_gradient``), carried by each finite, unbounded breakdown of
``total_energy`` for ``optimize``'s gradient finish.  Since theta* is a
stationary point of the discrete G, the envelope theorem makes dV/ds_j
the partial derivative of G at fixed theta*, formed from A_h theta* and
the derivative of phi, a Poisson kernel at a_j: no map, and no solve.
W_0's part is closed form too (``renorm.w0_gradient``): the disk's
-+(pi/2) cot((s_1 - s_2)/2) plus (pi/2) Im(z Phi''/Phi') at each vortex
z = e^{i s_j}, and on the disk the cotangent alone.

The oval experiments reuse the disk solve unchanged: theta is always
computed on the unit disk against the disk canonical map, and only the
displayed magnetization is pushed forward through the conformal map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

# canonical_map_disk stays importable from here: the benchmark's span tracer
# rebinds this copy (the map itself is built by renorm.coupling_phase)
from .canonical import SINGULARITY_GUARD, VortexConfig, canonical_map_disk, pushforward_disk
from .errors import ConvergenceError
from .geom import TWO_PI, ConformalDomain, wrap
from .poisson import GridSpec, PolarField, solver_for
from .renorm import (EnergyBreakdown, coupling_phase, evaluation_work, g_functional, g_value,
                     w0_conformal, w0_gradient)


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
    """Trajectory of one Picard solve.

    ``gap`` is None for a solve that ran to convergence or out of
    iterations.  A solve that stopped on its threshold (``picard_solve``'s
    ``above``) is not converged, and ``gap`` is how far V may lie below
    G at the theta it returned: G(theta) - ``gap`` is a certified lower
    bound on V that is at least the threshold.
    """

    iterations: int
    changes: tuple
    residual: float
    converged: bool
    gap: float | None = None


def _picard_rhs(theta_vals: np.ndarray, coupling: tuple, out=None) -> np.ndarray:
    """h . (i e^{i theta} M) = a cos(theta + phi), ``coupling`` = (a, phi)."""
    amplitude, phi = coupling
    rhs = np.add(theta_vals, phi, out=out)
    np.cos(rhs, out=rhs)
    rhs *= amplitude
    return rhs


def _max_abs(u: np.ndarray) -> float:
    """max |u|, from the extremes of u, with no array written."""
    return max(float(u.max()), -float(u.min()))


def _norm_w(u: np.ndarray, weights: np.ndarray) -> float:
    """||u||_w = (sum w u^2)^(1/2), ``weights`` the grid's (n_r,) radial weights."""
    return float(np.sqrt(weights @ np.einsum("ij,ij->i", u, u)))


#: a certified bound is lowered by this much times 1 + |L| + pi |h| (or
#: 1 + pi |h| inside a solve), far above the rounding of V, L and G
_PRUNE_MARGIN = 1e-9


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
                 start: PolarField = None, above: float | None = None, copy: bool = True):
    """Solve theta = (-lap)^{-1}[h . (i e^{i theta} M)] from theta_0 = ``start``.

    Picard iteration with Anderson(2) extrapolation (module docstring).
    The least-squares problem reads two stacked ``einsum``s over the two
    residual differences per iteration: the newest difference against
    both, and both against the residual; the older difference's own
    product carries over from the iteration that formed it.
    ``report.changes[k]`` is max|g(x_k) - x_k| for the k-th iterate x_k,
    read from the extremes of g(x_k) - x_k with no |.| array written;
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
    the next Picard solve on the grid; with ``copy`` False, so does the
    theta returned, which is then that work's ``g`` slot.

    With a finite ``above`` and |a| < lambda_lo, the solve may stop before
    it converges, once V >= ``above`` is certain (module docstring): at a
    solve output g_k it forms G(g_k) with ``renorm.g_value`` and the
    gradient bound, and when G(g_k) less the bound and ``_PRUNE_MARGIN``
    reaches ``above`` it returns g_k, with ``report.converged`` False and
    that gap in ``report.gap``.  It checks only while the latest G
    checked (+inf at first), less the bound's cheap first term, reaches
    ``above``, and not again once a G falls below it.  Each check is one
    operator apply, whose A_h g_k stays in ``EvaluationWork.x``.
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
    gram = [0.0, 0.0]   # <d_f[i], d_f[i]> of each difference slot
    accelerated = False
    changes = []
    converged = False
    gap = None
    amplitude = abs(coupling[0])
    lam = solver.lambda_min()
    checking = above is not None and np.isfinite(above) and amplitude < lam
    if checking:
        weights = grid.cell_weights()[:, 0]
        two_mu = 2.0 * (lam - amplitude)   # mu: the strong-convexity modulus of G
        margin = _PRUNE_MARGIN * (1.0 + np.pi * amplitude)
        checked = np.inf
    for k in range(max_iter):
        _picard_rhs(x, coupling, out=rhs.values)
        theta = solver.solve(rhs, out=work.g[k % 2])
        g, f = theta.values, work.f[k % 2]
        np.subtract(g, x, out=f)
        change = _max_abs(f)
        changes.append(change)
        if change < tol:
            converged = True
            break
        if checking:
            # |grad G(g_k)|_w <= |a| |g_k - x_k|_w + |A_h g_k - a cos(x_k + phi)|_w
            first = amplitude * _norm_w(f, weights)
            if checked - first * first / two_mu - margin >= above:
                # x is spent: f holds g_k - x_k and rhs a cos(x_k + phi)
                a_theta = solver.apply(theta, out=work.x)
                second = _norm_w(np.subtract(a_theta, rhs.values, out=scratch), weights)
                checked = g_value(theta, a_theta, coupling)
                bound_gap = (first + second) ** 2 / two_mu + margin
                if checked - bound_gap >= above:
                    gap = bound_gap
                    break
                checking = checked >= above
        if accelerated and change > changes[-2]:
            pairs = 0   # the extrapolation made things worse: drop the history
        elif k > 0:
            new = k % 2
            np.subtract(f, f_prev, out=d_f[new])
            np.subtract(g, g_prev, out=d_g[new])
            pairs = min(pairs + 1, 2)
            if pairs == 1:
                gram[new] = float(np.einsum("ij,ij->", d_f[new], d_f[new]))
            else:
                # the older difference's own product carries over
                products = np.einsum("kij,ij->k", d_f, d_f[new])
                gram[new], off_diagonal = float(products[new]), float(products[1 - new])
        f_prev, g_prev = f, g
        x, accelerated = g, False
        if pairs == 2:
            a, c = gram
            det = a * c - off_diagonal * off_diagonal
            if det > _SINGULAR_GRAM * a * c:
                p, q = np.einsum("kij,ij->k", d_f, f).tolist()
                gamma0 = (c * p - off_diagonal * q) / det
                gamma1 = (a * q - off_diagonal * p) / det
                # x = g - gamma0 d_g[0] - gamma1 d_g[1]
                x = np.subtract(g, np.multiply(gamma0, d_g[0], out=scratch), out=work.x)
                x -= np.multiply(gamma1, d_g[1], out=scratch)
                accelerated = True
            else:
                pairs = 0
    # A_h theta stays in work.x, where g_functional's kinetic term reads it;
    # a stop on the bound has just put it there
    if gap is None:
        a_theta = solver.apply(theta, out=work.x)
    lhs = np.subtract(a_theta, _picard_rhs(theta.values, coupling, out=rhs.values),
                      out=scratch)
    residual = _max_abs(lhs)
    if copy:   # a fresh theta, which later solves on this grid cannot overwrite
        theta = PolarField(grid, theta.values.copy())
    report = FixedPointReport(
        iterations=len(changes), changes=tuple(changes),
        residual=residual, converged=converged, gap=gap,
    )
    return theta, report


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


def total_energy(domain: ConformalDomain, config: VortexConfig, field: ExternalField,
                 grid: GridSpec, w0_nodes: int = 2048, tol: float = 1e-9,
                 max_iter: int = 50, thetas: dict | None = None,
                 above: float | None = None) -> EnergyBreakdown:
    """W(a; h) = W_0(a) + min over sigma = +-1 of V(a; sigma h), on the disk or an oval.

    The two vortices are identical particles, so the configuration is
    put in canonical (sorted) label order first, and sigma is relative
    to the M of that order; the minimum over sigma makes W independent
    of the label order and of the angle origin.  theta is always solved
    on the unit disk against the disk canonical map, also for conformal
    domains.  W_0 is the closed form ``w0_conformal`` on every domain;
    ``w0_nodes`` sets the trapezoid rule of its domain constant, one per
    (domain, nodes) in the process (``renorm.w0_constant``).

    One loop solves the branches, sigma* = sign L (+1 at L = 0) first,
    and takes its three shortcuts from the module docstring's one bound.
    Each solve starts from ``_start`` of its branch's record
    ``thetas[sigma]`` and joins it (module docstring); for
    |h| >= lambda_lo the dict is neither read, written nor cleared, and
    the call runs as one without it.  Without ``thetas`` every solve
    starts from theta = 0, and the second branch's theta stays in the
    work, copied out only if it wins, after the first's is freed: one
    theta at a time.  The coupling is built once: its phi stays in the
    grid's work array, and each branch's ``g_functional`` rewrites it
    with the same bits.  A solve that neither converges nor stops on its
    threshold raises :class:`ConvergenceError`.

    A solve stopped on its threshold (:func:`picard_solve`, below
    lambda_lo only) gives G of its theta less ``report.gap``, a
    certified lower bound on V, with no theta, and leaves its record as
    it was.  The other branch always runs against the favoured one's
    value, so a losing orientation is cut or skipped and W stays exact.
    With ``above``, the favoured branch runs against ``above`` - W_0
    unless W_0 - |L| < ``above``, and the other against the lower of the
    two.  When the lowest value is a cut branch's bound the breakdown is
    ``bounded``: its ``v_ext`` is a certified lower bound on V, its
    total is above ``above`` and it has no theta.  Otherwise ``theta``
    is the winning solve (None at h = 0), and ``gradient`` reads it in
    :func:`energy_gradient` at the angles in the order given.

    The diagnostics are the winning solve's ``iterations``, ``residual``
    and ``final_change``, its ``sigma``, ``branches_solved``, the count
    of solves run to convergence, and ``loser_bound`` (None when
    |h| >= lambda_lo); they are empty for a degenerate pair, which has
    no gradient either, and at h = 0, where nothing is solved.
    """
    angles = config.angles
    config = config.canonical_order()
    if config.is_degenerate:
        return EnergyBreakdown(w0=float("inf"), v_ext=0.0)
    w0 = w0_conformal(domain, config, nodes=w0_nodes)
    if field.is_zero:
        return EnergyBreakdown(w0=w0, v_ext=0.0,
                               gradient=partial(energy_gradient, domain, angles, None))
    amplitude, phi, moment = coupling_phase(config, grid, field.h, moment=True)
    favoured = 1 if moment >= 0.0 else -1
    h_norm = field.norm
    lam = solver_for(grid).lambda_min()
    # the bound at theta = 0 on V(a; -sigma* h); none past lambda_lo, nor when
    # |h|^2 underflows and the subnormal sums of L and V round past the margin
    if h_norm >= lam:
        bound, thetas = None, None   # G need not be convex: solve from 0, record nothing
    elif h_norm * h_norm < np.finfo(float).tiny:
        bound = None
    else:
        bound = abs(moment) - h_norm * h_norm * np.pi / (2.0 * (lam - h_norm))
    margin = _PRUNE_MARGIN * (1.0 + abs(moment) + np.pi * h_norm)
    # V above this puts W above `above` beyond the rounding of W_0 + V
    limit = np.inf if above is None else above - w0 + margin
    branches = []
    for sigma in (favoured, -favoured):
        if branches:
            threshold = min(limit, branches[0][0])
        else:
            # V <= G(0) = -|L|: below `limit` the pair may win and needs V exactly
            threshold = limit if -abs(moment) >= limit else None
        record = thetas.get(sigma, ()) if thetas else ()
        theta, report = picard_solve(config, None, grid, tol=tol, max_iter=max_iter,
                                     coupling=(sigma * amplitude, phi),
                                     start=_start(record, config.angles, grid),
                                     above=threshold, copy=thetas is not None or not branches)
        if not report.converged and report.gap is None:
            raise ConvergenceError(
                f"Picard iteration did not converge in {report.iterations} steps "
                f"(last change {report.changes[-1]:.3e})"
            )
        # picard_solve left A_h theta in work.x; G is bitwise the one its check formed
        v = g_functional(config, theta, (sigma * field.h[0], sigma * field.h[1]),
                         a_theta=evaluation_work(grid).x)
        if report.gap is not None:
            v, theta = v - report.gap, None
        elif thetas is not None:
            thetas[sigma] = record[-2:] + ((config.angles, theta),)
        elif branches and v < branches[0][0]:   # the work's theta wins: free the other first
            branches[0] = branches[0][:3] + (None,)
            theta = PolarField(grid, theta.values.copy())
        elif branches:
            theta = None   # the work's theta loses (a tie keeps sigma*)
        branches.append((v, sigma, report, theta))
        if bound is not None and bound - margin > v:
            break
    v, sigma, report, theta = min(branches, key=lambda b: b[0])   # a tie keeps sigma*
    diagnostics = {"iterations": report.iterations, "residual": report.residual,
                   "final_change": report.changes[-1], "sigma": sigma,
                   "branches_solved": sum(b[2].converged for b in branches),
                   "loser_bound": bound}
    bounded = report.gap is not None
    gradient = None if bounded else partial(energy_gradient, domain, angles, theta)
    return EnergyBreakdown(w0=w0, v_ext=v, diagnostics=diagnostics, theta=theta,
                           gradient=gradient, bounded=bounded)


def energy_gradient(domain: ConformalDomain, angles, theta: PolarField | None) -> np.ndarray:
    """(dW/ds_1, dW/ds_2) of a distinct solved pair, in the label order of ``angles``.

    W_0's part is the closed form ``renorm.w0_gradient``, which reads no
    node count: the disk's -+(pi/2) cot((s_1 - s_2)/2) plus
    (pi/2) Im(z Phi''/Phi') at each vortex z = e^{i s_j}.
    V's part reads the winning theta alone, None only at h = 0, where
    V = 0.  theta is a stationary point of the discrete G, so by the
    envelope theorem (Danskin, The Theory of Max-Min, 1967) dV/ds_j is
    the partial derivative of G at fixed theta,
    -sum w a cos(theta + phi) dphi/ds_j.
    At the fixed point a cos(theta + phi) = A_h theta to the Picard
    tolerance, from one operator apply.  With a_j = e^{i s_j} and
    Re(a_1 / (a_1 - a_2)) = 1/2 on the circle, phi = arg(i conj(h) M) gives
    dphi/ds_j = -Re(a_j / (x - a_j)) - 1/2 = (1 - r^2) / (2 |x - a_j|^2)
    at x = r e^{it}: pi times the Poisson kernel at a_j.  The branch sign
    is in theta and the kernel belongs to each vortex, so ``angles`` may
    come in either label order.  No map is built and no solve is started;
    the grid-sized terms are formed in the grid's ``EvaluationWork``.
    """
    w0 = w0_gradient(domain, angles)
    if theta is None:
        return w0
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
    return w0 + np.array(slopes)


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

    ``energy`` is the :func:`total_energy` breakdown of the state sampled;
    its diagnostics are the winning branch's solve and the branch choice,
    empty at h = 0, where theta = 0 needs no solve.
    """

    samples: list
    skipped: int
    vortex_positions: tuple
    energy: EnergyBreakdown


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
    t = wrap(np.angle(points))

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
                        solved: EnergyBreakdown | None = None) -> MagnetizationField:
    """Sample m = sigma e^{i theta} M (disk) or its conformal pushforward (oval).

    The configuration is put in canonical label order first, and sigma
    and theta are the winning branch of a :func:`total_energy`
    breakdown, so the state sampled is the one it scores.  theta is
    bilinearly interpolated off-grid; the exponential keeps |m| = 1
    exactly.  Sample points inside the vortex guard are skipped and
    counted; none lies outside the disk (:class:`SampleSpec`).
    ``solved`` is an objective's breakdown at this pair
    (``optimize.energy_objective``; the ``field`` command passes one in
    both modes), whose theta, sigma and solve are taken with no further
    solve.  Without it the breakdown is a plain ``total_energy`` call's,
    with that function's default settings, so its solves start from
    theta = 0.  At h = 0, theta = 0 needs no solve.
    """
    config = config.canonical_order()
    if solved is None:
        solved = total_energy(domain, config, field, grid)
    theta = PolarField.zeros(grid) if solved.theta is None else solved.theta
    sigma = solved.diagnostics.get("sigma", 1)

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
                              vortex_positions=vortices, energy=solved)


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
        residual = _max_abs(grad)
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
