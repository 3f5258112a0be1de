"""Minimization of the renormalized energy over vortex angles.

The search space is the two-torus of angle pairs (s_1, s_2).  A
Nelder-Mead simplex (reflect 1, expand 2, contract 1/2, shrink 1/2,
matching the classic fminsearch coefficients) drives the local search;
an exhaustive grid scan with one local refinement acts as the
brute-force oracle.  All simplex arithmetic happens in the minimal-image
chart centered at the current best vertex, so centroids and shrinks
never tear across the 0 / 2 pi seam; stored and reported angles are
always wrapped to [0, 2 pi).

Near a smooth minimum the simplex converges only linearly, by one
contraction after another (Lagarias, Reeds, Wright & Wright, SIAM J.
Optim. 9, 1998).  So once per search, when the three vertex values
agree to ``_FTOL`` but the simplex is still wider than ``_XTOL``, the
search hands its end game to Newton steps on a central-difference
model (Conn, Scheinberg & Vicente, Introduction to Derivative-Free
Optimization, SIAM 2009):

- the stencil: at the lowest point x evaluated so far and the scale
  eta, which starts at the simplex diameter, the values at x +- eta e_1,
  x +- eta e_2 and x + eta (e_1 + e_2) give the central-difference
  gradient, the second differences H_11 and H_22, and the forward mixed
  difference H_12;
- the trust rule: the step p = -H^-1 g is taken only when H is positive
  definite and |p|_inf <= eta, since the model holds only within its
  own stencil;
- the stop rule: a step with |p|_inf < ``_XTOL`` ends the search,
  converged; otherwise x + p is evaluated, and if it is lower than
  every point evaluated so far the next step starts there with
  eta = max(|p|_inf, ``_XTOL``);
- the fallback: a stencil value that is not finite, an H that is not
  positive definite, a step longer than eta, or an x + p with no
  decrease hands the search back to the simplex, with its best vertex
  replaced by the lowest point the finish found; the simplex then ends
  on its own test;
- the budget: it is checked before every stencil point and before
  x + p, as before every simplex evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .canonical import VortexConfig
from .errors import ConfigurationError, ConvergenceError
from .geom import TWO_PI, ConformalDomain
from .micromag import ExternalField, total_energy
from .poisson import GridSpec
from .renorm import EnergyBreakdown


def _wrap(s: np.ndarray) -> np.ndarray:
    return np.mod(s, TWO_PI)


def _torus_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    return float(np.max(np.minimum(d, TWO_PI - d)))


def _chart(points, center):
    """Represent points in the chart (center - pi, center + pi]^2."""
    return [center + np.mod(p - center + np.pi, TWO_PI) - np.pi for p in points]


#: initial simplex edge, radians
_STEP = 0.25
#: torus diameter tolerance
_XTOL = 1e-6
#: value spread tolerance
_FTOL = 1e-6


@dataclass
class SimplexState:
    """Operation counts and best value per step of a simplex run.

    ``"newton"`` counts the steps the Newton finish takes; every other
    key counts a simplex step.
    """

    operations: dict = dataclass_field(default_factory=lambda: {
        "reflect": 0, "expand": 0, "contract": 0, "shrink": 0, "newton": 0})
    best_history: list = dataclass_field(default_factory=list)

    def record(self, values):
        best = min(values)
        if not self.best_history or best < self.best_history[-1]:
            self.best_history.append(best)
        else:
            self.best_history.append(self.best_history[-1])


#: the finish's stencil around x, in units of the scale eta: +-e_1, +-e_2, e_1 + e_2
_STENCIL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])


def _newton_finish(f, spent, x, fx, eta, state):
    """Newton steps on a central-difference model, from the lowest point x.

    Returns the lowest point evaluated, first on ties, its value, and
    whether a step shorter than ``_XTOL`` was computed at a positive
    definite model Hessian.  The stencil, trust rule, stop rule, fallback
    and budget rule are those of the module docstring; a step taken
    counts as one ``"newton"`` operation.
    """
    low, f_low = x, fx
    while True:
        values = []
        for d in _STENCIL:
            if spent():
                return low, f_low, False
            point = x + eta * d
            values.append(f(point))
            if values[-1] < f_low:
                low, f_low = _wrap(point), values[-1]
        if not np.all(np.isfinite(values)):
            return low, f_low, False
        f_p1, f_m1, f_p2, f_m2, f_pp = values
        g1, g2 = (f_p1 - f_m1) / (2.0 * eta), (f_p2 - f_m2) / (2.0 * eta)
        h11 = (f_p1 - 2.0 * fx + f_m1) / eta**2
        h22 = (f_p2 - 2.0 * fx + f_m2) / eta**2
        h12 = (f_pp - f_p1 - f_p2 + fx) / eta**2
        det = h11 * h22 - h12 * h12
        if not (h11 > 0.0 and det > 0.0):
            return low, f_low, False
        p = np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2]) / det
        step = float(np.max(np.abs(p)))
        if not step <= eta:
            return low, f_low, False
        if step < _XTOL:
            state.operations["newton"] += 1
            return low, f_low, True
        if spent():
            return low, f_low, False
        f_new = f(x + p)
        if not f_new < f_low:
            return low, f_low, False
        state.operations["newton"] += 1
        x = low = _wrap(x + p)
        fx = f_low = f_new
        eta = max(step, _XTOL)
        state.record([f_low])


@dataclass
class NelderMeadResult:
    s_min: tuple
    value: float
    converged: bool
    evaluations: int
    state: SimplexState


def nelder_mead(objective, s0, max_evals: int = 500) -> NelderMeadResult:
    """Minimize a 2 pi-periodic objective over angle pairs.

    Infinite objective values are legal and always rank worst, so the
    simplex escapes the degenerate diagonal by contraction and shrink.
    A start whose three vertices are all +inf returns unconverged after
    those three evaluations: the search has nothing to rank.

    The first time the three vertex values are finite and agree to
    ``_FTOL`` while the simplex diameter is still at least ``_XTOL``,
    the search runs the Newton finish of the module docstring from its
    best vertex, with the diameter as the first stencil scale: five
    stencil evaluations per step, a step only at a positive-definite
    model Hessian and no longer than the scale, and x + p kept only if
    it is lower than every point evaluated so far.  Any other outcome
    hands the search back to the simplex, whose best vertex becomes the
    lowest point the finish found.  ``converged`` is True when either
    the simplex diameter fell below ``_XTOL`` with its finite values
    within ``_FTOL``, or the finish computed a step shorter than
    ``_XTOL`` at a positive-definite model Hessian.  ``s_min`` and
    ``value`` are always the lowest value the objective returned, the
    first one on ties.

    The budget is checked before every evaluation after the starting
    three, the finish's included, so an unconverged run uses exactly
    ``max(3, max_evals)``.  A step the budget cuts short keeps what it
    evaluated: a reflection that beat the best vertex is taken without
    its expansion, a shrink keeps the vertices it re-evaluated, and a
    cut Newton step keeps the lowest stencil point.
    """
    state = SimplexState()
    evals = 0

    def f(p):
        nonlocal evals
        evals += 1
        return float(objective(_wrap(np.asarray(p, dtype=float))))

    def spent():
        return evals >= max_evals

    s0 = _wrap(np.asarray(s0, dtype=float))
    points = [s0,
              _wrap(s0 + np.array([_STEP, 0.0])),
              _wrap(s0 + np.array([0.0, _STEP]))]
    values = [f(p) for p in points]
    state.record(values)

    converged = finished = False
    # the best vertex is only ever replaced by a lower value, so only the
    # starting simplex can be all +inf
    searching = any(np.isfinite(values))
    while searching and not spent():
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]

        finite = [v for v in values if np.isfinite(v)]
        diam = max(_torus_dist(points[0], points[1]),
                   _torus_dist(points[0], points[2]))
        if len(finite) == 3 and finite[-1] - finite[0] < _FTOL:
            if diam < _XTOL:
                converged = True
                break
            if not finished:
                finished = True
                points[0], values[0], converged = _newton_finish(
                    f, spent, points[0], values[0], diam, state)
                state.record(values)
                if converged:
                    break
                continue

        best, mid, worst = _chart(points, points[0])
        centroid = 0.5 * (best + mid)

        reflected = centroid + 1.0 * (centroid - worst)
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = np.inf if spent() else f(expanded)
            if f_e < f_r:
                points[2], values[2] = _wrap(expanded), f_e
                state.operations["expand"] += 1
            else:
                points[2], values[2] = _wrap(reflected), f_r
                state.operations["reflect"] += 1
        elif f_r < values[1]:
            points[2], values[2] = _wrap(reflected), f_r
            state.operations["reflect"] += 1
        elif not spent():
            if f_r < values[2]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted)
            if f_c < min(f_r, values[2]):
                points[2], values[2] = _wrap(contracted), f_c
                state.operations["contract"] += 1
            else:
                for i in (1, 2):
                    if spent():
                        break
                    shrunk = best + 0.5 * (_chart([points[i]], points[0])[0] - best)
                    points[i] = _wrap(shrunk)
                    values[i] = f(points[i])
                state.operations["shrink"] += 1
        state.record(values)

    order = np.argsort(values, kind="stable")
    best_idx = order[0]
    return NelderMeadResult(
        s_min=tuple(_wrap(points[best_idx])),
        value=float(values[best_idx]),
        converged=converged,
        evaluations=evals,
        state=state,
    )


# ----------------------------------------------------------------------
# exhaustive landscape and oracle
# ----------------------------------------------------------------------

@dataclass
class BestEvaluation:
    """The lowest value an objective has returned, first on ties, and its breakdown.

    ``thetas``, when it is a dict, receives a shallow copy of the
    objective's {sigma: theta} dict as that evaluation left it.  It is
    None by default: the copy keeps up to two grid arrays alive that a
    caller with no further solve at the pair does not need.
    """

    value: float = float("inf")
    breakdown: EnergyBreakdown | None = None
    thetas: dict | None = None


def energy_objective(domain: ConformalDomain, field: ExternalField, grid: GridSpec,
                     w0_nodes: int = 2048, tol: float = 1e-9, max_iter: int = 50,
                     best: BestEvaluation | None = None):
    """Total-energy objective over angle pairs; +inf on degenerate pairs.

    ``tol`` and ``max_iter`` go to the Picard solve of every evaluation;
    an evaluation that does not converge within them scores +inf.  The
    objective keeps the last theta of each orientation branch and, for
    |h| < lambda_lo, starts the next solve of that branch from it
    (:func:`vortexfield.micromag.min_over_orientations`); a new objective
    starts from theta = 0, so equal searches give equal results.  With
    ``best``, it records there the breakdown of its lowest value and, if
    ``best.thetas`` is a dict, a shallow copy of the thetas dict as that
    evaluation left it.  Nelder-Mead never drops its best vertex, so that
    is the breakdown of the pair it reports, and a caller need not solve
    that pair again; a solve there may start from those thetas.  The copy
    is safe to keep: each theta is a fresh array of its Picard solve, and
    nothing writes to it later.
    """
    thetas = {}

    def objective(s) -> float:
        config = VortexConfig.pair(float(s[0]), float(s[1]))
        try:
            breakdown = total_energy(domain, config, field, grid, w0_nodes=w0_nodes,
                                     tol=tol, max_iter=max_iter, thetas=thetas)
        except ConvergenceError:
            return float("inf")
        if best is not None and breakdown.total < best.value:
            best.value, best.breakdown = breakdown.total, breakdown
            if best.thetas is not None:
                best.thetas = dict(thetas)
        return breakdown.total
    return objective


@dataclass
class LandscapeGrid:
    """Energies on an n x n angle grid with the diagonal at +inf."""

    n: int
    energies: np.ndarray
    failures: int
    min_index: tuple
    min_value: float

    def angle(self, i: int) -> float:
        return TWO_PI * i / self.n


def landscape(domain: ConformalDomain, field: ExternalField, n: int,
              grid: GridSpec, w0_nodes: int = 2048, tol: float = 1e-9,
              max_iter: int = 50) -> LandscapeGrid:
    """Evaluate the energy on the n x n grid of angle pairs.

    The diagonal cells i == j, where the two vortices coincide, are
    marked +inf without evaluation (the energy diverges there); every
    other cell is evaluated.  Cells are evaluated serially in row-major
    order.
    """
    if n < 16:
        raise ConfigurationError(f"landscape resolution must be at least 16, got {n}")
    objective = energy_objective(domain, field, grid, w0_nodes, tol, max_iter)
    energies = np.full((n, n), np.inf)
    failures = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = objective((TWO_PI * i / n, TWO_PI * j / n))
            if not np.isfinite(v):
                failures += 1
            energies[i, j] = v

    flat = int(np.argmin(energies))  # row-major; lowest index wins ties
    idx = (flat // n, flat % n)
    return LandscapeGrid(n=n, energies=energies, failures=failures,
                         min_index=idx, min_value=float(energies[idx]))


#: the oracle's refinement step is this many times finer than a landscape cell
_REFINE = 10


def grid_oracle(domain: ConformalDomain, field: ExternalField, n: int,
                grid: GridSpec):
    """Exhaustive argmin over the landscape, refined once around the winner.

    The refinement rescans a one-coarse-cell neighborhood with a step
    ``_REFINE`` times finer.  Returns ``(s_min, value)``.
    """
    if n < 32:
        raise ValueError("oracle resolution must be at least 32")
    scan = landscape(domain, field, n, grid)
    i, j = scan.min_index
    s_best = np.array([scan.angle(i), scan.angle(j)])
    v_best = scan.min_value

    objective = energy_objective(domain, field, grid)
    step = TWO_PI / n / _REFINE
    guard = step  # keep refined probes off the degenerate diagonal
    s_ref = s_best.copy()
    for di in range(-_REFINE, _REFINE + 1):
        for dj in range(-_REFINE, _REFINE + 1):
            s = _wrap(s_best + np.array([di * step, dj * step]))
            if _torus_dist(s[0], s[1]) < guard:
                continue
            v = objective(s)
            if v < v_best:
                v_best = v
                s_ref = s
    return tuple(s_ref), float(v_best)
