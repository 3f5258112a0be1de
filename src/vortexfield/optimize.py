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
- the budget: as in every search and scan here, one :class:`_Evaluations`
  counts the calls and past the budget returns +inf with no call, which
  no step accepts; it also ranks NaN as +inf and keeps the answer: the
  first lowest value returned, its pair, and the object the objective
  returned there, which for :func:`energy_objective` is that pair's
  :class:`~vortexfield.renorm.EnergyBreakdown`, its theta included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .canonical import VortexConfig
from .errors import ConfigurationError, ConvergenceError
from .geom import TWO_PI, ConformalDomain
from .micromag import ExternalField, total_energy
from .poisson import GridSpec
from .renorm import EnergyBreakdown, W0Boundary


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


class _Evaluations:
    """An objective as a search or scan sees it: one budget and one answer rule.

    Each call wraps its pair to [0, 2 pi), calls the objective, counts
    the call and returns the ``float()`` of what the objective returned.
    Past ``budget`` calls it returns +inf without calling the objective,
    so no step accepts that value.  A NaN comes back as +inf, and each
    value that is not finite counts among ``failures``.  ``value``,
    ``point`` and ``best`` are the first lowest value, its pair and the
    objective's own return there: only a strictly lower value replaces
    them, and the first call stands while every value is +inf.
    """

    def __init__(self, objective, budget: float = float("inf")):
        self.objective, self.budget = objective, budget
        self.count = self.failures = 0
        self.point, self.value, self.best = None, float("inf"), None

    def spent(self) -> bool:
        return self.count >= self.budget

    def __call__(self, s) -> float:
        if self.spent():
            return float("inf")
        self.count += 1
        s = _wrap(np.asarray(s, dtype=float))
        returned = self.objective(s)
        v = float(returned)
        if not math.isfinite(v):
            self.failures += 1
            if math.isnan(v):
                v = float("inf")
        if self.point is None or v < self.value:
            self.point, self.value, self.best = s, v, returned
        return v


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


def _newton_finish(f: _Evaluations, eta: float, state: SimplexState) -> bool:
    """Newton steps on a central-difference model, from the lowest point f has seen.

    Returns whether a step shorter than ``_XTOL`` was computed at a
    positive definite model Hessian; ``f`` keeps the lowest point
    evaluated.  The stencil, trust rule, stop rule, fallback and budget
    rule are those of the module docstring; a step taken counts as one
    ``"newton"`` operation.
    """
    while True:
        x, fx = f.point, f.value
        values = [f(x + eta * d) for d in _STENCIL]
        if not np.all(np.isfinite(values)):
            return False
        f_p1, f_m1, f_p2, f_m2, f_pp = values
        g1, g2 = (f_p1 - f_m1) / (2.0 * eta), (f_p2 - f_m2) / (2.0 * eta)
        h11 = (f_p1 - 2.0 * fx + f_m1) / eta**2
        h22 = (f_p2 - 2.0 * fx + f_m2) / eta**2
        h12 = (f_pp - f_p1 - f_p2 + fx) / eta**2
        det = h11 * h22 - h12 * h12
        if not (h11 > 0.0 and det > 0.0):
            return False
        p = np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2]) / det
        step = float(np.max(np.abs(p)))
        if not step <= eta:
            return False
        if step < _XTOL:
            state.operations["newton"] += 1
            return True
        low = f.value
        if not f(x + p) < low:
            return False
        state.operations["newton"] += 1
        eta = max(step, _XTOL)
        state.record([f.value])


@dataclass
class NelderMeadResult:
    """The search's answer; ``best`` is the objective's own return at ``s_min``."""

    s_min: tuple
    value: float
    converged: bool
    evaluations: int
    state: SimplexState
    best: object


def nelder_mead(objective, s0, max_evals: int = 500) -> NelderMeadResult:
    """Minimize a 2 pi-periodic objective over angle pairs.

    Infinite objective values are legal and, with NaN, rank worst, so the
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
    ``_XTOL`` at a positive-definite model Hessian.

    The objective is seen through one :class:`_Evaluations` with a
    budget of ``max(3, max_evals)``, so an unconverged run makes exactly
    that many calls; ``s_min``, ``value`` and ``evaluations`` are its
    answer and its count, and ``best`` is what the objective returned at
    ``s_min``, which the search never asks for again.  Only the loop
    test and the guard before a contraction read the budget: a cut
    expansion or Newton step sees +inf and is not taken, and a
    contraction that could only see +inf is not counted as a shrink.
    """
    state = SimplexState()
    f = _Evaluations(objective, max(3, max_evals))

    s0 = _wrap(np.asarray(s0, dtype=float))
    points = [s0,
              _wrap(s0 + np.array([_STEP, 0.0])),
              _wrap(s0 + np.array([0.0, _STEP]))]
    values = [f(p) for p in points]
    state.record(values)

    converged = finished = False
    # the lowest value never rises, so only an all-+inf start has nothing to rank
    while f.value < np.inf and not f.spent():
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
                converged = _newton_finish(f, diam, state)
                points[0], values[0] = f.point, f.value
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
            f_e = f(expanded)
            if f_e < f_r:
                points[2], values[2] = _wrap(expanded), f_e
                state.operations["expand"] += 1
            else:
                points[2], values[2] = _wrap(reflected), f_r
                state.operations["reflect"] += 1
        elif f_r < values[1]:
            points[2], values[2] = _wrap(reflected), f_r
            state.operations["reflect"] += 1
        elif not f.spent():
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
                    shrunk = best + 0.5 * (_chart([points[i]], points[0])[0] - best)
                    points[i] = _wrap(shrunk)
                    values[i] = f(points[i])
                state.operations["shrink"] += 1
        state.record(values)

    return NelderMeadResult(s_min=tuple(f.point), value=f.value, converged=converged,
                            evaluations=f.count, state=state, best=f.best)


# ----------------------------------------------------------------------
# exhaustive landscape and oracle
# ----------------------------------------------------------------------

def energy_objective(domain: ConformalDomain, field: ExternalField, grid: GridSpec,
                     w0_nodes: int = 2048, tol: float = 1e-9, max_iter: int = 50):
    """Total-energy objective over angle pairs, returning each pair's breakdown.

    Each call returns the :class:`~vortexfield.renorm.EnergyBreakdown` it
    computed, whose ``float()`` is W: +inf on degenerate pairs.  ``tol``
    and ``max_iter`` go to the Picard solve of every evaluation; an
    evaluation that does not converge within them returns an infinite
    breakdown whose ``diagnostics["error"]`` is the solver's message.
    The objective keeps each orientation branch's record of its last
    three or fewer (s, theta) and, for |h| < lambda_lo, starts the
    branch's next solve from the affine fit through them, or from the
    latest (:func:`vortexfield.micromag.min_over_orientations`); a new
    objective starts from theta = 0, so equal searches give equal
    results.  Each breakdown carries its winning theta, so a search that
    keeps the return of its reported pair (:class:`_Evaluations`) need
    not solve that pair again.  On an oval it builds one
    :class:`~vortexfield.renorm.W0Boundary` and evaluates W_0 of every
    pair with it, so the boundary density and its FFT are computed once
    per search, not once per evaluation.
    """
    thetas = {}
    boundary = None if domain.is_disk else W0Boundary(domain, w0_nodes)

    def objective(s) -> EnergyBreakdown:
        config = VortexConfig.pair(float(s[0]), float(s[1]))
        try:
            return total_energy(domain, config, field, grid, w0_nodes=w0_nodes, tol=tol,
                                max_iter=max_iter, thetas=thetas, boundary=boundary)
        except ConvergenceError as exc:
            return EnergyBreakdown(w0=float("inf"), v_ext=float("inf"),
                                   diagnostics={"error": str(exc)})
    return objective


@dataclass
class LandscapeGrid:
    """Energies on an n x n angle grid with the diagonal at +inf.

    ``min_index``, ``min_value`` and ``best`` are the scan's answer: the
    first lowest cell in row-major order, or the first cell evaluated
    when every value is +inf, its value, and the objective's own return
    there.
    """

    n: int
    energies: np.ndarray
    failures: int
    min_index: tuple
    min_value: float
    best: object

    def angle(self, i: int) -> float:
        return TWO_PI * i / self.n


def landscape(objective, n: int) -> LandscapeGrid:
    """Evaluate a 2 pi-periodic objective on the n x n grid of angle pairs.

    The diagonal cells i == j, where the two vortices coincide, are +inf
    with no call; every other cell is evaluated once, in row-major order,
    through one :class:`_Evaluations`: a NaN is stored as +inf, each
    value that is not finite counts as a failure, and the answer is the
    first lowest value returned.  On :func:`energy_objective` below
    lambda_lo, the cells of a row, each in canonical order, lie on two
    lines that meet at the diagonal, so the affine fit is singular and a
    solve starts from the cell before it, except where its branch's last
    three pairs span a row's start or the diagonal.
    """
    if n < 16:
        raise ConfigurationError(f"landscape resolution must be at least 16, got {n}")
    f = _Evaluations(objective)
    energies = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                energies[i, j] = f((TWO_PI * i / n, TWO_PI * j / n))

    idx = tuple(int(round(a * n / TWO_PI)) for a in f.point)
    return LandscapeGrid(n=n, energies=energies, failures=f.failures,
                         min_index=idx, min_value=f.value, best=f.best)


#: the oracle's refinement step is this many times finer than a landscape cell
_REFINE = 10


def grid_oracle(domain: ConformalDomain, field: ExternalField, n: int,
                grid: GridSpec):
    """Exhaustive argmin over the landscape, refined once around the winner.

    One :func:`energy_objective`, seen through one :class:`_Evaluations`,
    serves the scan and the refinement, which rescans a one-coarse-cell
    neighborhood with a step ``_REFINE`` times finer.  Returns
    ``(s_min, value)``: the first lowest value of the scan and the
    refinement together, and its pair.
    """
    if n < 32:
        raise ValueError("oracle resolution must be at least 32")
    f = _Evaluations(energy_objective(domain, field, grid))
    scan = landscape(f, n)
    center = np.array([scan.angle(i) for i in scan.min_index])
    step = TWO_PI / n / _REFINE
    for di in range(-_REFINE, _REFINE + 1):
        for dj in range(-_REFINE, _REFINE + 1):
            s = _wrap(center + np.array([di * step, dj * step]))
            if _torus_dist(s[0], s[1]) >= step:   # off the degenerate diagonal
                f(s)
    return tuple(f.point), f.value
