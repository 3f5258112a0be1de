"""Minimization of the renormalized energy over vortex angles.

The search space is the two-torus of angle pairs (s_1, s_2).  A
Nelder-Mead simplex (reflect 1, expand 2, contract 1/2, shrink 1/2,
matching the classic fminsearch coefficients) drives the local search;
an exhaustive grid scan with one local refinement acts as the
brute-force oracle.  All simplex arithmetic happens in the minimal-image
chart centered at the current best vertex, so centroids and shrinks
never tear across the 0 / 2 pi seam; stored and reported angles are
always wrapped to [0, 2 pi) by ``geom.wrap``.

Near a smooth minimum the simplex converges only linearly, by one
contraction after another (Lagarias, Reeds, Wright & Wright, SIAM J.
Optim. 9, 1998).  So once per search, when the three vertex values
agree to ``_HANDOFF`` while the simplex is still wider than ``_XTOL``,
and the objective's return carries a gradient (a ``gradient()`` method
or callable attribute, which every finite breakdown of
:func:`vortexfield.micromag.total_energy` that is not bounded has), the
search hands its end game to quasi-Newton steps on exact gradients in a
trust region (Nocedal & Wright, Numerical Optimization, 2006, ch. 4 and
6).  A plain-float objective runs the simplex alone.

- the first model: at the lowest point x evaluated so far, with eta the
  simplex diameter, the gradients at x +- eta e_1 and x +- eta e_2 (four
  evaluations) give H by central differences, symmetrized;
- the step: p = -H^-1 g at the current point, clipped to the max-norm
  trust radius, which starts at eta;
- acceptance: x + p is kept only if it is lower than every value seen
  so far; then H takes the BFGS update with (p, the change of g) when
  that change has a positive inner product with p and the update stays
  positive definite, and the radius doubles; a rejected step sets the
  radius to a quarter of its own length;
- the stop rule: an unclipped |p|_inf < ``_XTOL`` at the current point's
  gradient ends the search with no further evaluation;
- the hand-back: a first H that is not positive definite (``_definite``),
  a value that is not finite, or the ``_REJECTIONS``-th rejected step
  returns the search to the simplex, with its best vertex replaced by
  the lowest point seen; the simplex then ends on its own test, three
  values within ``_FTOL`` on a simplex narrower than ``_XTOL``;
- the record: as in every search and scan here, one :class:`_Evaluations`
  counts the calls and past the budget returns +inf with no call, which
  hands the finish back; the search ends on its stop test, tried before
  the budget, or on a spent budget.  The record also ranks NaN as +inf,
  turns each ``ConvergenceError`` the objective raises into a listed
  failure at +inf, and keeps the answer by one rule: the first lowest
  value returned, its pair, and the object the objective returned
  there, which for :func:`energy_objective` is that pair's
  :class:`~vortexfield.renorm.EnergyBreakdown`, its theta and gradient
  included.

Most evaluations only decide whether a trial pair beats a value the
search already holds, so each of those passes that value as ``above``:
a reflection the worst vertex's, an expansion the reflection's, a
contraction the lower of those two, and a finish step the lowest value
seen.  An objective that takes it (:func:`energy_objective`) may then
return a ``bounded`` breakdown, a certified lower bound at least
``above``, in place of W, so every comparison, and with it every step,
the evaluation count and the answer, is that of the exact W; only Picard
iterations are saved (:mod:`vortexfield.micromag`).  The starting
vertices, a shrink's and the finish's model points need their values
and pass none.

On the 24 ``minimize-disk-weak`` benchmark starts of seeds 0-2
(128 x 256) a search takes 35.0 evaluations, against 64.8 with the
central-difference value stencil this finish replaced.  A hand-off at a
spread of 1e-3 takes 28.3 there, but ends the ``field-oval-strong``
search in a ripple minimum 2.8e-4 higher in W after 112 evaluations; one
at 1e-5 takes 43.4 there and 66 on the oval, against 61.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import VortexConfig
from .errors import ConvergenceError
from .geom import TWO_PI, ConformalDomain, circle_distance, wrap
from .micromag import ExternalField, total_energy
from .poisson import GridSpec
from .renorm import EnergyBreakdown


def _torus_dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(max(map(circle_distance, a, b)))


def _chart(points, center):
    """Represent points in the chart (center - pi, center + pi]^2."""
    return [center + np.mod(p - center + np.pi, TWO_PI) - np.pi for p in points]


#: initial simplex edge, radians
_STEP = 0.25
#: torus diameter tolerance
_XTOL = 1e-6
#: value spread tolerance
_FTOL = 1e-6
#: value spread at which the simplex hands its end game to the gradient finish
_HANDOFF = 1e-4
#: rejected steps after which the gradient finish hands back to the simplex
_REJECTIONS = 4
#: a model counts as positive definite when h_11 > 0 and det H > this times h_11 h_22;
#: a model singular in exact arithmetic, as along the disk's rotation at h = 0,
#: comes out of the gradient differences far below it
_DEFINITE = 1e-8


class _Evaluations:
    """An objective as a search or scan sees it: one record of its calls.

    Each call wraps its pair to [0, 2 pi), calls the objective, counts
    the call and returns the ``float()`` of what the objective returned.
    Past ``budget`` calls it returns +inf without calling the objective,
    so no step accepts that value.  A NaN comes back as +inf, and each
    value that is not finite counts among ``failures``.  So does a call
    whose objective raised ``ConvergenceError``: it returns +inf, and
    ``failed`` keeps its pair and message, in call order, for
    :meth:`nearest_failure` (a degenerate pair's +inf is no such
    failure).  A call may pass ``above``, the value its caller compares
    with; only an objective whose ``takes_above`` attribute is true
    receives it, and may then return a ``bounded`` breakdown, whose
    value is a certified lower bound at least ``above``
    (:func:`energy_objective`), and which ``bounded`` counts.
    ``value``, ``point`` and ``best`` are the first lowest value, its
    pair and the objective's own return there (None for a failure):
    only a strictly lower value replaces them.  The searches here pass
    an ``above`` no lower than the value held, so a bounded return
    never does, and while every value is +inf the first call stands.
    """

    def __init__(self, objective, budget: float = float("inf")):
        self.objective, self.budget = objective, budget
        self.count = self.failures = self.bounded = 0
        self.point, self.value, self.best = None, float("inf"), None
        self.failed = []
        self.takes_above = getattr(objective, "takes_above", False)

    def spent(self) -> bool:
        return self.count >= self.budget

    def __call__(self, s, above: float | None = None) -> float:
        return self.evaluate(s, above)[0]

    def evaluate(self, s, above: float | None = None) -> tuple:
        """(value, the objective's return) at s; (+inf, None) past the budget or on a failure."""
        if self.spent():
            return float("inf"), None
        self.count += 1
        s = wrap(np.asarray(s, dtype=float))
        passed = {"above": above} if above is not None and self.takes_above else {}
        try:
            returned = self.objective(s, **passed)
            v = float(returned)
        except ConvergenceError as exc:
            self.failed.append((s, str(exc)))
            returned, v = None, float("inf")
        if getattr(returned, "bounded", False):
            self.bounded += 1
        if not math.isfinite(v):
            self.failures += 1
            if math.isnan(v):
                v = float("inf")
        if self.point is None or v < self.value:
            self.point, self.value, self.best = s, v, returned
        return v, returned

    def nearest_failure(self) -> dict | None:
        """The first failure nearest the answer in the torus max-norm, or None."""
        if not self.failed:
            return None
        distance, s, error = min(((_torus_dist(s, self.point), s, error)
                                  for s, error in self.failed), key=lambda f: f[0])
        return {"s": s.tolist(), "distance": distance, "error": error}


def _definite(hess: np.ndarray) -> bool:
    """Whether a symmetric 2 x 2 model is positive definite beyond rounding."""
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
    return bool(hess[0, 0] > 0.0 and det > _DEFINITE * hess[0, 0] * hess[1, 1])


def _gradient(returned) -> np.ndarray:
    return np.asarray(returned.gradient(), dtype=float)


def _gradient_finish(f: _Evaluations, eta: float, operations: dict,
                     history: list) -> float | None:
    """Quasi-Newton steps on exact gradients, from the lowest point f has seen.

    Returns the trust radius of a step shorter than ``_XTOL`` at the
    current point, or None on a hand-back; ``f`` keeps the lowest point
    evaluated.  The model, trust rule, acceptance, stop rule and
    hand-back are those of the module docstring; each step kept, and the
    final short step, counts as one ``"newton"`` operation, and each
    step kept appends ``f.value`` to ``history``.
    """
    x = f.point
    columns = []
    for e in np.eye(2):
        (v_p, r_p), (v_m, r_m) = f.evaluate(x + eta * e), f.evaluate(x - eta * e)
        if not (math.isfinite(v_p) and math.isfinite(v_m)):
            return None
        columns.append((_gradient(r_p) - _gradient(r_m)) / (2.0 * eta))
    hess = np.array(columns)
    hess = 0.5 * (hess + hess.T)
    if not _definite(hess):
        return None
    x, g = f.point, _gradient(f.best)
    radius, rejected = eta, 0
    while True:
        p = -np.linalg.solve(hess, g)
        step = float(np.max(np.abs(p)))
        if step < _XTOL:
            operations["newton"] += 1
            return radius
        if step > radius:
            p *= radius / step
            step = radius
        low = f.value
        value, returned = f.evaluate(x + p, above=low)
        if not math.isfinite(value):
            return None
        if value < low:
            g_new = _gradient(returned)
            y = g_new - g
            if y @ p > 0.0:
                hp = hess @ p
                update = hess - np.outer(hp, hp) / (p @ hp) + np.outer(y, y) / (y @ p)
                if _definite(update):
                    hess = update
            x, g = f.point, g_new
            radius *= 2.0
            operations["newton"] += 1
            history.append(f.value)
        else:
            rejected += 1
            radius = 0.25 * step
            if rejected == _REJECTIONS:
                return None


@dataclass
class NelderMeadResult:
    """The search's answer; ``best`` is the objective's own return at ``s_min``.

    ``failures`` counts the ``evaluations`` whose value was not finite:
    degenerate pairs and solves that did not converge, and ``bounded``
    those that returned a certified lower bound (:class:`_Evaluations`).
    ``nearest_failure`` is ``_Evaluations.nearest_failure()``: ``{"s", "distance", "error"}``,
    or None when no solve failed; one near ``s_min`` unsets ``converged``.
    ``stopped`` says whether the search ended on its own stop test.
    ``operations`` counts the steps of each kind, ``"newton"`` the
    finish's kept steps and its short step; ``best_history`` is the
    lowest value seen after the start and after each step.
    """

    s_min: tuple
    value: float
    converged: bool
    stopped: bool
    evaluations: int
    failures: int
    bounded: int
    operations: dict
    best_history: list
    best: object
    nearest_failure: dict | None


def require_evaluation_budget(max_evals: int) -> None:
    """Reject a budget below the three vertices of the starting simplex."""
    if max_evals < 3:
        raise ValueError(f"max_evals must be at least 3, got {max_evals}")


def nelder_mead(objective, s0, max_evals: int = 500) -> NelderMeadResult:
    """Minimize a 2 pi-periodic objective over angle pairs.

    Infinite objective values are legal and, with NaN, rank worst, so the
    simplex escapes the degenerate diagonal by contraction and shrink.
    A start whose three vertices are all +inf returns unconverged after
    those three evaluations: the search has nothing to rank.

    The first time the three vertex values are finite and agree to
    ``_HANDOFF`` while the simplex diameter is still at least ``_XTOL``,
    a search whose objective returns gradients runs the gradient finish
    of the module docstring from the lowest point seen: a first model
    from the gradients at four points one simplex diameter away, then
    quasi-Newton steps clipped to a trust radius, each kept only if it
    is lower than every value seen so far.  A first model that is not
    positive definite, a value that is not finite, or a fourth rejected
    step hands the search back to the simplex, whose best vertex becomes
    the lowest point seen.  The search has ``stopped`` when either the
    simplex diameter fell below ``_XTOL`` with its values within
    ``_FTOL``, or the finish computed a step shorter than ``_XTOL`` at
    the current point's gradient; it has ``converged`` when, besides, no
    solve failed within that stop's reach of the answer in the torus
    max-norm: ``_XTOL``, or the finish's final trust radius.

    A reflection, an expansion, a contraction and a finish step pass
    the value they are compared with as ``above`` (module docstring);
    ``bounded`` counts the evaluations that returned a bound there.
    The objective is seen through one :class:`_Evaluations` with a
    budget of ``max_evals``, at least 3 (else ``ValueError`` before any
    call), so a run the budget ends makes exactly that many calls;
    ``s_min``, ``value`` and ``evaluations`` are its answer and its
    count, and ``best`` is what the objective returned at ``s_min``,
    which the search never asks for again.  The loop tests the budget
    after its stop test, so a search that stops on the budget's last
    evaluation converges; only that test and the guard before a
    contraction read the budget: a cut expansion sees +inf and is not
    taken, a cut evaluation of the finish hands it back, and a
    contraction that could only see +inf is not counted as a shrink.
    """
    require_evaluation_budget(max_evals)
    operations = dict.fromkeys(("reflect", "expand", "contract", "shrink", "newton"), 0)
    f = _Evaluations(objective, max_evals)

    s0 = wrap(np.asarray(s0, dtype=float))
    points = [wrap(s0 + d) for d in ((0.0, 0.0), (_STEP, 0.0), (0.0, _STEP))]
    values = [f(p) for p in points]
    history = [f.value]

    reach, finished = None, False
    # the lowest value never rises, so only an all-+inf start has nothing to rank
    while f.value < np.inf:
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]

        diam = max(_torus_dist(points[0], points[1]),
                   _torus_dist(points[0], points[2]))
        spread = values[2] - values[0]   # the best vertex holds f.value, finite here
        if spread < _FTOL and diam < _XTOL:
            reach = _XTOL
            break
        if f.spent():
            break
        if spread < _HANDOFF and not finished and callable(getattr(f.best, "gradient", None)):
            finished = True
            reach = _gradient_finish(f, diam, operations, history)
            points[0], values[0] = f.point, f.value
            history.append(f.value)
            if reach is not None:
                break
            continue

        best, mid, worst = _chart(points, points[0])
        centroid = 0.5 * (best + mid)

        reflected = centroid + 1.0 * (centroid - worst)
        f_r = f(reflected, above=values[2])
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded, above=f_r)
            if f_e < f_r:
                points[2], values[2] = wrap(expanded), f_e
                operations["expand"] += 1
            else:
                points[2], values[2] = wrap(reflected), f_r
                operations["reflect"] += 1
        elif f_r < values[1]:
            points[2], values[2] = wrap(reflected), f_r
            operations["reflect"] += 1
        elif not f.spent():
            if f_r < values[2]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted, above=min(f_r, values[2]))
            if f_c < min(f_r, values[2]):
                points[2], values[2] = wrap(contracted), f_c
                operations["contract"] += 1
            else:
                for i, p in ((1, mid), (2, worst)):
                    points[i] = wrap(best + 0.5 * (p - best))
                    values[i] = f(points[i])
                operations["shrink"] += 1
        history.append(f.value)

    nearest = f.nearest_failure()
    stopped = reach is not None
    converged = stopped and (nearest is None or nearest["distance"] > reach)
    return NelderMeadResult(s_min=tuple(f.point), value=f.value, converged=converged,
                            stopped=stopped, evaluations=f.count, failures=f.failures,
                            bounded=f.bounded, operations=operations, best_history=history,
                            best=f.best, nearest_failure=nearest)


# ----------------------------------------------------------------------
# exhaustive landscape and oracle
# ----------------------------------------------------------------------

def energy_objective(domain: ConformalDomain, field: ExternalField, grid: GridSpec,
                     w0_nodes: int = 2048, tol: float = 1e-9, max_iter: int = 50):
    """Total-energy objective over angle pairs, returning each pair's breakdown.

    Each call returns the :func:`vortexfield.micromag.total_energy`
    breakdown of its pair, whose ``float()`` is W (+inf on a degenerate
    pair), with its winning theta and exact dW/ds.  The objective has
    three jobs.  It keeps one record dict across calls, so each branch's
    solve starts from its last solves for |h| < lambda_lo; a new
    objective starts from theta = 0, so equal searches give equal
    results.  It hands on ``above`` (``takes_above``), so it may return
    a ``bounded`` breakdown, a certified lower bound on W at least
    ``above``.  And a solve that does not converge within ``tol`` and
    ``max_iter`` raises ``ConvergenceError``, which the search or scan's
    :class:`_Evaluations` records as a failure.
    """
    thetas = {}

    def objective(s, above: float | None = None) -> EnergyBreakdown:
        return total_energy(domain, VortexConfig.pair(float(s[0]), float(s[1])), field,
                            grid, w0_nodes=w0_nodes, tol=tol, max_iter=max_iter,
                            thetas=thetas, above=above)
    objective.takes_above = True
    return objective


@dataclass
class LandscapeGrid:
    """Energies on an n x n angle grid with the diagonal at +inf.

    ``min_index`` and ``min_value`` are the scan's answer: the first
    lowest cell in row-major order, or the first cell evaluated when
    every value is +inf, and its value.  ``failures`` counts the cells
    whose value was not finite, and ``nearest_failure`` is
    ``_Evaluations.nearest_failure()``, the first failed solve nearest
    that answer, or None; with no finite cell, it is the first cell's
    own failure when that cell's solve failed.
    """

    n: int
    energies: np.ndarray
    failures: int
    min_index: tuple
    min_value: float
    nearest_failure: dict | None

    def angle(self, i: int) -> float:
        return TWO_PI * i / self.n


def require_landscape_resolution(n: int) -> None:
    """Reject a landscape coarser than 16 cells a side."""
    if n < 16:
        raise ValueError(f"landscape resolution must be at least 16, got {n}")


def landscape(objective, n: int) -> LandscapeGrid:
    """Evaluate a 2 pi-periodic objective on the n x n grid of angle pairs.

    The diagonal cells i == j, where the two vortices coincide, are +inf
    with no call; every other cell is evaluated once, in row-major order,
    through one :class:`_Evaluations`: a NaN is stored as +inf, each
    value that is not finite, and each ``ConvergenceError`` the
    objective raises, counts as a failure, and the answer is the first
    lowest value returned.  On :func:`energy_objective` below
    lambda_lo, the cells of a row, each in canonical order, lie on two
    lines that meet at the diagonal, so the affine fit is singular and a
    solve starts from the cell before it, except where its branch's last
    three pairs span a row's start or the diagonal.
    """
    require_landscape_resolution(n)
    f = _Evaluations(objective)
    energies = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                energies[i, j] = f((TWO_PI * i / n, TWO_PI * j / n))

    idx = tuple(int(round(a * n / TWO_PI)) for a in f.point)
    return LandscapeGrid(n=n, energies=energies, failures=f.failures, min_index=idx,
                         min_value=f.value, nearest_failure=f.nearest_failure())


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
            s = wrap(center + np.array([di * step, dj * step]))
            if circle_distance(s[0], s[1]) >= step:   # off the degenerate diagonal
                f(s)
    return tuple(f.point), f.value
