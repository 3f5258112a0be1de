"""Dirichlet Poisson solver on the unit disk and shared quadrature utilities.

The solver diagonalizes the angular direction with a real FFT and solves,
for each angular wavenumber m, the radial two-point boundary value problem

    -(u'' + u'/r - m^2 u / r^2) = f_m,   u(1) = 0,

with conservative second-order finite differences on the cell-centered
radial grid r_i = (i - 1/2) dr.  The inner flux coefficient r_{i-1/2}
vanishes identically at the pole for i = 1, which encodes the natural
regularity condition there for every mode; the Dirichlet condition at
r = 1 enters through the ghost-value reflection u_{n+1} = -u_n.  The
Thomas sweeps run in place over the rows of ``rfft(values, axis=1)``,
one radius per row and all wavenumbers along it, seen as float64: each
complex coefficient is a (re, im) pair and every factor is real, so a
row step is a few real ``out=`` operations on contiguous memory.  The
factor arrays 1/dp and cp are stored repeated to that (n_r, 2 n_modes)
layout.  The result is bitwise that of the same sweep in complex
arithmetic, since numpy divides a complex number by a real one by
multiplying with the reciprocal.

The same module carries the disk quadrature rule (midpoint in r,
periodic trapezoid in t) and the graded 1D quadrature used to self-test
the singular-integration layer against the two log-sine integrals.  It
has no separate gradient energy: the discrete Dirichlet energy of u is
(1/2) <u, A_h u> in that quadrature, with A_h = ``DiskPoissonSolver.apply``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .geom import TWO_PI


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered polar grid on the unit disk.

    Radial nodes sit at r_i = (i - 1/2) / n_r, so no node touches the
    pole or the boundary circle where the vortices live.
    """

    n_r: int = 128
    n_t: int = 256

    def __post_init__(self):
        if self.n_r < 4:
            raise ValueError("n_r must be at least 4")
        if self.n_t < 8 or self.n_t % 2 != 0:
            raise ValueError("n_t must be even and at least 8")

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @property
    def dt(self) -> float:
        return TWO_PI / self.n_t

    @property
    def r(self) -> np.ndarray:
        return (np.arange(self.n_r) + 0.5) * self.dr

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n_t) * self.dt

    def mesh(self):
        """(R, T) node coordinate arrays of shape (n_r, n_t)."""
        return np.meshgrid(self.r, self.t, indexing="ij")

    def nodes_complex(self) -> np.ndarray:
        """Complex node positions r e^{it}, shape (n_r, n_t); cached and read-only."""
        return _nodes_complex(self.n_r, self.n_t)

    def cell_weights(self) -> np.ndarray:
        """Quadrature weights r_i dr dt, shape (n_r, 1) for broadcasting."""
        return (self.r * self.dr * self.dt)[:, None]


@lru_cache(maxsize=16)
def _nodes_complex(n_r: int, n_t: int) -> np.ndarray:
    R, T = GridSpec(n_r, n_t).mesh()
    nodes = R * np.exp(1j * T)
    nodes.flags.writeable = False
    return nodes


@dataclass
class PolarField:
    """Scalar samples on a :class:`GridSpec`, optionally Dirichlet-tagged.

    A Dirichlet field represents a function vanishing at r = 1; the
    boundary value is not stored but implied by the ghost reflection.
    """

    grid: GridSpec
    values: np.ndarray
    dirichlet: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_t):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_t})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @staticmethod
    def zeros(grid: GridSpec, dirichlet: bool = True) -> "PolarField":
        return PolarField(grid, np.zeros((grid.n_r, grid.n_t)), dirichlet)

    @staticmethod
    def from_function(grid: GridSpec, fn, dirichlet: bool = True) -> "PolarField":
        R, T = grid.mesh()
        return PolarField(grid, np.asarray(fn(R, T), dtype=float), dirichlet)


class DiskPoissonSolver:
    """Mode-by-mode tridiagonal solver for -lap u = f with u(1) = 0.

    The factorization depends only on the grid, so one instance serves
    any number of right-hand sides; per-mode forward/backward sweeps are
    vectorized across all angular wavenumbers.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        n_r, n_t = grid.n_r, grid.n_t
        dr = grid.dr
        r = grid.r
        r_plus = (np.arange(n_r) + 1.0) * dr   # r_{i+1/2}
        r_minus = np.arange(n_r) * dr          # r_{i-1/2}; zero flux at the pole
        m = np.arange(n_t // 2 + 1)

        self._low = -r_minus / (r * dr * dr)
        self._up = -r_plus / (r * dr * dr)
        diag = (r_minus + r_plus) / (r * dr * dr)
        D = diag[:, None] + (m**2)[None, :] / (r**2)[:, None]
        D[-1, :] += r_plus[-1] / (r[-1] * dr * dr)  # ghost u_{n+1} = -u_n

        # Thomas factorization, shared by every solve on this grid
        cp = np.zeros_like(D)
        dp = np.empty_like(D)
        dp[0] = D[0]
        cp[0] = self._up[0] / dp[0]
        for i in range(1, n_r):
            dp[i] = D[i] - self._low[i] * cp[i - 1]
            if i < n_r - 1:
                cp[i] = self._up[i] / dp[i]
        # factor rows in the float64 layout of the rfft rows: (re, im) per mode
        self._inv_dp = list(np.repeat(1.0 / dp, 2, axis=1))
        self._cp = list(np.repeat(cp, 2, axis=1))
        self._D = D
        self._lambda_max = None

    def solve(self, f: PolarField) -> PolarField:
        """Return u with -lap u = f discretely and u(1) = 0."""
        if f.grid != self.grid:
            raise ValueError("right-hand side lives on a different grid")
        # C order, so each row's (re, im) pairs are contiguous float64
        fh = np.ascontiguousarray(np.fft.rfft(f.values, axis=1))
        y = list(fh.view(np.float64))
        low, inv_dp, cp = self._low, self._inv_dp, self._cp
        tmp = np.empty_like(y[0])
        np.multiply(y[0], inv_dp[0], out=y[0])
        for i in range(1, len(y)):
            np.multiply(y[i - 1], low[i], out=tmp)
            np.subtract(y[i], tmp, out=y[i])
            np.multiply(y[i], inv_dp[i], out=y[i])
        for i in range(len(y) - 2, -1, -1):
            np.multiply(cp[i], y[i + 1], out=tmp)
            np.subtract(y[i], tmp, out=y[i])
        vals = np.fft.irfft(fh, n=self.grid.n_t, axis=1)
        return PolarField(self.grid, vals, dirichlet=True)

    def apply(self, u: PolarField) -> np.ndarray:
        """Apply the discrete operator -lap_h to a Dirichlet field."""
        if u.grid != self.grid:
            raise ValueError("field lives on a different grid")
        uh = np.fft.rfft(u.values, axis=1)
        out = self._D * uh
        out[1:] += self._low[1:, None] * uh[:-1]
        out[:-1] += self._up[:-1, None] * uh[1:]
        return np.fft.irfft(out, n=self.grid.n_t, axis=1)

    def lambda_max(self) -> float:
        """Largest eigenvalue of -lap_h, estimated by 60 steps of power iteration."""
        if self._lambda_max is None:
            rng = np.random.default_rng(0)
            v = rng.standard_normal((self.grid.n_r, self.grid.n_t))
            lam = 1.0
            for _ in range(60):
                w = self.apply(PolarField(self.grid, v))
                # 2-norms summed in memory order, as numpy.linalg.norm does
                w_flat, v_flat = w.ravel(order="K"), v.ravel(order="K")
                norm_w = np.sqrt(w_flat @ w_flat)
                lam = float(norm_w / np.sqrt(v_flat @ v_flat))
                v = w / norm_w
            self._lambda_max = lam
        return self._lambda_max


@lru_cache(maxsize=16)
def _solver_for(n_r: int, n_t: int) -> DiskPoissonSolver:
    return DiskPoissonSolver(GridSpec(n_r, n_t))


def solver_for(grid: GridSpec) -> DiskPoissonSolver:
    """Shared, factorization-cached solver for a grid."""
    return _solver_for(grid.n_r, grid.n_t)


def solve_dirichlet(f: PolarField) -> PolarField:
    """Solve -lap u = f on the disk with u = 0 on the boundary."""
    return solver_for(f.grid).solve(f)


def integrate_disk(g: PolarField) -> float:
    """Integral over the unit disk: midpoint in r, trapezoid in t."""
    return float(np.sum(g.values * g.grid.cell_weights()))


# ----------------------------------------------------------------------
# graded 1D quadrature for endpoint log singularities
# ----------------------------------------------------------------------

def _legendre_in_angle(n: int, theta: np.ndarray):
    """P_n(cos theta) and d/dtheta P_n(cos theta) by the three-term recurrence."""
    x = np.cos(theta)
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # (1 - x^2) P_n'(x) = n (P_{n-1} - x P_n), and d/dtheta = -sin(theta) d/dx
    return p, n * (x * p - p_prev) / np.sin(theta)


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on theta -> P_n(cos theta), with P_n evaluated by the
    three-term recurrence, from the starting guesses
    theta_k = pi (k - 1/4) / (n + 1/2) (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013).  Working in the angle keeps the nodes next to
    +-1 accurate, and the weights follow as 2 / (d/dtheta P_n)^2, which
    is 2 / ((1 - x^2) P_n'(x)^2).  No eigensolver is involved.  The
    arrays are cached and read-only.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    theta = np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)
    for _ in range(20):
        p, dp = _legendre_in_angle(n, theta)
        step = p / dp
        theta -= step
        # Newton converges quadratically: after a step this small the
        # remaining error is below rounding
        if np.max(np.abs(step)) < 1e-12:
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre Newton iteration did not converge for n={n}")
    _, dp = _legendre_in_angle(n, theta)
    x, w = np.cos(theta), 2.0 / dp**2
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def graded_log_quadrature(fn, a: float, b: float) -> float:
    """Integrate fn over (a, b) with an integrable log singularity at a.

    Uses the polynomial grading x = a + (b - a) u^4, which turns an
    endpoint log blow-up into a u^3 log u integrand, then applies
    256-point Gauss-Legendre on u in (0, 1).
    """
    x, w = gauss_legendre(256)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    q = 4
    theta = a + (b - a) * u**q
    jac = (b - a) * q * u ** (q - 1)
    return float(np.sum(fn(theta) * jac * wu))


#: reference values of the two log-sine integrals on (0, pi/2)
LOG_SIN_INTEGRAL = -0.5 * np.pi * np.log(2.0)
LOG_SIN_SQUARED_INTEGRAL = 0.5 * np.pi * (np.log(2.0) ** 2 + np.pi**2 / 12.0)


def singular_quadrature_1d(kind: str) -> float:
    """Evaluate a named singular benchmark integral on (0, pi/2).

    ``kind`` is ``"log_sin"`` for the integral of log(sin t) or
    ``"log_sin_squared"`` for the integral of log(sin t)^2.  Both have a
    known closed form and serve as a self-test of the graded quadrature
    machinery.
    """
    if kind == "log_sin":
        return graded_log_quadrature(lambda t: np.log(np.sin(t)), 0.0, 0.5 * np.pi)
    if kind == "log_sin_squared":
        return graded_log_quadrature(lambda t: np.log(np.sin(t)) ** 2, 0.0, 0.5 * np.pi)
    raise ValueError(f"unknown singular integral kind {kind!r}")
