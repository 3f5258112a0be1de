"""Dirichlet Poisson solver on the unit disk and shared quadrature utilities.

The solver diagonalizes the angular direction with a real FFT and solves,
for each angular wavenumber m, the radial two-point boundary value problem

    -(u'' + u'/r - m^2 u / r^2) = f_m,   u(1) = 0,

with conservative second-order finite differences on the cell-centered
radial grid r_i = (i - 1/2) dr.  The inner flux coefficient r_{i-1/2}
vanishes identically at the pole for i = 1, which encodes the natural
regularity condition there for every mode; the Dirichlet condition at
r = 1 enters through the ghost-value reflection u_{n+1} = -u_n.

``solve`` eliminates from both ends at once, a two-ended ("twisted")
factorization (Parlett & Dhillon, Linear Algebra Appl. 267, 1997): pair
row j holds the spectra of radius j and of radius n_r - 1 - j side by
side, contiguous float64 with each complex coefficient a (re, im) pair,
and each step moves both ends one radius towards the middle in one
call.  The two rffts write the top radii and the bottom ones, read in
reverse, into the two halves of the pair rows, and the two irffts read
them back in the same order, so no ``out`` has a negative stride.  The
whole spectrum is scaled once by the reciprocal pivots, so a forward
step is two real ``out=`` operations with the factors multiplied in,
and so is a back-substitution step.  For even n_r the last pair row
holds the two middle radii, which meet in one 2 x 2 solve per mode:
1 / det of that system is folded into their pivots and forward factors,
and each half less its factor times the other half is the solution.
For odd n_r the middle radius is the twist row: it sits in both halves
of the last pair row and is solved from the pair row before it.  A
solve is about 2 n_r row calls, where a one-ended Thomas sweep took
5 n_r.  Every factor is real, so the result is bitwise that of the same
sweep in complex arithmetic.  The cached solver of a grid owns the
spectra its ``solve``, ``apply`` and ``precondition`` work in, and each
writes its result into a caller's ``out`` when given, so none allocates
grid arrays.

``precondition`` applies M^{-1} = D^{-1} - D^{-1} O D^{-1}, the two-term
Neumann series of the inverse of each mode's tridiagonal T = D + O, with
D its diagonal and O its off-diagonals (Dubois, Greenbaum & Rodrigue,
Computing 22, 1979): rfft the rows, form D^{-1} (u - O D^{-1} u) with
the factors ``apply`` multiplies by, irfft.  It is the preconditioner
of the descent oracle (``micromag.minimize_g_descent``), whose step
rests on two bounds: the spectrum of M^{-1} A_h lies in (0, 1], and
M^{-1} < 2 / ``diag_min``, with ``diag_min`` = min D computed once per
solver.  ``lambda_max`` bounds the spectrum of the operator itself from
above by Gershgorin's theorem, the largest row sum of the mode-wise
tridiagonal matrices, with no iteration; it now serves only its own
test and a benchmark tracer target.
``lambda_min`` bounds it from below by bisection on the signs of the
LDL^T pivots of the m = 0 tridiagonal (Sylvester's law of inertia),
with no LAPACK call.

The same module carries the disk quadrature rule (midpoint in r,
periodic trapezoid in t) and a 65-node tanh-sinh rule, in closed form,
whose one use is the two log-sine integrals, checked against their
closed forms by ``verify``'s ``logsin_integrals`` check and acceptance
criterion 5.  It has no separate gradient energy: the discrete
Dirichlet energy of u is (1/2) <u, A_h u> in that quadrature, with
A_h = ``DiskPoissonSolver.apply``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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

    @lru_cache(maxsize=16)
    def nodes_complex(self) -> np.ndarray:
        """Complex node positions r e^{it}, shape (n_r, n_t); cached and read-only."""
        R, T = self.mesh()
        nodes = R * np.exp(1j * T)
        nodes.flags.writeable = False
        return nodes

    @lru_cache(maxsize=16)
    def cell_weights(self) -> np.ndarray:
        """Quadrature weights r_i dr dt, shape (n_r, 1); cached and read-only."""
        weights = (self.r * self.dr * self.dt)[:, None]
        weights.flags.writeable = False
        return weights


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

        # two-ended (twisted) factorization, shared by every solve on this grid:
        # pair row j holds radius j, eliminated downward with the pivots dp, and
        # radius n_r - 1 - j, eliminated upward with the pivots dq
        n_pairs = n_r - n_r // 2
        top, bottom = np.arange(n_pairs), n_r - 1 - np.arange(n_pairs)
        dp, cp, dq, cq = (np.empty((n_pairs, D.shape[1])) for _ in range(4))
        for j, (i, k) in enumerate(zip(top, bottom)):
            dp[j] = D[i] - self._low[i] * cp[j - 1] if j else D[i]
            cp[j] = self._up[i] / dp[j]
            dq[j] = D[k] - self._up[k] * cq[j - 1] if j else D[k]
            cq[j] = self._low[k] / dq[j]
        pivots = np.stack([1.0 / dp, 1.0 / dq], axis=1)
        steps = np.stack([self._low[top, None] / dp, self._up[bottom, None] / dq], axis=1)
        back = np.stack([cp, cq], axis=1)
        if n_r % 2:
            # the twist row n_pairs - 1 sits in both halves of the last pair row
            # and is solved from the pair row before it
            twist = n_pairs - 1
            gamma = D[twist] - self._low[twist] * cp[-2] - self._up[twist] * cq[-2]
            pivots[-1] = 1.0 / gamma
            back[-1] = np.stack([self._low[twist] / gamma, self._up[twist] / gamma])
            steps = steps[1:-1]
        else:
            # the last pair row holds the neighbours n_r/2 - 1 and n_r/2, which
            # meet in one 2 x 2 solve; 1 / det scales their whole elimination
            inv_det = 1.0 / (1.0 - cp[-1] * cq[-1])
            pivots[-1] *= inv_det
            steps[-1] *= inv_det
            steps = steps[1:]
        # factor rows in the float64 layout of the pair rows: (re, im) per mode
        self._pivots = np.repeat(pivots, 2, axis=-1).reshape(2 * n_pairs, -1)
        self._steps = list(np.repeat(steps, 2, axis=-1).reshape(len(steps), -1))
        self._back = list(np.repeat(back, 2, axis=-1).reshape(n_pairs, -1))
        self._D = D
        #: the smallest entry of D, so M^{-1} < 2 / diag_min in the quadrature inner product
        self.diag_min = float(np.min(D))
        # spectra every solve and apply on this grid writes into, C-ordered so
        # each row's (re, im) pairs are contiguous float64; solve sees the first
        # as n_pairs pair rows, one more radius than n_r when n_r is odd
        self._spectra = np.empty((3, 2 * n_pairs, D.shape[1]), dtype=complex)
        self._grid_spectra = self._spectra[:, :n_r]
        self._pairs = self._spectra[0].reshape(n_pairs, 2, -1)
        self._pair_rows = list(self._spectra[0].view(np.float64).reshape(n_pairs, -1))
        self._row_tmp = np.empty(4 * D.shape[1])
        self._lambda_min = None

    def solve(self, f: PolarField, out: PolarField | None = None) -> PolarField:
        """Return u with -lap u = f discretely and u(1) = 0, as the field ``out`` if given."""
        if f.grid != self.grid:
            raise ValueError("right-hand side lives on a different grid")
        if out is not None and (out.grid != self.grid or not out.dirichlet):
            raise ValueError("out must be a Dirichlet field on the solver's grid")
        n_r, n_t = self.grid.n_r, self.grid.n_t
        pairs, y, tmp = self._pairs, self._pair_rows, self._row_tmp
        n_pairs, half = len(y), tmp.size // 2
        np.fft.rfft(f.values[:n_pairs], axis=1, out=pairs[:, 0])
        np.fft.rfft(f.values[::-1][:n_pairs], axis=1, out=pairs[:, 1])
        spectrum = self._spectra[0].view(np.float64)
        np.multiply(spectrum, self._pivots, out=spectrum)
        for j, step in enumerate(self._steps, start=1):
            np.multiply(step, y[j - 1], out=tmp)
            np.subtract(y[j], tmp, out=y[j])
        last = y[-1]
        if n_r % 2:
            # the twist row, from the pair row before it, into both halves
            np.multiply(self._back[-1], y[-2], out=tmp)
            np.subtract(last[:half], tmp[:half], out=last[:half])
            np.subtract(last[:half], tmp[half:], out=last[:half])
            np.copyto(last[half:], last[:half])
        else:
            # the meet: each half less its factor times the other half
            np.multiply(self._back[-1].reshape(2, -1), last.reshape(2, -1)[::-1],
                        out=tmp.reshape(2, -1))
            np.subtract(last, tmp, out=last)
        for j in range(n_pairs - 2, -1, -1):
            np.multiply(self._back[j], y[j + 1], out=tmp)
            np.subtract(y[j], tmp, out=y[j])
        vals = np.empty((n_r, n_t)) if out is None else out.values
        np.fft.irfft(pairs[:, 0], n=n_t, axis=1, out=vals[:n_pairs])
        np.fft.irfft(pairs[n_r - n_pairs - 1::-1, 1], n=n_t, axis=1, out=vals[n_pairs:])
        return PolarField(self.grid, vals) if out is None else out

    def apply(self, u: PolarField, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the discrete operator -lap_h to a Dirichlet field, into ``out`` if given."""
        if u.grid != self.grid:
            raise ValueError("field lives on a different grid")
        uh, lap, tmp = self._grid_spectra
        np.fft.rfft(u.values, axis=1, out=uh)
        np.multiply(self._D, uh, out=lap)
        np.multiply(self._low[1:, None], uh[:-1], out=tmp[1:])
        lap[1:] += tmp[1:]
        np.multiply(self._up[:-1, None], uh[1:], out=tmp[:-1])
        lap[:-1] += tmp[:-1]
        return np.fft.irfft(lap, n=self.grid.n_t, axis=1, out=out)

    def precondition(self, u: PolarField, out: np.ndarray | None = None) -> np.ndarray:
        """Apply M^{-1} = D^{-1} - D^{-1} O D^{-1} mode by mode, into ``out`` if given.

        For each angular mode -lap_h is the tridiagonal T = D + O, and
        M^{-1} T = I - (D^{-1} O)^2.  D + O and D - O are similar through
        diag((-1)^i) and both positive definite, so the real eigenvalues
        nu of D^{-1} O satisfy |nu| < 1: the spectrum of M^{-1} A_h lies
        in (0, 1], M^{-1} is positive definite, and its largest
        eigenvalue is below 2 / ``diag_min``.
        """
        if u.grid != self.grid:
            raise ValueError("field lives on a different grid")
        # D^{-1} (u - O D^{-1} u), from the factors apply multiplies by
        uh, scaled, tmp = self._grid_spectra
        np.fft.rfft(u.values, axis=1, out=uh)
        np.divide(uh, self._D, out=scaled)
        np.multiply(self._low[1:, None], scaled[:-1], out=tmp[1:])
        uh[1:] -= tmp[1:]
        np.multiply(self._up[:-1, None], scaled[1:], out=tmp[:-1])
        uh[:-1] -= tmp[:-1]
        np.divide(uh, self._D, out=uh)
        return np.fft.irfft(uh, n=self.grid.n_t, axis=1, out=out)

    def lambda_max(self) -> float:
        """Gershgorin bound on the largest eigenvalue of -lap_h.

        The largest row sum D + |low| + |up| over every radius and mode;
        the last row has no upper neighbour, as in ``apply``.
        """
        off = np.abs(self._low)
        off[:-1] += np.abs(self._up[:-1])
        return float(np.max(self._D + off[:, None]))

    def lambda_min(self) -> float:
        """A lower bound on the smallest eigenvalue of -lap_h, computed once per solver.

        Each mode adds m^2 / r^2 >= 0 to the diagonal of the m = 0
        tridiagonal, so that mode holds the smallest eigenvalue.  Its
        matrix is similar to a symmetric one with the same LDL^T pivots,
        and by Sylvester's law of inertia the matrix less lam has as many
        negative pivots as eigenvalues below lam.  Bisection on "every
        pivot positive" brackets the eigenvalue to adjacent floats; the
        result is the lower end less 8 ulp of the mode's Gershgorin
        bound, which covers the rounding of the pivots.
        """
        if self._lambda_min is None:
            diag = self._D[:, 0].tolist()
            # low_i up_{i-1}: the squared off-diagonal of the symmetric form
            off_sq = [0.0] + (self._low[1:] * self._up[:-1]).tolist()
            gershgorin = float(np.max(self._D[:, 0] - self._low
                                      - np.append(self._up[:-1], 0.0)))

            def positive_definite(lam):
                pivot = 1.0
                for d, b2 in zip(diag, off_sq):
                    pivot = d - lam - b2 / pivot
                    if pivot <= 0.0:
                        return False
                return True

            lo, hi = 0.0, gershgorin
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if positive_definite(mid) else (lo, mid)
            self._lambda_min = float(lo - 8.0 * np.finfo(float).eps * gershgorin)
        return self._lambda_min


@lru_cache(maxsize=16)
def solver_for(grid: GridSpec) -> DiskPoissonSolver:
    """The grid's shared solver; like its nodes and weights, cached on the grid itself."""
    return DiskPoissonSolver(grid)


def solve_dirichlet(f: PolarField) -> PolarField:
    """Solve -lap u = f on the disk with u = 0 on the boundary."""
    return solver_for(f.grid).solve(f)


# ----------------------------------------------------------------------
# tanh-sinh quadrature for endpoint log singularities
# ----------------------------------------------------------------------

# x = s(u) = 1 / (1 + exp(-pi sinh u)) maps the real line onto (0, 1) with
# ds/du = pi cosh(u) exp(-pi sinh u) s^2, which decays double-exponentially
# at both ends; the trapezoid rule with step 1/8 on |u| <= 4 gives 65 nodes
_TS_U = np.arange(-32, 33) / 8.0
_TS_EXP = np.exp(-np.pi * np.sinh(_TS_U))
_TS_NODES = 1.0 / (1.0 + _TS_EXP)
_TS_WEIGHTS = np.pi * np.cosh(_TS_U) * _TS_EXP * _TS_NODES**2 / 8.0


def graded_log_quadrature(fn, a: float, b: float) -> float:
    """Integrate fn over (a, b) with an integrable log singularity at a.

    The tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974) on
    x = a + (b - a) s(u): the nodes crowd double-exponentially towards
    both ends, the node nearest a about 6e-38 (b - a) away from it, so
    a log blow-up at a is integrated to rounding error.
    """
    return float((b - a) * np.sum(fn(a + (b - a) * _TS_NODES) * _TS_WEIGHTS))


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
