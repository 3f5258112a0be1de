"""Solver and quadrature tests: manufactured solutions, invariants, log-sine."""

import itertools

import numpy as np
import pytest
from oracles import integrate_disk

from vortexfield.canonical import VortexConfig
from vortexfield.geom import TWO_PI
from vortexfield.poisson import (DiskPoissonSolver, GridSpec, LOG_SIN_INTEGRAL,
                                 LOG_SIN_SQUARED_INTEGRAL, PolarField,
                                 graded_log_quadrature,
                                 singular_quadrature_1d, solve_dirichlet,
                                 solver_for)
from vortexfield.renorm import g_functional


def _complex_sweep(solver, values):
    """The two-ended sweep of ``solve`` in complex arithmetic, one radius at a time.

    Radius j is eliminated downward and radius n_r - 1 - j upward; for
    even n_r the two middle radii meet in a 2 x 2 solve, for odd n_r the
    middle radius is solved from both neighbours.  The factors are formed
    here from D and the off-diagonals, by the recurrences of the solver.
    """
    D, low, up = solver._D, solver._low, solver._up
    n_r = len(D)
    half = n_r // 2
    fh = np.fft.rfft(values, axis=1)
    u = np.empty_like(fh)
    dp, cp, dq, cq = (np.empty_like(D) for _ in range(4))
    for j in range(n_r - half):
        i, k = j, n_r - 1 - j
        dp[i] = D[i] - low[i] * cp[i - 1] if j else D[i]
        cp[i] = up[i] / dp[i]
        dq[k] = D[k] - up[k] * cq[k + 1] if j else D[k]
        cq[k] = low[k] / dq[k]
    if n_r % 2:
        top, bottom = range(half), range(n_r - 1, half, -1)   # the twist row: half
        gamma = D[half] - low[half] * cp[half - 1] - up[half] * cq[half + 1]
    else:
        top, bottom = range(half), range(n_r - 1, half - 1, -1)
        inv_det = 1.0 / (1.0 - cp[half - 1] * cq[half])
    for rows, piv, step, near in ((top, dp, low, -1), (bottom, dq, up, 1)):
        for i in rows:
            scale = 1.0 / piv[i]
            factor = step[i] / piv[i]
            if n_r % 2 == 0 and i in (half - 1, half):
                scale, factor = scale * inv_det, factor * inv_det
            u[i] = fh[i] * scale
            if i != rows[0]:
                u[i] = u[i] - factor * u[i + near]
    if n_r % 2:
        u[half] = fh[half] * (1.0 / gamma)
        u[half] = u[half] - (low[half] / gamma) * u[half - 1]
        u[half] = u[half] - (up[half] / gamma) * u[half + 1]
    else:
        y, z = u[half - 1].copy(), u[half].copy()
        u[half - 1] = y - cp[half - 1] * z
        u[half] = z - cq[half] * y
    for i in reversed(top[:-1] if n_r % 2 == 0 else top):
        u[i] = u[i] - cp[i] * u[i + 1]
    for i in reversed(bottom[:-1] if n_r % 2 == 0 else bottom):
        u[i] = u[i] - cq[i] * u[i - 1]
    return np.fft.irfft(u, n=values.shape[1], axis=1)


def _power_iteration(solver):
    """60 steps of power iteration, which approach lambda_max from below."""
    grid = solver.grid
    v = np.random.default_rng(0).standard_normal((grid.n_r, grid.n_t))
    lam = 1.0
    for _ in range(60):
        w = solver.apply(PolarField(grid, v))
        norm_w = np.linalg.norm(w)
        lam = float(norm_w / np.linalg.norm(v))
        v = w / norm_w
    return lam


def _modewise_matrices(solver):
    """Per angular mode, the dense T = D + O of A_h and M^{-1} = D^{-1} - D^{-1} O D^{-1}."""
    off = np.diag(solver._low[1:], -1) + np.diag(solver._up[:-1], 1)
    for d in solver._D.T:
        inv_d = np.diag(1.0 / d)
        yield np.diag(d) + off, inv_d - inv_d @ off @ inv_d


def _neumann_power_iteration(solver):
    """60 steps of power iteration on M^{-1} A_h.

    M^{-1} A_h is self-adjoint in <u, A_h v>_w, so the Rayleigh quotient
    <A_h v, M^{-1} A_h v>_w / <v, A_h v>_w of every iterate lies below its
    largest eigenvalue and approaches it.
    """
    grid = solver.grid
    w = grid.cell_weights()
    v = np.random.default_rng(0).standard_normal((grid.n_r, grid.n_t))
    lam = 1.0
    for _ in range(60):
        a_v = solver.apply(PolarField(grid, v))
        v_next = solver.precondition(PolarField(grid, a_v))
        lam = float(np.sum(w * a_v * v_next) / np.sum(w * v * a_v))
        v = v_next / np.max(np.abs(v_next))
    return lam


def _solve_fn(n_r, n_t, fn):
    grid = GridSpec(n_r, n_t)
    f = PolarField.from_function(grid, fn, dirichlet=False)
    return grid, solve_dirichlet(f)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(3, 64)
        with pytest.raises(ValueError):
            GridSpec(16, 7)
        with pytest.raises(ValueError):
            GridSpec(16, 9)

    def test_nodes_are_cell_centered(self):
        g = GridSpec(8, 16)
        assert g.r[0] == pytest.approx(0.5 / 8)
        assert g.r[-1] == pytest.approx(1 - 0.5 / 8)

    def test_nodes_complex_is_cached_and_read_only(self):
        nodes = GridSpec(16, 32).nodes_complex()
        assert GridSpec(16, 32).nodes_complex() is nodes
        assert GridSpec(16, 32).nodes_complex() is GridSpec(16, 32).nodes_complex()
        assert GridSpec(16, 64).nodes_complex() is not nodes
        R, T = GridSpec(16, 32).mesh()
        assert np.array_equal(nodes, R * np.exp(1j * T))
        with pytest.raises(ValueError):
            nodes[0, 0] = 0.0
        weights = GridSpec(16, 32).cell_weights()
        assert GridSpec(16, 32).cell_weights() is weights
        assert GridSpec(16, 64).cell_weights() is not weights
        grid = GridSpec(16, 32)
        assert np.array_equal(weights, (grid.r * grid.dr * grid.dt)[:, None])
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0


class TestSolveDirichlet:
    def test_zero_rhs_gives_zero(self):
        grid, u = _solve_fn(16, 32, lambda R, T: 0.0 * R)
        assert np.max(np.abs(u.values)) == 0.0

    def test_radial_manufactured_solution(self):
        # -lap(1 - r^2) = 4
        grid, u = _solve_fn(64, 128, lambda R, T: 4.0 + 0.0 * R)
        R, _ = grid.mesh()
        assert np.max(np.abs(u.values - (1 - R**2))) < 1e-3

    def test_angular_manufactured_solution(self):
        # -lap((r - r^3) cos t) = 8 r cos t
        grid, u = _solve_fn(64, 128, lambda R, T: 8.0 * R * np.cos(T))
        R, T = grid.mesh()
        assert np.max(np.abs(u.values - (R - R**3) * np.cos(T))) < 1e-3

    @pytest.mark.parametrize("fn,exact", [
        (lambda R, T: 4.0 + 0.0 * R, lambda R, T: 1 - R**2),
        (lambda R, T: 8.0 * R * np.cos(T), lambda R, T: (R - R**3) * np.cos(T)),
    ])
    def test_second_order_convergence(self, fn, exact):
        errs = []
        for n in (32, 64, 128):
            grid, u = _solve_fn(n, 2 * n, fn)
            R, T = grid.mesh()
            errs.append(np.max(np.abs(u.values - exact(R, T))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_rejects_non_finite_rhs(self):
        grid = GridSpec(8, 16)
        bad = np.zeros((8, 16))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            PolarField(grid, bad)

    def test_discrete_maximum_principle(self):
        rng = np.random.default_rng(31)
        grid = GridSpec(24, 48)
        f = PolarField(grid, rng.random((24, 48)), dirichlet=False)
        u = solve_dirichlet(f)
        assert np.min(u.values) >= -1e-12

    def test_self_adjointness(self):
        rng = np.random.default_rng(41)
        grid = GridSpec(16, 32)
        f = PolarField(grid, rng.standard_normal((16, 32)), dirichlet=False)
        g = PolarField(grid, rng.standard_normal((16, 32)), dirichlet=False)
        uf = solve_dirichlet(f)
        ug = solve_dirichlet(g)
        lhs = integrate_disk(PolarField(grid, g.values * uf.values, dirichlet=False))
        rhs = integrate_disk(PolarField(grid, f.values * ug.values, dirichlet=False))
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_pole_regularity(self):
        grid, u = _solve_fn(64, 128, lambda R, T: 4.0 + 0.0 * R)
        assert np.max(np.abs(u.values[0])) <= np.max(np.abs(u.values)) + 1e-15

    def test_operator_inverts_solve(self):
        rng = np.random.default_rng(53)
        grid = GridSpec(16, 32)
        solver = solver_for(grid)
        f = rng.standard_normal((16, 32))
        u = solver.solve(PolarField(grid, f, dirichlet=False))
        assert np.max(np.abs(solver.apply(u) - f)) < 1e-10

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (64, 128), (128, 256),
                                         (5, 8), (33, 64)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real_sweep_equals_complex_sweep(self, n_r, n_t, seed):
        # every factor is real, and numpy multiplies a complex number by a
        # real one part by part, so the real pair-row sweep is bitwise the same
        grid = GridSpec(n_r, n_t)
        f = np.random.default_rng(seed).standard_normal((n_r, n_t))
        u = solver_for(grid).solve(PolarField(grid, f, dirichlet=False))
        assert np.array_equal(u.values, _complex_sweep(solver_for(grid), f))
        # the out= forms write the same values into the caller's arrays
        out = PolarField.zeros(grid)
        assert solver_for(grid).solve(PolarField(grid, f, dirichlet=False), out=out) is out
        assert np.array_equal(out.values, u.values)
        applied = np.empty((n_r, n_t))
        assert solver_for(grid).apply(u, out=applied) is applied
        assert np.array_equal(applied, solver_for(grid).apply(u))

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (64, 128), (128, 256),
                                         (5, 8), (33, 64)])
    def test_solve_matches_a_dense_solve_per_mode(self, n_r, n_t):
        # each angular mode's tridiagonal system, solved by LAPACK
        grid = GridSpec(n_r, n_t)
        solver = solver_for(grid)
        f = np.random.default_rng(7).standard_normal((n_r, n_t))
        fh = np.fft.rfft(f, axis=1)
        uh = np.stack([np.linalg.solve(t, fh[:, m])
                       for m, (t, _) in enumerate(_modewise_matrices(solver))], axis=1)
        reference = np.fft.irfft(uh, n=n_t, axis=1)
        u = solver.solve(PolarField(grid, f, dirichlet=False)).values
        assert np.max(np.abs(u - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (5, 8)])
    def test_interleaved_calls_share_the_spectra_safely(self, n_r, n_t):
        # solve, apply and precondition all work in the solver's _spectra; in
        # any order each gives bitwise what it gives on a fresh solver
        grid = GridSpec(n_r, n_t)
        rng = np.random.default_rng(11)
        fields = [PolarField(grid, rng.standard_normal((n_r, n_t))) for _ in range(3)]
        calls = {
            "solve": lambda s, u: s.solve(u).values,
            "apply": lambda s, u: s.apply(u),
            "precondition": lambda s, u: s.precondition(u),
        }
        shared = DiskPoissonSolver(grid)
        for order in itertools.product(calls, repeat=3):
            for name, u in zip(order, fields):
                expected = calls[name](DiskPoissonSolver(grid), u)
                assert np.array_equal(calls[name](shared, u), expected), order

    def test_operator_inverts_solve_on_the_default_grid(self):
        # at 128 x 256 the operator norm is about 1e9, so the residual is
        # bounded by rounding relative to it, not by an absolute 1e-10
        rng = np.random.default_rng(53)
        grid = GridSpec(128, 256)
        solver = solver_for(grid)
        f = rng.standard_normal((128, 256))
        u = solver.solve(PolarField(grid, f, dirichlet=False))
        rounding = np.finfo(float).eps * _power_iteration(solver) * np.max(np.abs(u.values))
        assert np.max(np.abs(solver.apply(u) - f)) < 4.0 * rounding

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (64, 128), (128, 256)])
    def test_lambda_max_bounds_the_power_estimate(self, n_r, n_t):
        # Gershgorin bounds the spectrum from above, and power iteration
        # approaches its top from below
        solver = solver_for(GridSpec(n_r, n_t))
        bound, estimate = solver.lambda_max(), _power_iteration(solver)
        assert estimate <= bound <= 1.01 * estimate

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32)])
    def test_precondition_is_the_two_term_neumann_series(self, n_r, n_t):
        # each mode's dense D^{-1} - D^{-1} O D^{-1} applied to its rfft column
        grid = GridSpec(n_r, n_t)
        solver = solver_for(grid)
        v = np.random.default_rng(17).standard_normal((n_r, n_t))
        vh = np.fft.rfft(v, axis=1)
        mh = np.stack([m_inv @ vh[:, m]
                       for m, (_, m_inv) in enumerate(_modewise_matrices(solver))], axis=1)
        reference = np.fft.irfft(mh, n=n_t, axis=1)
        out = np.empty_like(v)
        assert solver.precondition(PolarField(grid, v), out=out) is out
        assert np.max(np.abs(out - reference)) < 1e-13
        with pytest.raises(ValueError):
            solver.precondition(PolarField(GridSpec(2 * n_r, n_t), np.zeros((2 * n_r, n_t))))

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (32, 64), (64, 128), (128, 256)])
    def test_preconditioned_spectrum_lies_in_zero_one(self, n_r, n_t):
        # M^{-1} T = I - (D^{-1} O)^2 with |nu| < 1 for every eigenvalue nu of
        # D^{-1} O; the power estimate runs on precondition and apply themselves
        solver = solver_for(GridSpec(n_r, n_t))
        assert _neumann_power_iteration(solver) <= 1.0 + 1e-12
        smallest = min(float(np.min(np.linalg.eigvals(m_inv @ t).real))
                       for t, m_inv in _modewise_matrices(solver))
        assert smallest > 0.0

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (32, 64), (64, 128), (128, 256)])
    def test_preconditioner_is_below_two_over_diag_min(self, n_r, n_t):
        # M^{-1} is r-weighted symmetric, so r^(1/2) M^{-1} r^(-1/2) is symmetric
        # with its spectrum; that spectrum is positive and below 2 / min D
        grid = GridSpec(n_r, n_t)
        solver = solver_for(grid)
        root = np.sqrt(grid.r)
        largest, smallest = 0.0, np.inf
        for _, m_inv in _modewise_matrices(solver):
            sym = root[:, None] * m_inv / root[None, :]
            assert np.allclose(sym, sym.T, rtol=1e-14, atol=0.0)
            eig = np.linalg.eigvalsh(0.5 * (sym + sym.T))
            largest, smallest = max(largest, eig[-1]), min(smallest, eig[0])
        assert solver.diag_min == np.min(solver._D)
        assert smallest > 0.0
        assert largest * solver.diag_min <= 2.0

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (32, 64), (64, 128)])
    def test_lambda_min_bounds_the_dense_spectrum(self, n_r, n_t):
        # each mode m is a tridiagonal matrix, similar through r^(1/2) to a
        # symmetric one; LAPACK on those is the reference, and m = 0 holds
        # the smallest eigenvalue of them all
        grid = GridSpec(n_r, n_t)
        solver = solver_for(grid)
        root = np.sqrt(grid.r)
        smallest = []
        for m in range(n_t // 2 + 1):
            a = (np.diag(solver._D[:, m]) + np.diag(solver._low[1:], -1)
                 + np.diag(solver._up[:-1], 1))
            sym = root[:, None] * a / root[None, :]
            smallest.append(np.linalg.eigvalsh(0.5 * (sym + sym.T))[0])
        reference = min(smallest)
        assert reference == smallest[0]
        bound = solver.lambda_min()
        assert bound <= reference
        assert reference - bound <= 1e-8 * reference


class TestIntegrateDisk:
    def test_unit_function_gives_area(self):
        grid = GridSpec(32, 64)
        one = PolarField.from_function(grid, lambda R, T: 1.0 + 0.0 * R, dirichlet=False)
        assert integrate_disk(one) == pytest.approx(np.pi, abs=1e-10)

    def test_r_squared(self):
        # 2 pi int r^3 dr = pi / 2, midpoint error O(dr^2)
        errs = []
        for n in (64, 128):
            grid = GridSpec(n, 2 * n)
            f = PolarField.from_function(grid, lambda R, T: R**2, dirichlet=False)
            errs.append(abs(integrate_disk(f) - np.pi / 2))
        assert errs[0] < 5e-4
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_gradient_squared_of_paraboloid(self):
        # |grad(1 - r^2)|^2 = 4 r^2 integrates to 2 pi
        grid = GridSpec(64, 128)
        f = PolarField.from_function(grid, lambda R, T: 4 * R**2, dirichlet=False)
        assert integrate_disk(f) == pytest.approx(2 * np.pi, abs=2e-3)


class TestGradientEnergy:
    # the Dirichlet energy (1/2) <theta, A_h theta>_w lives in g_functional;
    # at h = 0 it is the whole of G
    def test_zero_field(self):
        grid = GridSpec(16, 32)
        cfg = VortexConfig.pair(0.0, np.pi)
        assert g_functional(cfg, PolarField.zeros(grid), (0.0, 0.0)) == 0.0

    def test_requires_dirichlet_tag(self):
        grid = GridSpec(16, 32)
        u = PolarField.zeros(grid, dirichlet=False)
        with pytest.raises(ValueError):
            g_functional(VortexConfig.pair(0.0, np.pi), u, (0.0, 0.0))


class TestSingularQuadrature:
    def test_log_sin_value(self):
        # closed form -(pi/2) log 2
        v = singular_quadrature_1d("log_sin")
        assert v == pytest.approx(LOG_SIN_INTEGRAL, abs=1e-6)
        assert LOG_SIN_INTEGRAL == pytest.approx(-0.5 * np.pi * np.log(2.0))

    def test_log_sin_squared_value(self):
        # closed form (pi/2)[(log 2)^2 + pi^2/12]
        v = singular_quadrature_1d("log_sin_squared")
        assert v == pytest.approx(LOG_SIN_SQUARED_INTEGRAL, abs=1e-6)

    def test_cauchy_schwarz_consistency(self):
        v1 = singular_quadrature_1d("log_sin")
        v2 = singular_quadrature_1d("log_sin_squared")
        assert v2 >= v1**2 * (2.0 / np.pi)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            singular_quadrature_1d("nope")

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_power_times_log(self, k):
        # int_0^1 x^k log x dx = -1 / (k + 1)^2
        v = graded_log_quadrature(lambda x: x**k * np.log(x), 0.0, 1.0)
        assert abs(v + 1.0 / (k + 1) ** 2) < 1e-14

    def test_log_squared(self):
        # int_0^1 (log x)^2 dx = 2
        v = graded_log_quadrature(lambda x: np.log(x) ** 2, 0.0, 1.0)
        assert abs(v - 2.0) < 1e-14
