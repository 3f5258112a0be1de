"""Solver and quadrature tests: manufactured solutions, invariants, log-sine."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander

from vortexfield.canonical import VortexConfig
from vortexfield.poisson import (GridSpec, LOG_SIN_INTEGRAL,
                                 LOG_SIN_SQUARED_INTEGRAL, PolarField,
                                 gauss_legendre, integrate_disk,
                                 singular_quadrature_1d, solve_dirichlet,
                                 solver_for)
from vortexfield.renorm import g_functional

TWO_PI = 2.0 * np.pi


def _complex_sweep(solver, values):
    """The complex Thomas sweep ``solve`` ran before its real in-place form."""
    low, cp = solver._low, np.array(solver._cp)[:, ::2]
    dp = solver._D.copy()
    dp[1:] -= low[1:, None] * cp[:-1]   # the factorization's own recurrence
    fh = np.fft.rfft(values, axis=1)
    y = np.empty_like(fh)
    y[0] = fh[0] / dp[0]
    for i in range(1, len(y)):
        y[i] = (fh[i] - low[i] * y[i - 1]) / dp[i]
    for i in range(len(y) - 2, -1, -1):
        y[i] = y[i] - cp[i] * y[i + 1]
    return np.fft.irfft(y, n=values.shape[1], axis=1)


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

    @pytest.mark.parametrize("n_r,n_t", [(8, 16), (16, 32), (64, 128), (128, 256)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real_sweep_equals_complex_sweep(self, n_r, n_t, seed):
        # numpy divides a complex number by a real one by multiplying with
        # the reciprocal, so the real in-place sweep is bitwise the same
        grid = GridSpec(n_r, n_t)
        f = np.random.default_rng(seed).standard_normal((n_r, n_t))
        u = solver_for(grid).solve(PolarField(grid, f, dirichlet=False))
        assert np.array_equal(u.values, _complex_sweep(solver_for(grid), f))

    def test_operator_inverts_solve_on_the_default_grid(self):
        # at 128 x 256 the operator norm is about 1e9, so the residual is
        # bounded by rounding relative to it, not by an absolute 1e-10
        rng = np.random.default_rng(53)
        grid = GridSpec(128, 256)
        solver = solver_for(grid)
        f = rng.standard_normal((128, 256))
        u = solver.solve(PolarField(grid, f, dirichlet=False))
        rounding = np.finfo(float).eps * solver.lambda_max() * np.max(np.abs(u.values))
        assert np.max(np.abs(solver.apply(u) - f)) < 4.0 * rounding


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


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_matches_leggauss(self, n):
        x, w = gauss_legendre(n)
        x_ref, w_ref = leggauss(n)
        assert np.max(np.abs(x - x_ref)) < 1e-14
        # leggauss's own endpoint weights are off by up to 1.3e-12 (n = 64)
        # and 2.1e-11 (n = 256) relative to 40-digit values, so they cannot
        # pin the weights to 1e-12; test_endpoint_weight does that
        assert np.max(np.abs(w / w_ref - 1.0)) < 5e-11
        assert w.sum() == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_exact_up_to_degree_2n_minus_1(self, n):
        # the integral of P_k over [-1, 1] is 2 for k = 0 and 0 for k >= 1
        x, w = gauss_legendre(n)
        moments = w @ legvander(x, 2 * n - 1)
        expected = np.zeros(2 * n)
        expected[0] = 2.0
        assert np.max(np.abs(moments - expected)) < 1e-14

    # smallest weight, 2 (1 - x^2) / (n P_{n-1}(x))^2 at the root of P_n
    # nearest -1, found with 40-digit arithmetic
    @pytest.mark.parametrize("n,w_end", [(64, 0.001783280721696432947296079),
                                         (256, 0.0001127890178222721755125389)])
    def test_endpoint_weight(self, n, w_end):
        _, w = gauss_legendre(n)
        assert w[0] == pytest.approx(w_end, rel=1e-12)
        assert w[-1] == pytest.approx(w_end, rel=1e-12)

    def test_cached_arrays_are_read_only(self):
        x, w = gauss_legendre(8)
        assert gauss_legendre(8)[0] is x
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
