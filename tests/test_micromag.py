"""Fixed-point solver, field correction V, total energy, magnetization samples."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vortexfield.canonical import VortexConfig, canonical_map_disk
from vortexfield.geom import ConformalDomain
from vortexfield.micromag import (ExternalField, SampleSpec,
                                  interpolate_field, magnetization_field,
                                  minimize_g_descent, picard_solve,
                                  require_picard_budget, total_energy,
                                  v_external)
from vortexfield.poisson import DiskPoissonSolver, GridSpec, PolarField, solve_dirichlet
from vortexfield.micromag import _picard_rhs
from vortexfield.renorm import coupling_phase, g_functional

TWO_PI = 2.0 * np.pi
ANTIPODAL = VortexConfig.pair(0.0, np.pi)
STRONG_PAIR = VortexConfig.pair(0.5, 2.5)
ROTATION_GRID = GridSpec(32, 64)


class TestExternalField:
    def test_smallness_guard(self):
        with pytest.raises(ValueError):
            ExternalField((0.6, 0.0), h_max=0.5)
        # unbounded unless a bound is passed
        assert ExternalField((0.0, 20.0)).norm == 20.0

    def test_guard_is_configurable(self):
        f = ExternalField((0.0, 1.0), h_max=1.0)
        assert f.norm == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ExternalField((np.nan, 0.0))


class TestPicardSolve:
    def test_zero_field_converges_immediately(self):
        theta, report = picard_solve(ANTIPODAL, ExternalField((0.0, 0.0)),
                                     GridSpec(16, 32))
        assert report.converged
        assert report.iterations == 1
        assert np.max(np.abs(theta.values)) == 0.0

    @pytest.mark.parametrize("h", [(-0.01, 0.0), (0.0, 3.0), (2.0, -7.0)])
    def test_one_cosine_rhs_matches_the_cos_sin_form(self, h):
        # q = i conj(h1 + i h2) M = |h| e^{i phi}, so |h| cos(theta + phi)
        # is cos(theta) Re q - sin(theta) Im q up to rounding
        grid = GridSpec(64, 128)
        theta = np.random.default_rng(7).uniform(-4.0, 4.0, (64, 128))
        q = 1j * complex(h[0], -h[1]) * canonical_map_disk(STRONG_PAIR, grid.nodes_complex())
        rhs = _picard_rhs(theta, coupling_phase(STRONG_PAIR, grid, h))
        reference = np.cos(theta) * q.real - np.sin(theta) * q.imag
        assert np.max(np.abs(rhs - reference)) <= 8 * np.finfo(float).eps * np.hypot(*h)

    def test_geometric_decay_of_changes(self):
        _, report = picard_solve(ANTIPODAL, ExternalField((-0.01, 0.0)),
                                 GridSpec(64, 128))
        assert report.converged
        changes = report.changes
        for i in range(1, len(changes) - 1):
            assert changes[i + 1] <= 0.9 * changes[i]

    def test_euler_lagrange_residual_is_small(self):
        _, report = picard_solve(ANTIPODAL, ExternalField((-0.01, 0.0)),
                                 GridSpec(64, 128))
        assert report.residual < 1e-8

    def test_nonconvergence_is_flagged(self):
        _, report = picard_solve(ANTIPODAL, ExternalField((0.2, 0.1)),
                                 GridSpec(16, 32), tol=1e-14, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    @pytest.mark.parametrize("tol, max_iter", [(1e-9, 0), (0.0, 50), (np.nan, 50),
                                               (np.inf, 50), (-1e-9, 50)])
    def test_empty_budget_or_bad_tol_is_rejected(self, tol, max_iter):
        with pytest.raises(ValueError):
            require_picard_budget(tol, max_iter)
        with pytest.raises(ValueError):
            picard_solve(STRONG_PAIR, ExternalField((0.0, 0.3)), GridSpec(16, 32),
                         tol=tol, max_iter=max_iter)
        with pytest.raises(ValueError):
            total_energy(ConformalDomain.disk(), STRONG_PAIR, ExternalField((0.0, 0.3)),
                         GridSpec(16, 32), tol=tol, max_iter=max_iter)
        require_picard_budget(1e-9, 1)

    def test_matches_descent_oracle(self):
        grid = GridSpec(8, 16)
        field = ExternalField((0.0, 0.01))
        theta_p, report = picard_solve(ANTIPODAL, field, grid)
        theta_g, iters, residual = minimize_g_descent(ANTIPODAL, field, grid)
        assert report.converged and residual < 1e-8
        assert np.max(np.abs(theta_p.values - theta_g.values)) < 1e-6

    def test_descent_oracle_never_solves(self, monkeypatch):
        # the oracle is independent of the linear solver it cross-checks
        def no_solve(self, f):
            raise AssertionError("minimize_g_descent called solve()")
        monkeypatch.setattr(DiskPoissonSolver, "solve", no_solve)
        _, _, residual = minimize_g_descent(VortexConfig.pair(0.5, 2.8),
                                            ExternalField((-0.01, 0.0)), GridSpec(8, 16))
        assert residual < 1e-8

    @pytest.mark.parametrize("h2", [6.5, 10.0])
    def test_converges_past_the_picard_contraction_bound(self, h2):
        # plain Picard contracts by about |h| / lambda_1 with lambda_1 ~ 5.78
        # and does not converge here within 50 iterations
        grid = GridSpec(64, 128)
        field = ExternalField((0.0, h2), h_max=h2)
        theta, report = picard_solve(STRONG_PAIR, field, grid)
        assert report.converged
        assert report.iterations <= 20
        assert report.changes[-1] < 1e-9
        assert report.residual < 1e-7

    def test_strong_field_fixed_point_matches_descent_oracle(self):
        grid = GridSpec(16, 32)
        field = ExternalField((0.0, 6.5), h_max=6.5)
        theta_p, report = picard_solve(STRONG_PAIR, field, grid)
        theta_g, _, residual = minimize_g_descent(STRONG_PAIR, field, grid)
        assert report.converged and residual < 1e-8
        assert np.max(np.abs(theta_p.values - theta_g.values)) < 1e-8

    def test_moderate_field_iteration_count(self):
        # plain Picard needs 18 iterations here
        _, report = picard_solve(STRONG_PAIR, ExternalField((0.0, 3.0), h_max=3.0),
                                 GridSpec(64, 128))
        assert report.converged
        assert report.iterations <= 10

    def test_g_decreases_along_iterates(self):
        # observed property of the fixed-point trajectory at |h| <= 0.1
        grid = GridSpec(48, 96)
        h = (0.0, 0.1)
        m = canonical_map_disk(ANTIPODAL, grid.nodes_complex())
        theta = PolarField.zeros(grid)
        previous = g_functional(ANTIPODAL, theta, h)
        for _ in range(8):
            rotated = 1j * np.exp(1j * theta.values) * m
            rhs = PolarField(grid, h[0] * rotated.real + h[1] * rotated.imag,
                             dirichlet=False)
            theta = solve_dirichlet(rhs)
            current = g_functional(ANTIPODAL, theta, h)
            assert current <= previous + 1e-10
            previous = current


class TestVExternal:
    def test_zero_field_gives_zero(self):
        assert v_external(ANTIPODAL, ExternalField((0.0, 0.0)), GridSpec(16, 32)) == 0.0

    def test_minimizer_beats_zero_candidate(self):
        grid = GridSpec(64, 128)
        h = (0.0, 0.01)
        v = v_external(ANTIPODAL, ExternalField(h), grid)
        m = canonical_map_disk(ANTIPODAL, grid.nodes_complex())
        from vortexfield.poisson import integrate_disk
        zero_candidate = -integrate_disk(PolarField(
            grid, h[0] * m.real + h[1] * m.imag, dirichlet=False))
        assert v <= zero_candidate

    def test_label_swap_equals_field_flip(self):
        # swapping the two identical vortices flips the sign of M, which
        # is the same problem as flipping h; the values agree exactly
        grid = GridSpec(32, 64)
        h = (0.013, 0.007)
        v1 = v_external(VortexConfig.pair(0.0, np.pi), ExternalField(h), grid)
        v2 = v_external(VortexConfig.pair(np.pi, 0.0),
                        ExternalField((-h[0], -h[1])), grid)
        assert v1 == pytest.approx(v2, abs=1e-15)

    def test_field_flip_changes_v_at_first_order(self):
        # Numerical verification outcome: V(a; h) and V(a; -h) are NOT
        # equal for antipodal vortices; they satisfy
        # V(h) + V(-h) = -2 * (quadratic gain) = O(|h|^2), because the
        # linear part -h . int(M) flips sign while the gain does not.
        grid = GridSpec(64, 128)
        h = (0.013, 0.007)
        v_plus = v_external(ANTIPODAL, ExternalField(h), grid)
        v_minus = v_external(ANTIPODAL, ExternalField((-h[0], -h[1])), grid)
        norm2 = h[0] ** 2 + h[1] ** 2
        assert abs(v_plus - v_minus) > 10 * norm2       # genuinely different
        assert abs(v_plus + v_minus) <= norm2           # but symmetric to O(h^2)

    def test_lipschitz_continuity_in_h(self):
        # |dV/dh| <= int |M| = pi (envelope bound), tested with 10% slack
        grid = GridSpec(32, 64)
        lipschitz = np.pi * 1.1
        hs = [(0.0, 0.01), (0.0, 0.02), (0.01, 0.01), (-0.01, 0.02)]
        values = [v_external(ANTIPODAL, ExternalField(h), grid) for h in hs]
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                dh = np.hypot(hs[i][0] - hs[j][0], hs[i][1] - hs[j][1])
                assert abs(values[i] - values[j]) <= lipschitz * dh

    @pytest.mark.parametrize("h", [(-0.01, 0.0), (0.0, 0.01)])
    def test_scaling_toward_zero_field(self, h):
        grid = GridSpec(32, 64)
        base = v_external(ANTIPODAL, ExternalField(h), grid)
        for eps in (0.5, 0.25):
            scaled = v_external(ANTIPODAL,
                                ExternalField((eps * h[0], eps * h[1])), grid)
            assert abs(scaled) <= eps * abs(base) + 1e-8


class TestTotalEnergy:
    def test_disk_zero_field_closed_form(self):
        eb = total_energy(ConformalDomain.disk(), ANTIPODAL,
                          ExternalField((0.0, 0.0)), GridSpec(16, 32))
        assert eb.total == pytest.approx(-np.pi * np.log(2.0), abs=1e-14)
        assert eb.v_ext == 0.0

    def test_degenerate_configuration_is_infinite(self):
        eb = total_energy(ConformalDomain.disk(), VortexConfig.pair(1.0, 1.0),
                          ExternalField((0.0, 0.0)), GridSpec(16, 32))
        assert eb.total == np.inf
        assert eb.w0 == np.inf and eb.v_ext == 0.0

    def test_field_breaks_rotation_symmetry(self):
        grid = GridSpec(64, 128)
        h = ExternalField((-0.01, 0.0))
        aligned = total_energy(ConformalDomain.disk(), ANTIPODAL, h, grid)
        crossed = total_energy(ConformalDomain.disk(),
                               VortexConfig.pair(np.pi / 2, 3 * np.pi / 2), h, grid)
        assert aligned.total < crossed.total

    @settings(max_examples=12, deadline=None, database=None)
    @given(s=st.tuples(st.floats(-TWO_PI, 2 * TWO_PI), st.floats(-TWO_PI, 2 * TWO_PI)),
           c=st.one_of(st.none(), st.floats(0.0, 0.45)),
           h=st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)))
    @example(s=(0.4, 2.0), c=None, h=(0.01, -0.005))
    def test_exchange_symmetry_is_exact(self, s, c, h):
        # c = None is the disk; swapping the labels must not move a bit
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        field = ExternalField(h)
        a = total_energy(domain, VortexConfig.pair(s[0], s[1]), field, ROTATION_GRID)
        b = total_energy(domain, VortexConfig.pair(s[1], s[0]), field, ROTATION_GRID)
        assert a.total == b.total

    @settings(max_examples=20, deadline=None, database=None)
    @given(s=st.tuples(st.floats(0.0, TWO_PI, exclude_max=True),
                       st.floats(0.0, TWO_PI, exclude_max=True)),
           k=st.integers(1, ROTATION_GRID.n_t - 1),
           h=st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)))
    def test_exact_rotation_law_on_the_disk(self, s, k, h):
        # W(s + phi; R_phi h) = W(s; sigma h) for grid rotations
        # phi = k dt.  M flips sign with the sorted label order, so
        # sigma = -1 exactly when the rotation wraps one angle past 2 pi
        # and reverses that order.
        sep = abs(s[0] - s[1]) % TWO_PI
        assume(min(sep, TWO_PI - sep) > 0.05)
        s = tuple(sorted(s))
        phi = k * ROTATION_GRID.dt
        rotated = tuple(np.mod(np.add(s, phi), TWO_PI))
        sigma = -1.0 if rotated[0] > rotated[1] else 1.0
        c, d = np.cos(phi), np.sin(phi)
        disk = ConformalDomain.disk()
        w_rot = total_energy(disk, VortexConfig.pair(*rotated),
                             ExternalField((c * h[0] - d * h[1], d * h[0] + c * h[1])),
                             ROTATION_GRID).total
        w = total_energy(disk, VortexConfig.pair(*s),
                         ExternalField((sigma * h[0], sigma * h[1])), ROTATION_GRID).total
        assert w_rot == pytest.approx(w, abs=1e-12)

    def test_total_is_sum_of_parts(self):
        grid = GridSpec(32, 64)
        eb = total_energy(ConformalDomain.oval(0.2), ANTIPODAL,
                          ExternalField((0.0, 0.01)), grid)
        assert eb.total == eb.w0 + eb.v_ext


class TestInterpolation:
    def test_reproduces_grid_values(self):
        grid = GridSpec(16, 32)
        theta = PolarField.from_function(grid, lambda R, T: (1 - R**2) * np.cos(T))
        R, T = grid.mesh()
        pts = (R * np.exp(1j * T)).ravel()
        vals = interpolate_field(theta, pts)
        assert np.max(np.abs(vals - theta.values.ravel())) < 1e-13

    def test_smooth_function_off_grid(self):
        grid = GridSpec(64, 128)
        theta = PolarField.from_function(grid, lambda R, T: (1 - R**2) * np.cos(T))
        rng = np.random.default_rng(77)
        pts = 0.95 * np.sqrt(rng.random(200)) * np.exp(1j * rng.uniform(0, TWO_PI, 200))
        vals = interpolate_field(theta, pts)
        exact = (1 - np.abs(pts) ** 2) * np.cos(np.angle(pts) % TWO_PI)
        assert np.max(np.abs(vals - exact)) < 5e-3

    def test_vanishes_at_boundary(self):
        grid = GridSpec(32, 64)
        theta = PolarField.from_function(grid, lambda R, T: 1 - R**2)
        pts = (1.0 - 1e-12) * np.exp(1j * np.linspace(0, TWO_PI, 7))
        assert np.max(np.abs(interpolate_field(theta, pts))) < 1e-10


class TestMagnetizationField:
    def test_zero_field_equals_canonical_map(self):
        out = magnetization_field(ConformalDomain.disk(), ANTIPODAL,
                                  ExternalField((0.0, 0.0)), GridSpec(16, 32),
                                  SampleSpec(n_r=6, n_t=12))
        pts = np.array([s.x + 1j * s.y for s in out.samples])
        m = np.array([s.mx + 1j * s.my for s in out.samples])
        assert np.max(np.abs(m - canonical_map_disk(ANTIPODAL, pts))) < 1e-14

    @settings(max_examples=15, deadline=None, database=None)
    @given(c=st.floats(0.0, 0.45),
           h=st.tuples(st.floats(-0.35, 0.35), st.floats(-0.35, 0.35)),
           n=st.tuples(st.integers(1, 10), st.integers(1, 20)),
           jitter=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(c=0.2, h=(0.0, 0.05), n=(8, 16), jitter=0.0, seed=0)
    def test_unit_norm(self, c, h, n, jitter, seed):
        out = magnetization_field(ConformalDomain.oval(c), ANTIPODAL,
                                  ExternalField(h), GridSpec(32, 64),
                                  SampleSpec(n_r=n[0], n_t=n[1], jitter=jitter, seed=seed))
        assert len(out.samples) + out.skipped == n[0] * n[1]
        for s in out.samples:
            assert abs(s.mx**2 + s.my**2 - 1.0) < 1e-10

    def test_boundary_tangency_for_any_field(self):
        # theta = 0 on the boundary, so m = M there and stays tangent
        t = np.linspace(0.3, TWO_PI - 0.3, 40)
        pts = (1.0 - 1e-9) * np.exp(1j * t)
        out = magnetization_field(ConformalDomain.disk(), ANTIPODAL,
                                  ExternalField((0.03, 0.04)), GridSpec(64, 128),
                                  SampleSpec(points=tuple(pts)))
        assert out.skipped == 0
        for s, ti in zip(out.samples, t):
            nu = np.exp(1j * ti)
            m = s.mx + 1j * s.my
            assert abs(np.real(m * np.conj(nu))) < 1e-6

    def test_outside_points_are_skipped_and_counted(self):
        pts = (0.5, 1.5 + 0.0j, 2.0j)
        out = magnetization_field(ConformalDomain.disk(), ANTIPODAL,
                                  ExternalField((0.0, 0.0)), GridSpec(16, 32),
                                  SampleSpec(points=pts))
        assert out.skipped == 2
        assert len(out.samples) == 1

    def test_oval_positions_pass_through_forward_map(self):
        dom = ConformalDomain.oval(0.2)
        pts = (0.5, 0.3j)
        out = magnetization_field(dom, ANTIPODAL, ExternalField((0.0, 0.0)),
                                  GridSpec(16, 32), SampleSpec(points=pts))
        expected = dom.forward(np.asarray(pts))
        got = np.array([s.x + 1j * s.y for s in out.samples])
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_jitter_is_reproducible(self):
        spec = SampleSpec(n_r=5, n_t=9, jitter=0.5, seed=42)
        assert np.array_equal(spec.disk_points(), spec.disk_points())

    @pytest.mark.parametrize("kwargs", [{"n_r": 0}, {"n_t": 0}, {"jitter": -0.1},
                                        {"jitter": np.nan}, {"jitter": np.inf},
                                        {"seed": -1}])
    def test_sample_spec_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SampleSpec(**kwargs)
