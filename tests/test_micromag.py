"""Fixed-point solver, field correction V, total energy, magnetization samples."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vortexfield.canonical import VortexConfig, canonical_map_disk
from vortexfield.errors import ConfigurationError, ConvergenceError
from vortexfield.geom import TWO_PI, ConformalDomain
from vortexfield.micromag import (ExternalField, SampleSpec, energy_gradient,
                                  interpolate_field, magnetization_field, minimize_g_descent,
                                  picard_solve, require_picard_budget, total_energy)
from vortexfield.poisson import (DiskPoissonSolver, GridSpec, PolarField, solve_dirichlet,
                                 solver_for)
from vortexfield.micromag import _picard_rhs
from vortexfield.optimize import energy_objective, nelder_mead
from vortexfield.renorm import coupling_phase, evaluation_work, g_functional

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
        # finite components whose |h|^2 overflows, or even |h| itself:
        # rejected without a numpy overflow warning
        for h in [(1e308, 1e308), (1.5e308, -1.5e308), (1e200, 0.0)]:
            with warnings.catch_warnings(), pytest.raises(ValueError):
                warnings.simplefilter("error")
                ExternalField(h)


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

    @pytest.mark.parametrize("domain,h", [(ConformalDomain.disk(), (-0.01, 0.0)),
                                          (ConformalDomain.oval(0.2), (0.0, 3.0)),
                                          (ConformalDomain.oval(0.2), (0.0, 8.0))])
    def test_one_operator_apply_per_branch_solve(self, domain, h, monkeypatch):
        # the residual's A_h theta serves G's kinetic term; V and the residual
        # are bitwise those of g_functional and the operator called alone.
        # A bound check's apply serves G of its iterate, and, when the solve
        # stops there, the residual too: one apply per converged solve and
        # one per check (the oval at h = (0, 3) cuts its losing orientation)
        from vortexfield import micromag
        grid = GridSpec(32, 64)
        applies, real = [], DiskPoissonSolver.apply
        checks, real_g = [], micromag.g_value

        def counted(self, u, out=None):
            applies.append(1)
            return real(self, u, out=out)

        def counted_g(*args):
            checks.append(1)
            return real_g(*args)
        monkeypatch.setattr(DiskPoissonSolver, "apply", counted)
        monkeypatch.setattr(micromag, "g_value", counted_g)
        thetas = {}
        eb = total_energy(domain, STRONG_PAIR, ExternalField(h), grid, thetas=thetas)
        theta, diag = eb.theta, eb.diagnostics
        assert theta is thetas[diag["sigma"]][-1][1]
        assert len(applies) == diag["branches_solved"] + len(checks)
        assert len(checks) == (1 if h == (0.0, 3.0) else 0)
        sigma_h = (diag["sigma"] * h[0], diag["sigma"] * h[1])
        assert eb.v_ext == g_functional(STRONG_PAIR, theta, sigma_h)
        lhs = real(solver_for(grid), theta) - _picard_rhs(
            theta.values, coupling_phase(STRONG_PAIR, grid, sigma_h))
        assert diag["residual"] == float(np.max(np.abs(lhs)))

    def test_returned_theta_survives_a_later_solve(self):
        # the iterates live in per-grid work arrays; the returned theta does not
        grid = GridSpec(16, 32)
        theta, _ = picard_solve(ANTIPODAL, ExternalField((0.0, 3.0)), grid)
        kept = theta.values.copy()
        picard_solve(STRONG_PAIR, ExternalField((-0.01, 0.0)), grid)
        g_functional(STRONG_PAIR, theta, (-0.01, 0.0))
        assert np.array_equal(theta.values, kept)

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

    def test_descent_returns_a_theta_no_later_call_writes(self):
        grid = GridSpec(8, 16)
        first, _, _ = minimize_g_descent(VortexConfig.pair(0.5, 2.8),
                                         ExternalField((-0.01, 0.0)), grid)
        kept = first.values.copy()
        second, _, _ = minimize_g_descent(STRONG_PAIR, ExternalField((0.0, 3.0)), grid)
        assert not np.shares_memory(first.values, second.values)
        assert np.array_equal(first.values, kept)

    def test_descent_with_a_non_finite_gradient_raises(self, monkeypatch):
        from vortexfield import micromag
        real = micromag.coupling_phase
        monkeypatch.setattr(micromag, "coupling_phase",
                            lambda *args: (float("nan"), real(*args)[1]))
        with pytest.raises(ConvergenceError, match="not finite"):
            minimize_g_descent(ANTIPODAL, ExternalField((0.0, 0.01)), GridSpec(8, 16))

    @pytest.mark.parametrize("grid, h, config, ceiling", [
        # the step 1 / (lambda_max (1 + |h|)) took 826 and 9,527 iterations
        # here, and the Jacobi preconditioner 97 and 242
        (GridSpec(8, 16), (-0.01, 0.0), VortexConfig.pair(0.5, 2.8), 60),
        (GridSpec(16, 32), (0.0, 6.5), STRONG_PAIR, 200),
    ])
    def test_preconditioned_descent_step_ceiling(self, grid, h, config, ceiling):
        _, iters, residual = minimize_g_descent(config, ExternalField(h), grid)
        assert residual < 1e-8
        assert iters <= ceiling

    def test_oval_strong_field_matches_descent_oracle(self):
        # the field and start pair of the field-oval-strong benchmark, whose
        # solves run on the disk; the step 1 / (lambda_max (1 + |h|)) took
        # 37,336 iterations here, and the Jacobi preconditioner 547
        grid = GridSpec(32, 64)
        field = ExternalField((0.0, 3.0))
        theta_p, report = picard_solve(STRONG_PAIR, field, grid)
        theta_g, iters, residual = minimize_g_descent(STRONG_PAIR, field, grid)
        assert report.converged and residual < 1e-8
        assert iters <= 400
        assert np.max(np.abs(theta_p.values - theta_g.values)) < 1e-8

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


def _branch_values(config, h, grid):
    """V(a; h) and V(a; -h), each from picard_solve and g_functional."""
    values = []
    for field in (h, (-h[0], -h[1])):
        theta, report = picard_solve(config, ExternalField(field), grid)
        assert report.converged
        values.append(g_functional(config, theta, field))
    return values


def _v_ext(config, h, grid):
    """V(a; h) as total_energy reports it on the disk."""
    return total_energy(ConformalDomain.disk(), config, ExternalField(h), grid).v_ext


class TestVExternal:
    def test_zero_field_gives_zero(self):
        assert _v_ext(ANTIPODAL, (0.0, 0.0), GridSpec(16, 32)) == 0.0

    def test_minimizer_beats_zero_candidate(self):
        grid = GridSpec(64, 128)
        h = (0.0, 0.01)
        v = _v_ext(ANTIPODAL, h, grid)
        m = canonical_map_disk(ANTIPODAL, grid.nodes_complex())
        from vortexfield.poisson import integrate_disk
        zero_candidate = -integrate_disk(PolarField(
            grid, h[0] * m.real + h[1] * m.imag, dirichlet=False))
        assert v <= zero_candidate

    def test_label_swap_equals_field_flip(self):
        # swapping the two identical vortices flips the sign of M, which
        # is the same problem as flipping h; the values agree exactly.
        # total_energy sorts the labels, so the unsorted pair is solved here
        grid = GridSpec(32, 64)
        h = (0.013, 0.007)
        values = []
        for config, field in ((VortexConfig.pair(0.0, np.pi), h),
                              (VortexConfig.pair(np.pi, 0.0), (-h[0], -h[1]))):
            theta, report = picard_solve(config, ExternalField(field), grid)
            assert report.converged
            values.append(g_functional(config, theta, field))
        assert values[0] == pytest.approx(values[1], abs=1e-15)

    def test_field_flip_changes_v_at_first_order(self):
        # Numerical verification outcome: the branch values V(a; h) and
        # V(a; -h) are NOT equal for antipodal vortices; they satisfy
        # V(h) + V(-h) = -2 * (quadratic gain) = O(|h|^2), because the
        # linear part -h . int(M) flips sign while the gain does not.
        # total_energy takes the smaller of the two
        grid = GridSpec(64, 128)
        h = (0.013, 0.007)
        v_plus, v_minus = _branch_values(ANTIPODAL, h, grid)
        norm2 = h[0] ** 2 + h[1] ** 2
        assert abs(v_plus - v_minus) > 10 * norm2       # genuinely different
        assert abs(v_plus + v_minus) <= norm2           # but symmetric to O(h^2)

    def test_lipschitz_continuity_in_h(self):
        # |dV/dh| <= int |M| = pi (envelope bound), tested with 10% slack
        grid = GridSpec(32, 64)
        lipschitz = np.pi * 1.1
        hs = [(0.0, 0.01), (0.0, 0.02), (0.01, 0.01), (-0.01, 0.02)]
        values = [_v_ext(ANTIPODAL, h, grid) for h in hs]
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                dh = np.hypot(hs[i][0] - hs[j][0], hs[i][1] - hs[j][1])
                assert abs(values[i] - values[j]) <= lipschitz * dh

    @pytest.mark.parametrize("h", [(-0.01, 0.0), (0.0, 0.01)])
    def test_scaling_toward_zero_field(self, h):
        grid = GridSpec(32, 64)
        base = _v_ext(ANTIPODAL, h, grid)
        for eps in (0.5, 0.25):
            scaled = _v_ext(ANTIPODAL, (eps * h[0], eps * h[1]), grid)
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
        # W(s + phi; R_phi h) = W(s; h) for grid rotations phi = k dt.  A
        # rotation that wraps one angle past 2 pi reverses the sorted
        # label order and so flips M; the minimum over both orientations
        # does not see that
        sep = abs(s[0] - s[1]) % TWO_PI
        assume(min(sep, TWO_PI - sep) > 0.05)
        phi = k * ROTATION_GRID.dt
        rotated = tuple(np.mod(np.add(s, phi), TWO_PI))
        c, d = np.cos(phi), np.sin(phi)
        disk = ConformalDomain.disk()
        w_rot = total_energy(disk, VortexConfig.pair(*rotated),
                             ExternalField((c * h[0] - d * h[1], d * h[0] + c * h[1])),
                             ROTATION_GRID).total
        w = total_energy(disk, VortexConfig.pair(*s), ExternalField(h), ROTATION_GRID).total
        assert w_rot == pytest.approx(w, abs=1e-12)

    def test_value_survives_evaluations_elsewhere(self):
        # work arrays are per grid and fully rewritten by each evaluation
        a, b = GridSpec(16, 32), GridSpec(24, 48)
        oval, field = ConformalDomain.oval(0.2), ExternalField((0.0, 3.0))
        first = total_energy(oval, STRONG_PAIR, field, a)
        total_energy(oval, ANTIPODAL, ExternalField((-0.01, 0.0)), b)
        total_energy(oval, ANTIPODAL, ExternalField((2.0, -7.0)), a)
        again = total_energy(oval, STRONG_PAIR, field, a)
        assert (again.w0, again.v_ext) == (first.w0, first.v_ext)

    @pytest.mark.parametrize("domain,h", [(ConformalDomain.disk(), (-0.01, 0.0)),
                                          (ConformalDomain.oval(0.2), (0.0, 8.0))])
    def test_warm_evaluation_allocates_under_two_grid_arrays(self, domain, h):
        # the map, the Picard loop, the operator and G write into arrays made
        # once per grid; what is left is the returned theta and small
        # buffers, one theta at a time when both orientations are solved
        # (the oval case, past lambda_lo, where no branch is cut; the
        # weak-field disk case prunes the second)
        grid, field = GridSpec(128, 256), ExternalField(h)
        eb = total_energy(domain, STRONG_PAIR, field, grid)
        assert eb.diagnostics["branches_solved"] == (1 if domain.is_disk else 2)
        tracemalloc.start()
        try:
            total_energy(domain, STRONG_PAIR, field, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid.n_r * grid.n_t * 8

    def test_total_is_sum_of_parts(self):
        grid = GridSpec(32, 64)
        eb = total_energy(ConformalDomain.oval(0.2), ANTIPODAL,
                          ExternalField((0.0, 0.01)), grid)
        assert eb.total == eb.w0 + eb.v_ext


ORIENTATION_GRID = GridSpec(16, 32)


def _solve_keys(diagnostics):
    """The winning solve's trajectory as total_energy reports it."""
    return diagnostics["iterations"], diagnostics["residual"], diagnostics["final_change"]


def _torus_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _pair_strategy():
    angle = st.floats(0.0, TWO_PI, exclude_max=True)
    return st.tuples(angle, angle).filter(lambda s: _torus_dist(*s) > 0.05)


def _polar_field(norm, angle):
    return (norm * np.cos(angle), norm * np.sin(angle))


class TestOrientations:
    """W = W_0 + min over sigma of V(a; sigma h), with the loser pruned by a bound."""

    def _check_against_both_branches(self, domain, s, h):
        config = VortexConfig.pair(*s).canonical_order()
        eb = total_energy(domain, config, ExternalField(h), ORIENTATION_GRID)
        v = dict(zip((1, -1), _branch_values(config, h, ORIENTATION_GRID)))
        assert eb.v_ext == min(v.values())
        assert eb.total == eb.w0 + min(v.values())
        diag = eb.diagnostics
        assert v[diag["sigma"]] == eb.v_ext
        moment = coupling_phase(config, ORIENTATION_GRID, h, moment=True)[2]
        favoured = 1 if moment >= 0.0 else -1
        if diag["loser_bound"] is not None:
            # up to rounding, far below the margin the pruning allows for
            rounding = 1e-12 * (abs(moment) + np.pi * np.hypot(*h))
            assert diag["loser_bound"] <= v[-favoured] + rounding
        if diag["branches_solved"] == 1:
            assert diag["sigma"] == favoured
        return diag

    @settings(max_examples=30, deadline=None, database=None)
    @given(s=_pair_strategy(), c=st.one_of(st.none(), st.floats(0.0, 0.45)),
           norm=st.floats(0.0, 5.0, exclude_min=True), angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), c=0.2, norm=3.0, angle=np.pi / 2)        # not pruned: cut
    @example(s=(0.5, 2.5), c=None, norm=0.01, angle=np.pi)          # pruned
    @example(s=(2.0, 5.1), c=0.45, norm=5.0, angle=1.0)
    # |h|^2 underflows: the subnormal sums round by ~1e-10 relative, past the margin
    @example(s=(0.0, 1.0), c=None, norm=2.2250738585e-313, angle=0.0)
    def test_pruned_value_is_the_minimum_of_both_branches(self, s, c, norm, angle):
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        diag = self._check_against_both_branches(domain, s, _polar_field(norm, angle))
        if norm * norm >= np.finfo(float).tiny:
            assert diag["loser_bound"] is not None
        else:
            assert diag["loser_bound"] is None and diag["branches_solved"] == 2

    @settings(max_examples=30, deadline=None, database=None)
    @given(s=_pair_strategy(), c=st.sampled_from([None, 0.2, 0.45]),
           fraction=st.floats(1e-6, 0.95), angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), c=0.2, fraction=0.52, angle=np.pi / 2)
    @example(s=(2.0, 5.1), c=0.45, fraction=0.95, angle=1.0)
    @example(s=(0.5, 2.5), c=None, fraction=0.002, angle=np.pi)
    def test_both_shortcuts_at_zero_read_one_bound(self, s, c, fraction, angle):
        # V >= G(0) - ||grad G(0)||_w^2 / (2 (lambda_lo - |h|)), grad G(0) = -a cos phi:
        # the loser bound takes sum w = pi for ||cos phi||_w^2, so it lies below the
        # bound with the exact norm, which lies below the converged V of -sigma*;
        # and the favoured V lies below G(0) = -|L|
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        grid = ORIENTATION_GRID
        lam = solver_for(grid).lambda_min()
        h = _polar_field(fraction * lam, angle)
        norm = np.hypot(*h)
        config = VortexConfig.pair(*s).canonical_order()
        _, phi, moment = coupling_phase(config, grid, h, moment=True)
        cos_norm2 = grid.cell_weights()[:, 0] @ np.sum(np.cos(phi) ** 2, axis=1)
        exact_norm = abs(moment) - norm * norm * cos_norm2 / (2.0 * (lam - norm))
        favoured = 1 if moment >= 0.0 else -1
        bound = total_energy(domain, config, ExternalField(h), grid).diagnostics["loser_bound"]
        v = dict(zip((1, -1), _branch_values(config, h, grid)))
        rounding = 1e-12 * (1.0 + abs(moment) + np.pi * norm)
        assert bound is not None
        assert bound <= exact_norm + rounding
        assert exact_norm <= v[-favoured] + rounding
        assert v[favoured] <= -abs(moment) + rounding

    def test_both_solved_thetas_are_left_in_the_dict(self):
        # |h| = 8 >= lambda_lo: both branches are solved from theta = 0, whatever
        # the dict held before, and each record holds only its cold solve at
        # its field sigma h, with nothing to predict from
        h, thetas, disk = (0.0, 8.0), {}, ConformalDomain.disk()
        for s in [(0.45, 2.55), (0.55, 2.45), (0.5, 2.6)]:
            total_energy(disk, VortexConfig.pair(*s), ExternalField((0.0, 3.0)),
                         ORIENTATION_GRID, thetas=thetas)
        assert len(thetas[1]) == 3
        for s in [(0.45, 2.55), (0.55, 2.45)]:
            total_energy(disk, VortexConfig.pair(*s), ExternalField(h), ORIENTATION_GRID,
                         thetas=thetas)
            assert set(thetas) == {1, -1}
            assert [p for p, _ in thetas[1]] == [p for p, _ in thetas[-1]] == [s]
        diag = total_energy(disk, STRONG_PAIR, ExternalField(h), ORIENTATION_GRID,
                            thetas=thetas).diagnostics
        assert diag["branches_solved"] == 2 and set(thetas) == {1, -1}
        for sigma, record in thetas.items():
            cold, report = picard_solve(STRONG_PAIR,
                                        ExternalField((sigma * h[0], sigma * h[1])),
                                        ORIENTATION_GRID)
            ((pair, theta),) = record
            assert pair == STRONG_PAIR.angles
            assert np.array_equal(theta.values, cold.values)
            if sigma == diag["sigma"]:
                assert _solve_keys(diag) == (report.iterations, report.residual,
                                             report.changes[-1])

    def test_a_field_past_lambda_min_solves_both_branches(self):
        # |h| = 8 is above the smallest eigenvalue of -lap_h (about 5.78),
        # where the bound does not hold
        for domain in (ConformalDomain.disk(), ConformalDomain.oval(0.2)):
            diag = self._check_against_both_branches(domain, (0.5, 2.5), (0.0, 8.0))
            assert diag["loser_bound"] is None
            assert diag["branches_solved"] == 2

    def test_field_flip_leaves_w_unchanged(self):
        # both orientations of M are admissible, so W is even in h
        oval = ConformalDomain.oval(0.2)
        for h in [(0.0, 3.0), (-0.01, 0.0), (1.0, -2.0)]:
            w = [total_energy(oval, STRONG_PAIR, ExternalField(f), ORIENTATION_GRID).total
                 for f in (h, (-h[0], -h[1]))]
            assert w[0] == pytest.approx(w[1], abs=1e-12)

    @settings(max_examples=15, deadline=None, database=None)
    @given(s=_pair_strategy(), c=st.floats(0.0, 0.45),
           norm=st.floats(0.0, 3.0), angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), c=0.2, norm=3.0, angle=np.pi / 2)
    def test_half_turn_of_the_pair_on_ovals(self, s, c, norm, angle):
        # Phi is odd, so W_0 and |Phi'| are pi-periodic, and M changes
        # sign under a half turn of the pair, which the minimum over the
        # orientations absorbs; n_t is even, so the half turn maps nodes
        # onto nodes
        oval, field = ConformalDomain.oval(c), ExternalField(_polar_field(norm, angle))
        w = total_energy(oval, VortexConfig.pair(*s), field, ORIENTATION_GRID).total
        turned = total_energy(oval, VortexConfig.pair(s[0] + np.pi, s[1] + np.pi), field,
                              ORIENTATION_GRID).total
        assert turned == pytest.approx(w, abs=1e-10)

    @pytest.mark.parametrize("h", [(-0.01, 0.0), (0.0, 1.0), (3.0, 0.0), (2.0, 2.0)])
    def test_disk_minimizer_is_the_antipodal_pair_on_the_field_axis(self, h):
        result = nelder_mead(energy_objective(ConformalDomain.disk(), ExternalField(h),
                                              GridSpec(32, 64)), (0.5, 2.5))
        assert result.converged
        axis = np.arctan2(h[1], h[0])
        for s in result.s_min:
            assert min(_torus_dist(s, axis), _torus_dist(s, axis + np.pi)) < 1e-4
        assert _torus_dist(*result.s_min) == pytest.approx(np.pi, abs=2e-4)


WARM_GRID = GridSpec(32, 64)


class TestBoundedSolve:
    """Below lambda_lo a solve may stop once a certified lower bound clears its threshold."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(s=_pair_strategy(), c=st.sampled_from([None, 0.2, 0.45]),
           fraction=st.floats(0.0, 0.95, exclude_min=True), angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), c=0.2, fraction=0.52, angle=np.pi / 2)
    @example(s=(2.0, 5.1), c=0.45, fraction=0.95, angle=1.0)
    @example(s=(0.5, 2.5), c=None, fraction=0.002, angle=np.pi)
    def test_a_bounded_value_never_exceeds_the_converged_one(self, s, c, fraction, angle):
        # each branch sigma h against V - drop, and W against W - drop: a cut
        # solve's bound lies between its threshold and the converged value,
        # and a solve that is not cut is the converged one bit for bit
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        grid = ORIENTATION_GRID
        h = _polar_field(fraction * solver_for(grid).lambda_min(), angle)
        config = VortexConfig.pair(*s).canonical_order()
        exact = total_energy(domain, config, ExternalField(h), grid).total
        for sigma_h, v in zip((h, (-h[0], -h[1])), _branch_values(config, h, grid)):
            for drop in (1e-1, 1e-3, 1e-6):
                theta, report = picard_solve(config, ExternalField(sigma_h), grid,
                                             above=v - drop)
                g = g_functional(config, theta, sigma_h, a_theta=evaluation_work(grid).x)
                if report.gap is None:
                    assert report.converged and g == v
                else:
                    assert not report.converged
                    assert v - drop <= g - report.gap <= v
        for drop in (1e-1, 1e-3, 1e-6):
            eb = total_energy(domain, config, ExternalField(h), grid, above=exact - drop)
            if eb.bounded:
                assert exact - drop <= eb.total <= exact and eb.theta is None
            else:
                assert eb.total == exact

    def test_a_cut_loser_leaves_w_exact(self, monkeypatch):
        # the oval's losing orientation at h = (0, 3) is not pruned by the
        # bound from L but cut by a check against the solved V: W is bit for
        # bit the minimum of both branches solved to convergence
        from vortexfield import micromag
        reports, real = [], micromag.picard_solve

        def recorded(*args, **kwargs):
            theta, report = real(*args, **kwargs)
            reports.append(report)
            return theta, report
        monkeypatch.setattr(micromag, "picard_solve", recorded)
        h = (0.0, 3.0)
        eb = total_energy(ConformalDomain.oval(0.2), STRONG_PAIR, ExternalField(h), WARM_GRID)
        assert [r.converged for r in reports] == [True, False]
        assert reports[1].gap is not None
        both = _branch_values(STRONG_PAIR.canonical_order(), h, WARM_GRID)
        assert eb.v_ext == min(both) and eb.total == eb.w0 + min(both)
        assert not eb.bounded and eb.diagnostics["branches_solved"] == 1
        assert eb.diagnostics["loser_bound"] < eb.v_ext

    def test_no_threshold_past_lambda_min(self, monkeypatch):
        # |h| = 8 >= lambda_lo: G need not be convex, and no solve checks
        from vortexfield import micromag
        checks = []
        monkeypatch.setattr(micromag, "g_value", lambda *args: checks.append(1))
        eb = total_energy(ConformalDomain.oval(0.2), STRONG_PAIR, ExternalField((0.0, 8.0)),
                          WARM_GRID, above=-1e3)
        assert checks == [] and not eb.bounded and eb.diagnostics["branches_solved"] == 2


class TestWarmStart:
    """Below lambda_lo a search starts each branch solve from a fit to its last solves."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(s=_pair_strategy(), near=st.booleans(),
           offset=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
           far=_pair_strategy(), c=st.one_of(st.none(), st.floats(0.0, 0.45)),
           norm=st.floats(0.0, 5.0, exclude_min=True), angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), near=True, offset=(1e-6, -1e-6), far=(0.5, 2.5), c=0.2,
             norm=3.0, angle=np.pi / 2)
    @example(s=(0.5, 2.5), near=False, offset=(0.0, 0.0), far=(4.0, 1.0), c=None,
             norm=5.0, angle=1.0)
    def test_any_start_reaches_the_cold_solution(self, s, near, offset, far, c, norm,
                                                 angle):
        # G is strongly convex for |h| < lambda_lo, so theta(s) is as good a
        # start at s' as theta = 0
        target = (s[0] + offset[0], s[1] + offset[1]) if near else far
        assume(_torus_dist(*target) > 0.05)
        tol, grid = 1e-9, ORIENTATION_GRID
        field = ExternalField(_polar_field(norm, angle))
        config = VortexConfig.pair(*target)
        previous, _ = picard_solve(VortexConfig.pair(*s), field, grid, tol=tol)
        warm, report = picard_solve(config, field, grid, tol=tol, start=previous)
        cold, _ = picard_solve(config, field, grid, tol=tol)
        assert report.converged
        assert np.max(np.abs(warm.values - cold.values)) <= 10 * tol
        v_warm = g_functional(config, warm, field.h)
        v_cold = g_functional(config, cold, field.h)
        assert v_warm == pytest.approx(v_cold, abs=1e-12 * (1.0 + abs(v_cold)))

    def test_a_start_of_zeros_is_the_cold_solve(self):
        field = ExternalField((0.0, 3.0))
        cold, cold_report = picard_solve(STRONG_PAIR, field, WARM_GRID)
        warm, warm_report = picard_solve(STRONG_PAIR, field, WARM_GRID,
                                         start=PolarField.zeros(WARM_GRID))
        assert np.array_equal(warm.values, cold.values)
        assert warm_report == cold_report

    def test_bad_starts_are_refused_before_any_solve(self, monkeypatch):
        def no_solve(self, f, out=None):
            raise AssertionError("picard_solve solved with a bad start")
        monkeypatch.setattr(DiskPoissonSolver, "solve", no_solve)
        field = ExternalField((0.0, 3.0))
        other_grid = PolarField.zeros(GridSpec(16, 32))
        not_finite = PolarField.zeros(WARM_GRID)
        not_finite.values[3, 5] = np.nan
        for start in (other_grid, not_finite):
            with pytest.raises(ValueError):
                picard_solve(STRONG_PAIR, field, WARM_GRID, start=start)

    def test_search_trace_matches_cold_values_in_fewer_iterations(self, monkeypatch):
        # 20 pairs spiralling into the oval's minimizer, as a search visits them
        oval, field = ConformalDomain.oval(0.2), ExternalField((0.0, 3.0))
        k = np.arange(20)
        radius = 0.3 * 0.7 ** k
        trace = np.stack([5.1286 + radius * np.cos(k), 1.9870 + radius * np.sin(k)], 1)
        from vortexfield import micromag
        iterations, real = [], micromag.picard_solve

        def counted(*args, **kwargs):
            theta, report = real(*args, **kwargs)
            iterations.append(report.iterations)
            return theta, report
        monkeypatch.setattr(micromag, "picard_solve", counted)
        objective = energy_objective(oval, field, WARM_GRID)
        warm = [float(objective(s)) for s in trace]
        warm_iterations = sum(iterations)
        iterations.clear()
        cold = [total_energy(oval, VortexConfig.pair(*s), field, WARM_GRID).total
                for s in trace]
        assert warm == pytest.approx(cold, abs=1e-12)
        assert warm_iterations < sum(iterations)

    @settings(max_examples=25, deadline=None, database=None)
    @given(s=_pair_strategy(),
           offsets=st.lists(st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
                            min_size=4, max_size=4),
           c=st.sampled_from([None, 0.2]), norm=st.floats(0.0, 5.0, exclude_min=True),
           angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), offsets=[(0.05, 0.0), (0.0, 0.05), (-0.05, -0.05), (0.01, 0.02)],
             c=0.2, norm=3.0, angle=np.pi / 2)
    @example(s=(0.02, 3.1), offsets=[(-0.05, 0.0), (0.03, 0.04), (0.0, -0.06), (-0.04, 0.02)],
             c=None, norm=5.0, angle=1.0)       # across the 0 / 2 pi seam
    def test_a_predicted_start_reaches_the_cold_value(self, s, offsets, c, norm, angle):
        # three solves near s fill a branch's history; the fourth solve starts
        # from the affine fit through them and must land on the cold V
        pairs = [(s[0] + d[0], s[1] + d[1]) for d in offsets]
        assume(all(_torus_dist(*p) > 0.05 for p in pairs))
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        field = ExternalField(_polar_field(norm, angle))
        thetas = {}
        for p in pairs[:3]:
            total_energy(domain, VortexConfig.pair(*p), field, ORIENTATION_GRID, thetas=thetas)
        assume(any(len(thetas.get(sigma, ())) == 3 for sigma in (1, -1)))
        target = VortexConfig.pair(*pairs[3])
        warm = total_energy(domain, target, field, ORIENTATION_GRID, thetas=thetas)
        cold = total_energy(domain, target, field, ORIENTATION_GRID)
        assert warm.w0 == cold.w0
        assert warm.v_ext == pytest.approx(cold.v_ext, abs=1e-12 * (1.0 + abs(cold.v_ext)))

    def test_collinear_history_starts_from_the_latest_theta(self):
        # three pairs on a line, as along one axis of a stencil, make the 3 x 3
        # system singular: the solve starts from the latest theta, bit for bit
        # the solve from a record of that one theta
        field, x, eta = ExternalField((0.0, 3.0)), np.array([0.5, 2.5]), 0.05
        disk = ConformalDomain.disk()
        target = VortexConfig.pair(*(x + eta * np.array([0.0, 1.0])))
        results = {}
        for name, offsets in [("line", [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]),
                              ("triangle", [(1.0, 0.0), (-1.0, -1.0), (0.0, 0.0)])]:
            thetas = {}
            for d in offsets:
                total_energy(disk, VortexConfig.pair(*(x + eta * np.array(d))), field,
                             WARM_GRID, thetas=thetas)
            assert len(thetas[1]) == 3
            solved = list(thetas)
            latest = {sigma: thetas[sigma][-1:] for sigma in solved}
            with_history = total_energy(disk, target, field, WARM_GRID, thetas=thetas)
            latest_only = total_energy(disk, target, field, WARM_GRID, thetas=latest)
            results[name] = (_solve_keys(with_history.diagnostics)
                             == _solve_keys(latest_only.diagnostics)
                             and all(np.array_equal(thetas[sigma][-1][1].values,
                                                    latest[sigma][-1][1].values)
                                     for sigma in solved))
        assert results == {"line": True, "triangle": False}

    def test_search_takes_fewer_iterations_per_solve(self, monkeypatch):
        # the 32 x 64 oval search at h = (0, 3), counting the solves run to
        # convergence; a solve cut short by a bound stops early, so it would
        # lower the averages without a better start.  The simplex alone (a
        # plain-float objective, 104 of 111 solves converged, the other 7
        # losing orientations cut): 5.14 Picard iterations per solve from
        # the affine fit, 7.13 from the latest theta alone.  With the
        # gradient finish (46 of 70 solves converged along one path): 328
        # iterations in all from the fit, 363 from the latest theta; the 39
        # before the hand-off take 7.59 per solve and the finish's 7 take
        # 4.57, so the per-solve bound of 7.0 is asserted on the simplex
        # alone, where the saved solves still count
        from vortexfield import micromag, optimize
        real, finish = micromag.picard_solve, optimize._gradient_finish

        def search(plain):
            iterations, handoff = [], []

            def counted(*args, **kwargs):
                theta, report = real(*args, **kwargs)
                if report.converged:
                    iterations.append(report.iterations)
                return theta, report

            def marked(*args, **kwargs):
                handoff.append(len(iterations))
                return finish(*args, **kwargs)
            monkeypatch.setattr(micromag, "picard_solve", counted)
            monkeypatch.setattr(optimize, "_gradient_finish", marked)
            objective = energy_objective(ConformalDomain.oval(0.2), ExternalField((0.0, 3.0)),
                                         WARM_GRID)
            result = nelder_mead((lambda s: float(objective(s))) if plain else objective,
                                 (0.5, 2.5))
            assert result.converged
            return result, iterations, handoff
        _, simplex_fit, none = search(plain=True)
        result, fit, (handoff,) = search(plain=False)
        assert none == [] and result.state.operations["newton"] >= 1
        assert sum(simplex_fit) / len(simplex_fit) < 7.0
        # the finish's solves cost less than the simplex's, and the whole
        # search less than the simplex alone
        assert sum(fit[handoff:]) / len(fit[handoff:]) < sum(fit[:handoff]) / handoff
        assert sum(fit) < sum(simplex_fit)
        monkeypatch.setattr(micromag, "_start",
                            lambda record, s, grid: record[-1][1] if record else None)
        simplex_latest, latest = search(plain=True)[1], search(plain=False)[1]
        assert len(simplex_latest) == len(simplex_fit) and len(latest) == len(fit)
        assert sum(simplex_latest) / len(simplex_latest) > 7.0
        assert sum(fit) < 0.95 * sum(latest)

    def test_a_field_past_lambda_min_always_starts_cold(self):
        # |h| = 8 > lambda_lo: G need not be convex, and every solve starts from 0
        oval, field = ConformalDomain.oval(0.2), ExternalField((0.0, 8.0))
        objective = energy_objective(oval, field, ORIENTATION_GRID)
        pairs = [(0.5, 2.5), (0.52, 2.49), (0.55, 2.45), (3.0, 6.0), (0.5, 2.5)]
        warm = [float(objective(s)) for s in pairs]
        cold = [total_energy(oval, VortexConfig.pair(*s), field, ORIENTATION_GRID).total
                for s in pairs]
        assert warm == cold


#: the gradient test's grid and Picard tolerance
GRADIENT_GRID, GRADIENT_TOL = GridSpec(16, 32), 1e-13
#: the largest error of the gradient against central differences with step
#: 1e-5, relative to max(1, |dW|), measured over 600 random cases: 2.3e-8
GRADIENT_RTOL = 2e-7


def _searched(domain, h, s):
    """The breakdown the search objective returns at s, with its gradient."""
    return energy_objective(domain, ExternalField(h), GRADIENT_GRID, tol=GRADIENT_TOL,
                            max_iter=200)(s)


def _central_difference(domain, h, s, step=1e-5):
    def w(p):
        return total_energy(domain, VortexConfig.pair(*p), ExternalField(h), GRADIENT_GRID,
                            tol=GRADIENT_TOL, max_iter=200).total
    return np.array([(w(np.add(s, e)) - w(np.subtract(s, e))) / (2.0 * step)
                     for e in step * np.eye(2)])


class TestEnergyGradient:
    """The envelope-theorem gradient of W, from each evaluation's own solve."""

    @settings(max_examples=20, deadline=None, database=None)
    @given(s=_pair_strategy(), c=st.sampled_from([None, 0.2, 0.45]),
           norm=st.one_of(st.just(0.0), st.floats(0.01, 3.0)), angle=st.floats(0.0, TWO_PI))
    @example(s=(0.5, 2.5), c=0.2, norm=0.0, angle=0.0)            # h = 0: W_0 alone
    @example(s=(0.5, 2.5), c=None, norm=0.01, angle=np.pi)
    @example(s=(5.1, 1.9), c=0.2, norm=3.0, angle=np.pi / 2)
    @example(s=(2.0, 5.1), c=0.45, norm=3.0, angle=1.0)
    def test_matches_central_differences(self, s, c, norm, angle):
        # h and -h have opposite winning branches; the swapped labels give
        # the swapped gradient, bit for bit
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        h = _polar_field(norm, angle)
        sigmas = set()
        for field in (h, (-h[0], -h[1])):
            solved = _searched(domain, field, s)
            gradient = solved.gradient()
            reference = _central_difference(domain, field, s)
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(gradient - reference)) <= GRADIENT_RTOL * scale
            assert np.array_equal(_searched(domain, field, s[::-1]).gradient(), gradient[::-1])
            sigmas.add(solved.diagnostics.get("sigma"))
        assert sigmas == ({None} if norm == 0.0 else {1, -1})

    def test_a_gradient_call_solves_nothing(self, monkeypatch):
        # no Picard solve and no map: the gradient reads the kept theta
        from vortexfield import canonical, micromag, renorm
        solved = [_searched(domain, (0.0, 3.0), (0.5, 2.5))
                  for domain in (ConformalDomain.disk(), ConformalDomain.oval(0.2))]
        gradients = [b.gradient() for b in solved]
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a gradient call must not solve or build M")
        for module, name in [(micromag, "picard_solve"), (micromag, "coupling_phase"),
                             (renorm, "coupling_phase"), (renorm, "canonical_map_disk"),
                             (micromag, "canonical_map_disk"),
                             (canonical, "canonical_map_disk")]:
            monkeypatch.setattr(module, name, refused)
        assert all(np.array_equal(b.gradient(), g) for b, g in zip(solved, gradients))
        assert calls == []

    def test_failed_and_degenerate_evaluations_carry_no_gradient(self):
        objective = energy_objective(ConformalDomain.disk(), ExternalField((0.0, 1.0)),
                                     GRADIENT_GRID, max_iter=2)
        assert objective((0.5, 2.5)).gradient is None
        assert objective((1.0, 1.0)).gradient is None
        # a plain call's gradient is the objective's at the same pair, to the bit
        plain = total_energy(ConformalDomain.disk(), STRONG_PAIR, ExternalField((0.0, 1.0)),
                             GRADIENT_GRID)
        searched = energy_objective(ConformalDomain.disk(), ExternalField((0.0, 1.0)),
                                    GRADIENT_GRID)(STRONG_PAIR.angles)
        assert np.array_equal(plain.gradient(), searched.gradient())

    @pytest.mark.parametrize("c", [None, 0.2])
    @pytest.mark.parametrize("h", [(0.0, 1.0), (0.0, 0.0)])
    def test_every_exact_breakdown_carries_its_theta_and_gradient(self, c, h):
        # a call given no record dict solves from theta = 0 as a fresh
        # dict's call does and keeps its winning theta; its gradient reads
        # that theta at the angles in the order given. A bounded,
        # degenerate or failed evaluation carries neither
        domain = ConformalDomain.disk() if c is None else ConformalDomain.oval(c)
        field, grid = ExternalField(h), GridSpec(16, 32)
        plain = total_energy(domain, STRONG_PAIR, field, grid)
        fresh = total_energy(domain, STRONG_PAIR, field, grid, thetas={})
        assert plain == fresh
        if field.is_zero:
            assert plain.theta is None and fresh.theta is None
        else:
            assert np.array_equal(plain.theta.values, fresh.theta.values)
        gradient = plain.gradient()
        assert np.array_equal(gradient, energy_gradient(domain, STRONG_PAIR.angles,
                                                        plain.theta, 2048))
        swapped = total_energy(domain, VortexConfig.pair(2.5, 0.5), field, grid)
        assert np.array_equal(swapped.gradient(), gradient[::-1])
        empty = [total_energy(domain, VortexConfig.pair(1.0, 1.0), field, grid)]
        if not field.is_zero:
            bounded = total_energy(domain, STRONG_PAIR, field, grid, above=plain.total - 1.0)
            assert bounded.bounded and bounded.total >= plain.total - 1.0
            failed = energy_objective(domain, field, grid, max_iter=1)(STRONG_PAIR.angles)
            assert "error" in failed.diagnostics
            empty += [bounded, failed]
        assert all(b.theta is None and b.gradient is None for b in empty)


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

    @pytest.mark.parametrize("h, warm", [((0.0, 3.0), True), ((0.0, 8.0), False)])
    def test_samples_a_solved_breakdown_without_a_solve(self, h, warm, monkeypatch):
        # a search's breakdown at the pair carries its winning theta and the
        # solve's diagnostics: sampling it solves nothing and shows the state
        # the cold solve finds; past lambda_lo every search solve is cold
        from vortexfield import micromag
        grid, domain, field = GridSpec(16, 32), ConformalDomain.oval(0.2), ExternalField(h)
        thetas = {}
        for s in [(0.45, 2.55), (0.55, 2.6), (0.5, 2.5)]:
            solved = total_energy(domain, VortexConfig.pair(*s), field, grid, thetas=thetas)
        cold = magnetization_field(domain, STRONG_PAIR, field, grid)
        monkeypatch.setattr(micromag, "picard_solve", None)
        out = magnetization_field(domain, STRONG_PAIR, field, grid, solved=solved)
        assert out.energy.diagnostics.keys() == cold.energy.diagnostics.keys()
        assert out.energy.diagnostics["sigma"] == cold.energy.diagnostics["sigma"]
        assert (out.energy.diagnostics == cold.energy.diagnostics) != warm
        got, expected = ([(p.x, p.y, p.mx, p.my) for p in o.samples] for o in (out, cold))
        assert np.max(np.abs(np.subtract(got, expected))) <= (1e-8 if warm else 0.0)

    @pytest.mark.parametrize("h", [(0.0, 0.0), (0.0, 3.0), (0.0, 8.0)])
    def test_samples_the_breakdown_of_a_cold_total_energy(self, h):
        # without a solved breakdown the field samples the one total_energy
        # gives with a fresh record dict, to the bit
        grid, domain, field = GridSpec(16, 32), ConformalDomain.oval(0.2), ExternalField(h)
        cold = magnetization_field(domain, STRONG_PAIR, field, grid)
        solved = total_energy(domain, STRONG_PAIR, field, grid, thetas={})
        sampled = magnetization_field(domain, STRONG_PAIR, field, grid, solved=solved)
        assert cold.energy.diagnostics == sampled.energy.diagnostics
        assert (cold.samples, cold.skipped) == (sampled.samples, sampled.skipped)
        assert bool(cold.energy.diagnostics) != field.is_zero
        with pytest.raises(ConfigurationError):
            magnetization_field(domain, VortexConfig.pair(1.0, 1.0), field, grid)

    def test_boundary_tangency_for_any_field(self):
        # theta = 0 on the boundary, so m = M on the outermost ring, at
        # r = 1 - 1e-9, and stays tangent away from the vortices at 0 and pi
        out = magnetization_field(ConformalDomain.disk(), ANTIPODAL,
                                  ExternalField((0.03, 0.04)), GridSpec(64, 128),
                                  SampleSpec(n_r=1, n_t=80))
        assert len(out.samples) + out.skipped == 80
        checked = 0
        for s in out.samples:
            t = np.angle(s.x + 1j * s.y) % TWO_PI
            if min(t, TWO_PI - t, abs(t - np.pi)) < 0.3:
                continue
            m = s.mx + 1j * s.my
            assert abs(np.real(m * np.exp(-1j * t))) < 1e-6
            checked += 1
        assert checked == 80 - 2 * 7   # 7 lattice angles lie within 0.3 of each vortex

    def test_oval_positions_pass_through_forward_map(self):
        # no lattice point lies within the guard of the vortices at 0.5 and 2.5
        dom, sample = ConformalDomain.oval(0.2), SampleSpec(n_r=3, n_t=8, jitter=0.5, seed=1)
        out = magnetization_field(dom, STRONG_PAIR, ExternalField((0.0, 0.0)),
                                  GridSpec(16, 32), sample)
        assert out.skipped == 0
        expected = dom.forward(sample.disk_points())
        got = np.array([s.x + 1j * s.y for s in out.samples])
        assert np.max(np.abs(got - expected)) < 1e-14

    @pytest.mark.parametrize("c", [0.0, 0.2])
    def test_label_order_does_not_change_the_state(self, c):
        # total_energy scores both orders as one configuration, so the
        # field must show one state for both
        dom, field = ConformalDomain.oval(c), ExternalField((0.0, 1.0))
        sample = SampleSpec(n_r=6, n_t=12, jitter=0.5, seed=3)
        first, second = (magnetization_field(dom, VortexConfig.pair(*s), field,
                                             GridSpec(16, 32), sample)
                         for s in ((0.5, 2.5), (2.5, 0.5)))
        assert first.samples == second.samples
        assert first.vortex_positions == second.vortex_positions

    def test_jitter_is_reproducible(self):
        spec = SampleSpec(n_r=5, n_t=9, jitter=0.5, seed=42)
        assert np.array_equal(spec.disk_points(), spec.disk_points())

    @pytest.mark.parametrize("seed", range(6))
    def test_jitter_past_the_pole_keeps_points_distinct(self, seed):
        # above a jitter of 2 a first-ring offset can exceed the ring's
        # radius; the point continues through the pole instead of landing on it
        points = SampleSpec(n_r=2, n_t=32, jitter=3.0, seed=seed).disk_points()
        assert len(np.unique(points)) == points.size
        assert np.max(np.abs(points)) < 1.0

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.tuples(st.integers(1, 20), st.integers(1, 64)), fraction=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**64 - 1))
    @example(n=(1, 1), fraction=1.0, seed=0)
    @example(n=(20, 64), fraction=1.0, seed=5)
    def test_jitter_up_to_its_bound_stays_inside_the_disk(self, n, fraction, seed):
        # up to 2 (n_r + 1) a first-ring point passes the pole by at most
        # SAMPLE_R_MAX; just above the bound the jitter is refused
        bound = 2.0 * (n[0] + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = SampleSpec(n_r=n[0], n_t=n[1], jitter=min(fraction * bound, bound),
                                seed=seed).disk_points()
        assert points.size == n[0] * n[1]
        assert np.all(np.isfinite(points)) and np.max(np.abs(points)) < 1.0
        with pytest.raises(ValueError):
            SampleSpec(n_r=n[0], n_t=n[1], jitter=np.nextafter(bound, np.inf), seed=seed)

    @pytest.mark.parametrize("kwargs", [{"n_r": 0}, {"n_t": 0}, {"jitter": -0.1},
                                        {"jitter": np.nan}, {"jitter": np.inf},
                                        {"jitter": 1e308}, {"n_r": 2, "jitter": 6.5},
                                        {"seed": -1}])
    def test_sample_spec_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SampleSpec(**kwargs)
