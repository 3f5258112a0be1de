"""Nelder-Mead on the torus, landscape scans, and the grid-search oracle."""

import numpy as np
import pytest

from vortexfield.geom import ConformalDomain
from vortexfield.micromag import ExternalField
from vortexfield.optimize import energy_objective, grid_oracle, landscape, nelder_mead
from vortexfield.poisson import GridSpec

TWO_PI = 2.0 * np.pi
PI_LOG_2 = np.pi * np.log(2.0)


def torus_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


class TestNelderMead:
    def test_smooth_quadratic(self):
        result = nelder_mead(lambda s: (s[0] - 1.0) ** 2 + (s[1] - 2.0) ** 2,
                             (0.0, 0.0))
        assert result.converged
        assert abs(result.s_min[0] - 1.0) < 1e-5
        assert abs(result.s_min[1] - 2.0) < 1e-5

    def test_disk_zero_field_finds_antipodal_pair(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((0.0, 0.0)), GridSpec(16, 32))
        result = nelder_mead(objective, (0.5, 2.5))
        sep = abs(result.s_min[0] - result.s_min[1])
        assert abs(min(sep, TWO_PI - sep) - np.pi) < 1e-3
        assert result.value == pytest.approx(-PI_LOG_2, abs=1e-4)

    def test_disk_small_field_aligns_vortices(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((-0.01, 0.0)), GridSpec(32, 64))
        result = nelder_mead(objective, (0.5, 2.5))
        assert torus_dist(result.s_min[0], 0.0) < 0.05
        assert torus_dist(result.s_min[1], np.pi) < 0.05

    def test_best_history_non_increasing(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((0.0, 0.0)), GridSpec(16, 32))
        result = nelder_mead(objective, (1.0, 3.0))
        history = result.state.best_history
        assert all(history[i + 1] <= history[i] for i in range(len(history) - 1))

    def test_budget_exhaustion_flag(self):
        result = nelder_mead(lambda s: (s[0] - 1.0) ** 2 + (s[1] - 2.0) ** 2,
                             (0.0, 0.0), max_evals=5)
        assert not result.converged
        assert result.evaluations >= 5

    @pytest.mark.parametrize("problem", ["quadratic", "disk-weak"])
    def test_budget_is_never_exceeded(self, problem):
        # a step that ends in a shrink needs up to four evaluations; the
        # budget is checked before each one
        if problem == "quadratic":
            def energy(s):
                return (s[0] - 1.0) ** 2 + (s[1] - 2.0) ** 2
        else:
            energy = energy_objective(ConformalDomain.disk(), ExternalField((-0.01, 0.0)),
                                      GridSpec(16, 32))
        for max_evals in range(3, 41):
            calls = []

            def counted(s):
                calls.append(1)
                return energy(s)
            result = nelder_mead(counted, (0.5, 2.5), max_evals=max_evals)
            assert result.evaluations == len(calls)
            assert result.evaluations <= max_evals
            if not result.converged:
                assert result.evaluations == max_evals

    def test_torus_shift_invariance_of_value(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((0.0, 0.0)), GridSpec(16, 32))
        base = nelder_mead(objective, (0.5, 2.5))
        shifted = nelder_mead(objective, (0.5 + 4.0, 2.5 + 4.0))
        assert abs(base.value - shifted.value) < 1e-8
        sep = abs(shifted.s_min[0] - shifted.s_min[1])
        assert abs(min(sep, TWO_PI - sep) - np.pi) < 1e-3

    def test_converges_across_the_angle_seam(self):
        # the minimizing pair is {0, pi}; label order may come out either
        # way since the energy is exchange-symmetric
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((-0.01, 0.0)), GridSpec(32, 64))
        result = nelder_mead(objective, (TWO_PI - 0.4, np.pi - 0.4))
        d_plain = max(torus_dist(result.s_min[0], 0.0),
                      torus_dist(result.s_min[1], np.pi))
        d_swapped = max(torus_dist(result.s_min[0], np.pi),
                        torus_dist(result.s_min[1], 0.0))
        assert min(d_plain, d_swapped) < 0.05

    def test_escapes_infinite_start(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((0.0, 0.0)), GridSpec(16, 32))
        result = nelder_mead(objective, (1.0, 1.05))  # near-degenerate simplex
        assert np.isfinite(result.value)
        assert result.value < 0.0

    def test_all_infinite_start_stops_after_three_evaluations(self):
        # the best vertex is only replaced by a lower value, so an all-+inf
        # start is the only simplex with nothing to rank
        calls = []

        def failing(s):
            calls.append(tuple(s))
            return float("inf")
        result = nelder_mead(failing, (0.5, 2.5), max_evals=500)
        assert len(calls) == 3
        assert result.evaluations == 3
        assert not result.converged
        assert result.value == float("inf")

    def test_operation_counts_are_recorded(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((0.0, 0.0)), GridSpec(16, 32))
        result = nelder_mead(objective, (0.5, 2.5))
        ops = result.state.operations
        assert sum(ops.values()) > 0
        assert set(ops) == {"reflect", "expand", "contract", "shrink"}


class TestLandscape:
    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            landscape(ConformalDomain.disk(), ExternalField((0.0, 0.0)), 8,
                      GridSpec(16, 32))

    def test_diagonal_band_is_infinite(self):
        scan = landscape(ConformalDomain.disk(), ExternalField((0.0, 0.0)), 16,
                         GridSpec(16, 32))
        for i in range(16):
            assert scan.energies[i, i] == np.inf

    @pytest.mark.parametrize("n", [16, 32])
    def test_only_the_diagonal_is_skipped(self, n):
        # cells next to the diagonal have finite energies; a separation
        # test against one cell width rounds some of them into the band
        scan = landscape(ConformalDomain.disk(), ExternalField((0.0, 0.0)), n,
                         GridSpec(16, 32))
        assert np.count_nonzero(np.isinf(scan.energies)) == n
        assert scan.failures == 0

    def test_exchange_symmetry(self):
        scan = landscape(ConformalDomain.disk(), ExternalField((0.01, 0.003)), 16,
                         GridSpec(16, 32))
        finite = np.isfinite(scan.energies)
        assert np.array_equal(finite, finite.T)
        mask = finite & finite.T
        diff = np.abs(scan.energies[mask] - scan.energies.T[mask])
        assert np.max(diff) < 1e-8

    def test_zero_field_minimum_on_antidiagonal(self):
        n = 64
        scan = landscape(ConformalDomain.disk(), ExternalField((0.0, 0.0)), n,
                         GridSpec(16, 32))
        i, j = scan.min_index
        sep = torus_dist(scan.angle(i), scan.angle(j))
        assert abs(sep - np.pi) <= TWO_PI / n + 1e-12


class TestGridOracle:
    def test_zero_field_value_matches_closed_form(self):
        _, value = grid_oracle(ConformalDomain.disk(), ExternalField((0.0, 0.0)),
                               64, GridSpec(16, 32))
        assert value == pytest.approx(-PI_LOG_2, abs=1e-3)

    def test_oracle_dominates_nelder_mead(self):
        domain = ConformalDomain.disk()
        field = ExternalField((0.0, 0.0))
        grid = GridSpec(16, 32)
        _, oracle_value = grid_oracle(domain, field, 64, grid)
        nm = nelder_mead(energy_objective(domain, field, grid), (0.5, 2.5))
        assert oracle_value <= nm.value + 1e-6

    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            grid_oracle(ConformalDomain.disk(), ExternalField((0.0, 0.0)), 16,
                        GridSpec(16, 32))

    def test_oval_minimizer_separation_is_pi(self):
        s_min, _ = grid_oracle(ConformalDomain.oval(0.2),
                               ExternalField((0.0, 0.0)), 48, GridSpec(16, 32))
        sep = torus_dist(s_min[0], s_min[1])
        assert abs(sep - np.pi) <= TWO_PI / 48 / 10 + 1e-12
