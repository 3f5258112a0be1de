"""Nelder-Mead on the torus, landscape scans, and the grid-search oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexfield.canonical import VortexConfig
from vortexfield.geom import TWO_PI, ConformalDomain
from vortexfield.micromag import ExternalField, energy_gradient, total_energy
from vortexfield.optimize import (SimplexState, _Evaluations, _gradient_finish, energy_objective,
                                  grid_oracle, landscape, nelder_mead)
from vortexfield.poisson import GridSpec
from vortexfield.renorm import EnergyBreakdown, w0_constant, w0_conformal, w0_gradient

PI_LOG_2 = np.pi * np.log(2.0)


def torus_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def quadratic(s):
    return (s[0] - 1.0) ** 2 + (s[1] - 2.0) ** 2


def flat_valley(s):
    # every minimizer, s_2 - s_1 = pi mod 2 pi, has a singular Hessian
    return np.cos(s[0] - s[1])


class WithGradient:
    """An analytic objective's return: its value, and its exact gradient on request."""

    def __init__(self, value, gradient):
        self.value, self._gradient = float(value), gradient

    def __float__(self):
        return self.value

    def gradient(self):
        return self._gradient


def quadratic_with_gradient(s):
    return WithGradient(quadratic(s), (2.0 * (s[0] - 1.0), 2.0 * (s[1] - 2.0)))


def coupled_cosines(s):
    # periodic, with a non-diagonal Hessian; its minimum is 0 at (1, 2)
    u, v, w = s[0] - 1.0, s[1] - 2.0, s[0] + s[1] - 3.0
    value = (1.0 - np.cos(u)) + 2.0 * (1.0 - np.cos(v)) + 0.5 * (1.0 - np.cos(w))
    return WithGradient(value, (np.sin(u) + 0.5 * np.sin(w), 2.0 * np.sin(v) + 0.5 * np.sin(w)))


def flat_valley_with_gradient(s):
    return WithGradient(flat_valley(s), (-np.sin(s[0] - s[1]), np.sin(s[0] - s[1])))


def disk_weak():
    return energy_objective(ConformalDomain.disk(), ExternalField((-0.01, 0.0)),
                            GridSpec(16, 32))


#: a fresh objective per call: the energy objective keeps warm starts
PROBLEMS = {"quadratic": lambda: quadratic_with_gradient, "disk-weak": disk_weak,
            "flat": lambda: flat_valley_with_gradient}


def assert_first_lowest(result, returned):
    """``result`` reports the first lowest of the (pair, return) of the objective."""
    values = [float(v) for _, v in returned]
    first = int(np.argmin(values))  # argmin returns the first of ties
    assert result.value == values[first]
    assert result.s_min == tuple(np.mod(returned[first][0], TWO_PI))
    assert result.best is returned[first][1]


class Returned:
    """An objective's return that is its own object, ranked by its float()."""

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


class TestNelderMead:
    def test_smooth_quadratic(self):
        # a plain float runs the simplex alone; the same quadratic with its
        # gradient hands the end game to the gradient finish, which converges
        plain = nelder_mead(quadratic, (0.0, 0.0))
        assert plain.converged and plain.state.operations["newton"] == 0
        result = nelder_mead(quadratic_with_gradient, (0.0, 0.0))
        assert result.converged
        assert result.state.operations["newton"] >= 1
        assert np.allclose(result.s_min, (1.0, 2.0), rtol=0.0, atol=1e-9)
        assert result.evaluations < plain.evaluations

    @pytest.mark.parametrize("objective", [quadratic_with_gradient, coupled_cosines])
    @pytest.mark.parametrize("s0", [(0.0, 0.0), (2.5, 0.5), (5.0, 4.0)])
    def test_objectives_with_a_gradient_converge_through_the_finish(self, objective, s0):
        result = nelder_mead(objective, s0)
        assert result.converged
        assert result.state.operations["newton"] >= 1
        assert torus_dist(result.s_min[0], 1.0) < 1e-6
        assert torus_dist(result.s_min[1], 2.0) < 1e-6
        assert result.value < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(problem=st.sampled_from(["quadratic", "disk-weak"]),
           s0=st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)))
    def test_reports_the_first_lowest_value_returned(self, problem, s0):
        energy = PROBLEMS[problem]()
        returned = []

        def recorded(s):
            returned.append((tuple(s), energy(s)))
            return returned[-1][1]
        result = nelder_mead(recorded, s0)
        assert_first_lowest(result, returned)
        history = result.state.best_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        assert history[-1] == result.value

    @pytest.mark.parametrize("s0", [(0.5, 2.5), (2.0, 0.1), (4.0, 5.5)])
    def test_singular_hessian_still_converges(self, s0):
        result = nelder_mead(flat_valley, s0)
        assert result.converged
        gap = (result.s_min[1] - result.s_min[0]) % TWO_PI
        assert abs(gap - np.pi) < 1e-5

    @pytest.mark.parametrize("values, kept", [
        ([3.0, 1.0, 1.0, 2.0], 1),                    # a tie keeps the first call
        ([2.0, np.nan, np.inf, 2.0, 5.0], 0),         # neither NaN nor +inf replaces 2
        ([np.inf, np.nan, np.inf], 0),                # all +inf: the first call stands
        ([np.nan, np.inf, -1.0], 2),
    ])
    def test_evaluations_keep_the_return_of_the_first_lowest_call(self, values, kept):
        returned = [Returned(v) for v in values]
        calls = iter(returned)
        f = _Evaluations(lambda s: next(calls))
        seen = [f((0.1 * k, 1.0)) for k in range(len(values))]
        assert seen == [np.inf if np.isnan(v) else v for v in values]
        assert f.best is returned[kept]
        assert tuple(f.point) == (0.1 * kept, 1.0)
        assert f.value == (np.inf if np.isnan(values[kept]) else values[kept])
        assert f.failures == sum(1 for v in values if not np.isfinite(v))

    def test_an_all_infinite_run_keeps_the_first_solver_message(self):
        # while no value is finite the first call stands, though it carries no
        # message; the failure nearest it is the first solver failure: of two
        # at 0.25, as the two other vertices of a degenerate start, the first
        pairs = [(1.0, 1.0), (1.25, 1.0), (1.0, 1.25), (1.0, 1.0)]
        returned = [EnergyBreakdown(np.inf, 0.0),
                    EnergyBreakdown(np.inf, np.inf, {"error": "first"}),
                    EnergyBreakdown(np.inf, np.inf, {"error": "second"}),
                    EnergyBreakdown(np.inf, 0.0)]
        calls = iter(returned)
        f = _Evaluations(lambda s: next(calls))
        for s in pairs:
            f(s)
        assert f.best is returned[0] and tuple(f.point) == (1.0, 1.0)
        assert f.value == np.inf and f.failures == 4
        assert f.nearest_failure() == {"s": [1.25, 1.0], "distance": 0.25, "error": "first"}
        finite = EnergyBreakdown(-1.0, 0.0)
        f.objective = lambda s: finite
        f((3.0, 1.0))
        assert f.best is finite and f.value == -1.0

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from([-1.0, 0.0, 0.5, np.inf, np.nan,
                                           "degenerate", "failed"]), min_size=1, max_size=12))
    def test_the_answer_is_the_first_lowest_value_returned(self, kinds):
        returned = [EnergyBreakdown(np.inf, np.inf, {"error": f"failure {k}"}) if kind == "failed"
                    else EnergyBreakdown(np.inf, 0.0) if kind == "degenerate"
                    else Returned(kind) for k, kind in enumerate(kinds)]
        calls = iter(returned)
        f = _Evaluations(lambda s: next(calls))
        for k in range(len(returned)):
            f((0.1 * k, 1.0))
        values = [np.inf if np.isnan(float(r)) else float(r) for r in returned]
        first = int(np.argmin(values))   # the first of ties, the first call when all are +inf
        assert f.best is returned[first] and f.value == values[first]
        assert tuple(f.point) == (0.1 * first, 1.0)
        assert f.failures == sum(1 for v in values if not np.isfinite(v))
        assert [(tuple(s), error) for s, error in f.failed] == [
            ((0.1 * k, 1.0), f"failure {k}") for k, kind in enumerate(kinds) if kind == "failed"]

    def test_failures_with_a_solver_message_are_kept_and_the_nearest_named(self):
        # a degenerate pair's +inf carries no message and is not kept; the
        # nearest failure to the answer, in the torus max-norm, lies across
        # the seam, and of two failures there the first is named
        pairs = [(1.3, 2.0), (6.2, 2.0), (0.0, 0.0), (6.2, 2.0), (0.1, 2.0)]
        returned = [EnergyBreakdown(np.inf, np.inf, {"error": "far"}),
                    EnergyBreakdown(np.inf, np.inf, {"error": "seam"}),
                    EnergyBreakdown(np.inf, 0.0),
                    EnergyBreakdown(np.inf, np.inf, {"error": "again"}),
                    EnergyBreakdown(-1.0, 0.0)]
        calls = iter(returned)
        f = _Evaluations(lambda s: next(calls))
        assert f.nearest_failure() is None
        for s in pairs:
            f(s)
        assert f.failures == 4
        assert [(tuple(s), error) for s, error in f.failed] == [
            ((1.3, 2.0), "far"), ((6.2, 2.0), "seam"), ((6.2, 2.0), "again")]
        nearest = f.nearest_failure()
        assert nearest["error"] == "seam" and nearest["s"] == [6.2, 2.0]
        assert nearest["distance"] == pytest.approx(0.1 + TWO_PI - 6.2, abs=1e-15)
        assert f.failed[1][0].tolist() == nearest["s"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective, calls_made, lowest", [
        # a saddle: the first model is indefinite; of the stencil's two lowest
        # points, tied, the first stands
        (lambda s: WithGradient((s[1] - 1.0) ** 2 - (s[0] - 1.0) ** 2,
                                (-2.0 * (s[0] - 1.0), 2.0 * (s[1] - 1.0))), 4, (1.1, 1.0)),
        # a stencil value that is not finite
        (lambda s: (WithGradient(np.inf, None) if s[1] > 1.05 else
                    WithGradient(s[0] + (s[1] - 1.0) ** 2, (1.0, 2.0 * (s[1] - 1.0)))),
         4, (0.9, 1.0)),
    ], ids=["indefinite-model", "infinite-stencil-value"])
    def test_gradient_finish_hands_back_its_lowest_point(self, objective, calls_made, lowest):
        calls = []

        def counted(s):
            calls.append(tuple(s))
            return objective(s)
        f = _Evaluations(counted)
        f((1.0, 1.0))   # the finish starts from the lowest point evaluated
        calls.clear()
        state = SimplexState()
        assert not _gradient_finish(f, 0.1, state)
        assert len(calls) == calls_made
        assert state.operations["newton"] == 0
        assert np.allclose(f.point, lowest, rtol=0.0, atol=1e-15)
        assert f.value == min(float(objective(s)) for s in calls)

    def test_gradient_finish_hands_back_after_four_rejected_steps(self):
        # the gradient is off by (1, 0), so the model is right but every step
        # from the minimum at (1, 1) climbs: each rejection quarters the trust
        # radius, which starts at the stencil scale, from the step just tried
        def biased(s):
            return WithGradient((s[0] - 1.0) ** 2 + (s[1] - 1.0) ** 2,
                                (2.0 * (s[0] - 1.0) + 1.0, 2.0 * (s[1] - 1.0)))
        calls = []

        def counted(s):
            calls.append(np.array(s))
            return biased(s)
        f = _Evaluations(counted)
        f((1.0, 1.0))
        state = SimplexState()
        assert not _gradient_finish(f, 0.1, state)
        steps = [float(np.max(np.abs(s - (1.0, 1.0)))) for s in calls[5:]]
        assert len(calls) == 1 + 4 + 4
        assert steps == pytest.approx([0.1, 0.025, 0.00625, 0.0015625], rel=1e-9)
        assert tuple(f.point) == (1.0, 1.0) and f.value == 0.0
        assert state.operations["newton"] == 0

    def test_a_hand_back_resumes_the_simplex_at_the_lowest_point(self):
        # the flat valley's first model is singular, so the simplex ends the search
        returned = []

        def recorded(s):
            returned.append((tuple(s), flat_valley_with_gradient(s)))
            return returned[-1][1]
        result = nelder_mead(recorded, (0.5, 2.5))
        assert result.converged and result.state.operations["newton"] == 0
        assert_first_lowest(result, returned)
        assert abs((result.s_min[1] - result.s_min[0]) % TWO_PI - np.pi) < 1e-5

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

    @pytest.mark.parametrize("problem", ["quadratic", "disk-weak", "flat"])
    def test_budget_is_never_exceeded(self, problem):
        # each objective returns its gradient; the budgets cut each simplex
        # step, the first model's stencil, each finish step and, on the flat
        # valley, the hand-back.  A cut run makes exactly max_evals calls, the
        # first calls of the full run, and counts no step past its budget;
        # a run that converges is the full run
        energy = PROBLEMS[problem]()
        full_calls = []

        def recorded_full(s):
            full_calls.append(tuple(s))
            return energy(s)
        full = nelder_mead(recorded_full, (0.5, 2.5))
        top = full.evaluations
        assert full.converged and top < (130 if problem == "flat" else 45)
        if problem != "flat":
            assert full.state.operations["newton"] >= 2
        # the full run's last step is the short one, which it never evaluates
        kept = max(full.state.operations["newton"] - 1, 0)
        cut_steps = set()
        for max_evals in range(3, top + 1):
            energy, returned = PROBLEMS[problem](), []

            def recorded(s):
                returned.append((tuple(s), energy(s)))
                return returned[-1][1]
            result = nelder_mead(recorded, (0.5, 2.5), max_evals=max_evals)
            assert result.evaluations == len(returned) <= max_evals
            assert [s for s, _ in returned] == full_calls[:len(returned)]
            assert_first_lowest(result, returned)
            if result.converged:
                assert result.evaluations == top
                assert result.state.operations == full.state.operations
            else:
                assert result.evaluations == max_evals
                cut_steps.add(result.state.operations["newton"])
        assert cut_steps == set(range(max(kept, 1)))

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

    def test_nan_everywhere_ranks_as_inf(self):
        calls = []

        def undefined(s):
            calls.append(tuple(s))
            return float("nan")
        result = nelder_mead(undefined, (0.5, 2.5))
        assert len(calls) == result.evaluations == 3
        assert result.value == np.inf and not result.converged
        assert result.state.best_history == [np.inf]

    @pytest.mark.parametrize("s0", [(0.5, 2.5), (0.55, 1.9), (3.0, 0.5)])
    def test_never_reports_nan(self, s0):
        # the quadratic, undefined on the band s_1 < 0.6: each search
        # evaluates one or two pairs there, the first two at the start
        def partial(s):
            return float("nan") if s[0] < 0.6 else quadratic(s)
        result = nelder_mead(partial, s0)
        assert not np.isnan(result.value)
        assert not np.any(np.isnan(result.state.best_history))
        assert result.converged
        assert np.allclose(result.s_min, (1.0, 2.0), atol=1e-5)

    def test_operation_counts_are_recorded(self):
        objective = energy_objective(ConformalDomain.disk(),
                                     ExternalField((0.0, 0.0)), GridSpec(16, 32))
        result = nelder_mead(objective, (0.5, 2.5))
        ops = result.state.operations
        assert sum(ops.values()) > 0
        assert set(ops) == {"reflect", "expand", "contract", "shrink", "newton"}


class TestEnergyObjective:
    def test_builds_one_w0_boundary_per_oval_search(self, monkeypatch):
        # one W_0 constant per (domain, nodes) in the process: a search,
        # direct energies and w0_conformal all read it, the disk's too; the
        # gradients read none, and at h = 0 a gradient is W_0's alone
        calls, real = [], ConformalDomain.curvature_speed

        def counted(self, t):
            calls.append(self)
            return real(self, t)
        w0_constant.cache_clear()
        monkeypatch.setattr(ConformalDomain, "curvature_speed", counted)
        oval, other = ConformalDomain.oval(0.2), ConformalDomain.oval(0.3)
        disk, grid, zero = ConformalDomain.disk(), GridSpec(16, 32), ExternalField((0.0, 0.0))
        configs = [VortexConfig.pair(*s) for s in [(0.5, 2.5), (2.4, 0.6), (1.0, 4.0)]]
        objective = energy_objective(oval, zero, grid, w0_nodes=256)
        found = []   # (domain, nodes, config, W_0, W_0's gradient or None)
        for config in configs:
            searched = objective(config.angles)
            found += [
                (oval, 256, config, searched.w0, searched.gradient()),
                (oval, 256, config, total_energy(oval, config, zero, grid, w0_nodes=256).w0,
                 energy_gradient(oval, config.angles, None)),
                (oval, 256, config, w0_conformal(oval, config, 256), None),
                (oval, 512, config, total_energy(oval, config, zero, grid, w0_nodes=512).w0,
                 energy_gradient(oval, config.angles, None)),
                (other, 256, config, total_energy(other, config, zero, grid, w0_nodes=256).w0,
                 None)]
        energy_objective(disk, zero, grid)(configs[0].angles).gradient()
        total_energy(disk, configs[0], zero, grid)
        assert calls == [oval, oval, other, disk]
        monkeypatch.undo()
        w0_constant.cache_clear()   # each value again from a fresh constant
        for domain, nodes, config, w0, gradient in found:
            assert w0 == w0_conformal(domain, config.canonical_order(), nodes)
            if gradient is not None:
                assert np.array_equal(gradient, w0_gradient(domain, config.angles))

    def test_the_search_answer_is_its_own_evaluation(self, monkeypatch):
        # best is the breakdown returned at s_min, with the theta solved there
        from vortexfield import micromag
        solves, real = [], micromag.picard_solve

        def recorded(config, *args, **kwargs):
            theta, report = real(config, *args, **kwargs)
            solves.append((config.angles, theta))
            return theta, report
        monkeypatch.setattr(micromag, "picard_solve", recorded)
        grid = GridSpec(16, 32)
        result = nelder_mead(energy_objective(ConformalDomain.oval(0.2),
                                              ExternalField((0.0, 3.0)), grid), (0.5, 2.5))
        best = result.best
        assert float(best) == best.total == result.value
        pair = VortexConfig.pair(*result.s_min).canonical_order().angles
        assert [angles for angles, theta in solves if theta is best.theta] == [pair]

    @pytest.mark.parametrize("domain,h,grid", [
        (ConformalDomain.oval(0.2), (0.0, 3.0), GridSpec(32, 64)),
        (ConformalDomain.disk(), (-0.01, 0.0), GridSpec(16, 32))])
    def test_bounded_evaluations_leave_the_search_unchanged(self, domain, h, grid):
        # a bounded evaluation lies above the value its step compares it
        # with, so every step goes as with exact values; a plain wrapper
        # hides the threshold, and the records of the warm starts differ
        # only by the solves that were cut
        results = []
        for hidden in (True, False):
            objective = energy_objective(domain, ExternalField(h), grid)
            search = (lambda s: objective(s)) if hidden else objective
            results.append(nelder_mead(search, (0.5, 2.5)))
        plain, bounded = results
        assert plain.bounded == 0 < bounded.bounded
        assert bounded.state.operations == plain.state.operations
        assert bounded.evaluations == plain.evaluations
        assert max(map(torus_dist, bounded.s_min, plain.s_min)) < 1e-10
        assert bounded.value == pytest.approx(plain.value, rel=0.0, abs=1e-12)
        assert bounded.converged and not bounded.best.bounded

    def test_no_evaluation_is_bounded_past_lambda_min(self):
        result = nelder_mead(energy_objective(ConformalDomain.oval(0.2),
                                              ExternalField((0.0, 8.0)), GridSpec(16, 32)),
                             (0.5, 2.5))
        assert result.evaluations > 3 and result.bounded == 0

    def test_only_an_objective_that_takes_a_threshold_receives_one(self):
        seen = []

        def takes(s, above=None):
            seen.append(above)
            return quadratic(s)
        takes.takes_above = True
        for objective in (takes, lambda s: takes(s)):
            f = _Evaluations(objective)
            f((0.0, 0.0), above=1.5)
            f((0.0, 0.0))
        assert seen == [1.5, None, None, None]

    def test_a_failed_solve_returns_its_message(self):
        objective = energy_objective(ConformalDomain.disk(), ExternalField((0.0, 1.0)),
                                     GridSpec(16, 32), max_iter=2)
        failed = objective((0.5, 2.5))
        assert float(failed) == np.inf and failed.theta is None
        assert failed.diagnostics["error"].startswith(
            "Picard iteration did not converge in 2 steps")


def disk_scan(h, n):
    return landscape(energy_objective(ConformalDomain.disk(), ExternalField(h),
                                      GridSpec(16, 32)), n)


class TestLandscape:
    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            disk_scan((0.0, 0.0), 8)

    def test_diagonal_band_is_infinite(self):
        scan = disk_scan((0.0, 0.0), 16)
        for i in range(16):
            assert scan.energies[i, i] == np.inf

    @pytest.mark.parametrize("n", [16, 32])
    def test_only_the_diagonal_is_skipped(self, n):
        # cells next to the diagonal have finite energies; a separation
        # test against one cell width rounds some of them into the band
        scan = disk_scan((0.0, 0.0), n)
        assert np.count_nonzero(np.isinf(scan.energies)) == n
        assert scan.failures == 0

    def test_exchange_symmetry(self):
        scan = disk_scan((0.01, 0.003), 16)
        finite = np.isfinite(scan.energies)
        assert np.array_equal(finite, finite.T)
        mask = finite & finite.T
        diff = np.abs(scan.energies[mask] - scan.energies.T[mask])
        assert np.max(diff) < 1e-8

    def test_zero_field_minimum_on_antidiagonal(self):
        n = 64
        scan = disk_scan((0.0, 0.0), n)
        i, j = scan.min_index
        sep = torus_dist(scan.angle(i), scan.angle(j))
        assert abs(sep - np.pi) <= TWO_PI / n + 1e-12

    def test_scans_a_plain_objective(self):
        # each off-diagonal cell once, row-major; the diagonal with no call;
        # one +inf cell is a failure; cos(s_1 - s_2) = -1 on s_2 - s_1 = pi
        # ties, and the first of those cells wins
        n, calls = 16, []
        failing = (TWO_PI * 3 / n, TWO_PI * 5 / n)

        def objective(s):
            calls.append(tuple(s))
            return np.inf if tuple(s) == failing else np.cos(s[0] - s[1])
        scan = landscape(objective, n)
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        assert calls == [(TWO_PI * i / n, TWO_PI * j / n) for i, j in cells]
        assert all(scan.energies[i, i] == np.inf for i in range(n))
        assert all(scan.energies[i, j] == np.cos(s[0] - s[1])
                   for (i, j), s in zip(cells, calls) if s != failing)
        assert scan.failures == 1 and scan.energies[3, 5] == np.inf
        assert np.count_nonzero(scan.energies == -1.0) > 1
        assert scan.min_index == (0, n // 2) and scan.min_value == -1.0

    def test_a_scan_with_no_finite_value_keeps_its_first_cell(self):
        n, returned = 16, []

        def objective(s):
            returned.append(Returned(np.inf))
            return returned[-1]
        scan = landscape(objective, n)
        assert scan.failures == n * (n - 1)
        assert scan.min_index == (0, 1) and scan.min_value == np.inf
        assert scan.best is returned[0]

    def test_a_nan_cell_ranks_as_inf(self):
        # np.argmin would return the first NaN as the minimum
        n = 16
        undefined = (TWO_PI * 3 / n, TWO_PI * 5 / n)

        def objective(s):
            return np.nan if tuple(s) == undefined else np.cos(s[0] - s[1])
        scan = landscape(objective, n)
        assert scan.min_index == (0, n // 2) and scan.min_value == -1.0
        assert scan.failures == 1 and scan.energies[3, 5] == np.inf


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

    def test_builds_one_objective(self, monkeypatch):
        # the scan and the refinement share one objective, and W_0's domain
        # constant is built once per (domain, nodes)
        calls, real = [], ConformalDomain.curvature_speed

        def counted(self, t):
            calls.append(self)
            return real(self, t)
        w0_constant.cache_clear()
        monkeypatch.setattr(ConformalDomain, "curvature_speed", counted)
        s_min, value = grid_oracle(ConformalDomain.oval(0.2), ExternalField((0.0, 3.0)), 32,
                                   GridSpec(16, 32))
        assert len(calls) == 1
        assert s_min == pytest.approx((1.1780972450961724, 4.319689898685965), abs=1e-12)
        assert value == pytest.approx(-7.814100431853986, abs=1e-12)

    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            grid_oracle(ConformalDomain.disk(), ExternalField((0.0, 0.0)), 16,
                        GridSpec(16, 32))

    def test_oval_minimizer_separation_is_pi(self):
        s_min, _ = grid_oracle(ConformalDomain.oval(0.2),
                               ExternalField((0.0, 0.0)), 48, GridSpec(16, 32))
        sep = torus_dist(s_min[0], s_min[1])
        assert abs(sep - np.pi) <= TWO_PI / 48 / 10 + 1e-12
