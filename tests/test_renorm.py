"""Renormalized-energy tests: closed forms, the boundary formula, punctured limit."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import boundary_formula_w0, grad_phistar, integrate_disk

from vortexfield import renorm, verify
from vortexfield.canonical import VortexConfig, canonical_map_disk
from vortexfield.geom import TWO_PI, ConformalDomain
from vortexfield.micromag import ExternalField, picard_solve, total_energy
from vortexfield.poisson import GridSpec, PolarField, solver_for
from vortexfield.renorm import (g_functional, punctured_energy, w0_conformal,
                                w0_disk)

PI_LOG_2 = np.pi * np.log(2.0)


def _bits(x):
    """The bytes of a float or float array, so that -0.0 and 0.0 differ."""
    return np.asarray(x).tobytes()


class TestW0Disk:
    def test_antipodal_hand_value(self):
        # separation |a1 - a2| = 2 gives -pi log 2
        assert w0_disk(VortexConfig.pair(0.0, np.pi)) == pytest.approx(-PI_LOG_2, abs=1e-14)

    def test_degenerate_returns_infinity(self):
        assert w0_disk(VortexConfig.pair(0.0, 0.0)) == np.inf

    def test_rotation_invariance(self):
        c, delta = 1.3, 0.7
        assert w0_disk(VortexConfig.pair(c, c + delta)) == pytest.approx(
            w0_disk(VortexConfig.pair(0.0, delta)), abs=1e-14)


def separated_pairs(rng, count, gap=0.05):
    """``count`` random angle pairs whose torus distance is at least ``gap``."""
    pairs = []
    while len(pairs) < count:
        s1, s2 = rng.uniform(0.0, TWO_PI, 2)
        sep = abs(s1 - s2) % TWO_PI
        if min(sep, TWO_PI - sep) >= gap:
            pairs.append((s1, s2))
    return pairs


OVAL_CS = [round(0.05 * k, 2) for k in range(10)] + [0.49]


class TestW0Conformal:
    def test_disk_kind_recovers_closed_form(self):
        disk = ConformalDomain.disk()
        rng = np.random.default_rng(101)
        for _ in range(20):
            s1, s2 = rng.uniform(0.0, TWO_PI, 2)
            sep = min(abs(s1 - s2), TWO_PI - abs(s1 - s2))
            if sep < 0.1:
                s2 = (s1 + 1.0) % TWO_PI
            cfg = VortexConfig.pair(s1, s2)
            assert w0_conformal(disk, cfg, 1024) == pytest.approx(
                w0_disk(cfg), abs=1e-6)

    def test_disk_takes_the_quadrature_path(self, monkeypatch):
        # the verify check compares the conformal closed form with the
        # disk's, so a broken boundary-speed term must make it fail on the disk
        assert verify.check_disk_reduction().passed
        monkeypatch.setattr(renorm, "_log_speeds", lambda domain, s: np.full(2, 1e-3))
        assert not verify.check_disk_reduction().passed

    def test_oval_check_sees_the_log_kernel_sign(self, monkeypatch):
        # on the disk the boundary-speed term is exactly 0 whatever its sign;
        # on the oval a sign flip moves W0 by at least 0.64
        assert verify.check_oval_w0().passed
        real = renorm._log_speeds
        monkeypatch.setattr(renorm, "_log_speeds", lambda domain, s: -real(domain, s))
        assert verify.check_disk_reduction().passed
        assert not verify.check_oval_w0().passed

    def test_node_count_validation(self):
        disk = ConformalDomain.disk()
        cfg = VortexConfig.pair(0.0, np.pi)
        with pytest.raises(ValueError):
            w0_conformal(disk, cfg, 100)
        with pytest.raises(ValueError):
            w0_conformal(disk, cfg, 32)
        with pytest.raises(ValueError):
            w0_conformal(disk, VortexConfig.pair(1.0, 1.0), 100)

    def test_self_convergence_under_node_doubling(self):
        dom = ConformalDomain.oval(0.2)
        cfg = VortexConfig.pair(0.0, np.pi)
        v2 = w0_conformal(dom, cfg, 2048)
        v4 = w0_conformal(dom, cfg, 4096)
        assert abs(v2 - v4) < 1e-6

    def test_self_convergence_off_node_angles(self):
        # vortex angles that never coincide with quadrature nodes
        dom = ConformalDomain.oval(0.2)
        cfg = VortexConfig.pair(0.3, 2.1)
        v2 = w0_conformal(dom, cfg, 2048)
        v8 = w0_conformal(dom, cfg, 8192)
        assert abs(v2 - v8) < 1e-7

    def test_conjugation_symmetry_of_oval(self):
        dom = ConformalDomain.oval(0.2)
        a = w0_conformal(dom, VortexConfig.pair(0.7, 2.9), 2048)
        b = w0_conformal(dom, VortexConfig.pair(TWO_PI - 0.7, TWO_PI - 2.9), 2048)
        assert a == pytest.approx(b, abs=1e-10)

    def test_degenerate_returns_infinity(self):
        dom = ConformalDomain.oval(0.2)
        assert w0_conformal(dom, VortexConfig.pair(1.0, 1.0), 1024) == np.inf

    @pytest.mark.parametrize("nodes", [256, 1024, 2048])
    @pytest.mark.parametrize("c", OVAL_CS)
    def test_equals_the_one_pass_formula_bitwise(self, c, nodes):
        # the closed form sums what the boundary formula integrates: they
        # agree to rounding, not bit for bit, at every node count
        dom = ConformalDomain.oval(c)
        rng = np.random.default_rng(nodes + int(100 * c))
        for s1, s2 in separated_pairs(rng, 30):
            cfg = VortexConfig.pair(s1, s2)
            assert abs(w0_conformal(dom, cfg, nodes)
                       - boundary_formula_w0(dom, cfg, nodes)) <= 1e-13

    @pytest.mark.parametrize("nodes", [64, 2048])
    def test_the_disk_reads_its_closed_form_bitwise(self, nodes):
        disk = ConformalDomain.disk()
        rng = np.random.default_rng(nodes)
        for s1, s2 in rng.uniform(0.0, TWO_PI, size=(200, 2)):
            cfg = VortexConfig.pair(s1, s2)
            assert _bits(w0_conformal(disk, cfg, nodes)) == _bits(w0_disk(cfg))
            slope = 0.5 * np.pi / np.tan(0.5 * (s1 - s2))
            assert _bits(renorm.w0_gradient(disk, (s1, s2))) == _bits(np.array([-slope, slope]))

    def test_the_disk_keeps_a_negative_zero(self):
        # 2 |sin((s1 - s2)/2)| rounds to exactly 1 here, so the closed form
        # is -pi * 0.0 = -0.0, and a zero correction must leave its sign
        disk = ConformalDomain.disk()
        cfg = VortexConfig.pair(0.0, 1.0471975511965979)
        assert math.copysign(1.0, w0_disk(cfg)) == -1.0
        assert math.copysign(1.0, w0_conformal(disk, cfg)) == -1.0
        energy = total_energy(disk, cfg, ExternalField((0.0, 0.0)), GridSpec(16, 32))
        assert math.copysign(1.0, energy.w0) == -1.0

    @pytest.mark.parametrize("c", [0.1, 0.45])
    def test_matches_subtracted_trapezoid_reference(self, c):
        dom = ConformalDomain.oval(c)
        for pair in [(0.0, np.pi), (0.3, 2.1)]:
            cfg = VortexConfig.pair(*pair)
            assert w0_conformal(dom, cfg, 256) == pytest.approx(
                verify.subtracted_trapezoid_w0(dom, cfg), abs=1e-9)

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.45])
    def test_256_nodes_match_2048(self, c):
        # the trapezoid sum of the domain constant has converged at 256 nodes
        dom = ConformalDomain.oval(c)
        for pair in [(0.0, np.pi), (0.3, 2.1), (1.0, 4.5)]:
            cfg = VortexConfig.pair(*pair)
            assert abs(w0_conformal(dom, cfg, 256) - w0_conformal(dom, cfg, 2048)) <= 1e-12

    def test_oval_prefers_high_curvature_tips(self):
        # among antipodal pairs the energy is lowest at the pointed ends
        dom = ConformalDomain.oval(0.2)
        at_tips = w0_conformal(dom, VortexConfig.pair(0.0, np.pi), 2048)
        at_waist = w0_conformal(dom, VortexConfig.pair(np.pi / 2, 3 * np.pi / 2), 2048)
        assert at_tips < at_waist


@dataclass(frozen=True)
class QuadraticDomain(ConformalDomain):
    """Phi(z) = z + b z^2, a normalized conformal map outside the oval family.

    Phi' = 1 + 2 b z has no zero in the closed disk for b < 1/2, and the
    map is not even in z, so it lacks the ovals' symmetries.
    """

    b: float = 0.1

    def forward(self, z):
        z = np.asarray(z, dtype=complex)
        return z + self.b * z * z

    def dforward(self, z):
        return 1.0 + 2.0 * self.b * np.asarray(z, dtype=complex)

    def d2forward(self, z):
        return np.full(np.shape(z), 2.0 * self.b, dtype=complex)


def oval_constant(c):
    """C(c) = pi [4 log((1 + c^2)/(1 - c^2)) - log(1 - c^2)], the ovals' C_Phi summed by hand."""
    return np.pi * (4.0 * np.log((1.0 + c * c) / (1.0 - c * c)) - np.log(1.0 - c * c))


class TestW0ClosedForm:
    """W_0 = -pi log|a_1 - a_2| - (pi/2) sum_j log|Phi'(a_j)| + C_Phi on every normalized map."""

    @pytest.mark.parametrize("c", [0.0, 0.2, 0.45, 0.49])
    def test_gradient_matches_central_differences(self, c):
        dom, step = ConformalDomain.oval(c), 1e-6
        rng = np.random.default_rng(int(1000 * c) + 1)
        for s in separated_pairs(rng, 10, gap=0.3):
            gradient = renorm.w0_gradient(dom, s)
            for j in range(2):
                up, down = list(s), list(s)
                up[j] += step
                down[j] -= step
                slope = (w0_conformal(dom, VortexConfig.pair(*up))
                         - w0_conformal(dom, VortexConfig.pair(*down))) / (2.0 * step)
                assert gradient[j] == pytest.approx(slope, abs=1e-7)

    @pytest.mark.parametrize("c", OVAL_CS)
    def test_the_oval_constant_is_summed_by_hand(self, c):
        # log Phi' = log(1 + c z^2) - 2 log(1 - c z^2) = sum_m beta_{2m} z^{2m}
        m = np.arange(1, 400)
        beta = c ** m * (2.0 + (-1.0) ** (m + 1)) / m
        series = 0.5 * np.pi * float(np.sum(2 * m * beta * beta))
        constant = renorm.w0_constant(ConformalDomain.oval(c), 2048)
        assert constant == pytest.approx(oval_constant(c), abs=2e-14)
        assert series == pytest.approx(oval_constant(c), abs=2e-14)

    @pytest.mark.parametrize("b", [0.1, 0.3])
    def test_a_map_outside_the_oval_family(self, b):
        dom = QuadraticDomain(b=b)
        assert renorm.w0_constant(dom, 2048) == pytest.approx(
            -0.5 * np.pi * np.log(1.0 - 4.0 * b * b), abs=1e-14)
        rng = np.random.default_rng(int(100 * b))
        for s1, s2 in separated_pairs(rng, 40):
            cfg = VortexConfig.pair(s1, s2)
            assert abs(w0_conformal(dom, cfg) - boundary_formula_w0(dom, cfg, 2048)) <= 1e-13


def punctured_reference(config, rho, grid):
    """The punctured quadrature cell by cell: per-cell exp, arrays of cell
    sizes, and |grad phi*|^2 as gx^2 + gy^2 from ``grad_phistar``."""
    a1, a2 = config.positions
    R, T = grid.mesh()
    R, T = R.ravel(), T.ravel()
    DR, DT = np.full(R.shape, grid.dr), np.full(T.shape, grid.dt)
    total = 0.0
    while R.size:
        x = R * np.exp(1j * T)
        d = np.minimum(np.abs(x - a1), np.abs(x - a2))
        diam = np.hypot(DR, R * DT)
        leaf = (d > 4.0 * rho + 0.5 * diam) | (diam < rho / 8.0)
        keep = leaf & (d > rho)
        gx, gy = grad_phistar(config, x[keep])
        total += float(np.sum((gx * gx + gy * gy) * R[keep] * DR[keep] * DT[keep]))
        split = ~leaf
        R, T, DR, DT = R[split], T[split], DR[split], DT[split]
        children = [(R + i * DR, T + j * DT) for i in (-0.25, 0.25) for j in (-0.25, 0.25)]
        R = np.concatenate([c[0] for c in children])
        T = np.concatenate([c[1] for c in children])
        DR, DT = np.tile(0.5 * DR, 4), np.tile(0.5 * DT, 4)
    return total


REFERENCE_CASES = [(pair, rho, grid)
                   for pair in ((0.0, np.pi), (0.5, 2.8), (1.0, 1.3))
                   for rho in (0.1, 0.05, 0.025)
                   for grid in (GridSpec(16, 32), GridSpec(64, 128))
                   if rho < np.sin(0.5 * (pair[1] - pair[0]))]


class TestPuncturedEnergy:
    # Continuum reference values of E(rho) - 2 pi log(1/rho) for the
    # antipodal pair, computed with an exact 1D reduction of the integral
    # (polar coordinates around u = 1 after the substitution u = x^2,
    # Gauss-Legendre in the angle); the limit is -2 pi log 2.
    CONTINUUM_GAP = {0.1: -3.763119656, 0.05: -4.057146420, 0.025: -4.205664307}

    @pytest.mark.parametrize("pair,rho,grid", REFERENCE_CASES)
    def test_matches_cell_by_cell_reference(self, pair, rho, grid):
        cfg = VortexConfig.pair(*pair)
        assert punctured_energy(cfg, rho, grid) == pytest.approx(
            punctured_reference(cfg, rho, grid), rel=1e-13, abs=0.0)

    @given(st.floats(0.0, TWO_PI), st.floats(1e-3, TWO_PI - 1e-3),
           st.floats(0.0, 0.999), st.floats(0.0, TWO_PI))
    def test_closed_form_integrand_matches_gradient(self, s1, gap, radius, angle):
        cfg = VortexConfig.pair(s1, s1 + gap)
        a1, a2 = cfg.positions
        x = np.array([radius * np.exp(1j * angle)])
        d1, d2 = np.abs(x - a1), np.abs(x - a2)
        assume(min(d1[0], d2[0]) > 1e-6)
        gx, gy = grad_phistar(cfg, x)
        # relative to the size of the two terms, which cancel where grad phi* vanishes
        scale = (1.0 / d1 + 1.0 / d2) ** 2
        closed = renorm._grad_phistar_sq(x, a1, a2, d1, d2)
        assert abs(closed - (gx * gx + gy * gy))[0] <= 1e-12 * scale[0]

    def test_rho_precondition(self):
        grid = GridSpec(32, 64)
        cfg = VortexConfig.pair(0.0, np.pi)
        with pytest.raises(ValueError):
            punctured_energy(cfg, 1.5, grid)  # exclusion disks overlap
        with pytest.raises(ValueError):
            punctured_energy(cfg, 0.0, grid)

    # verify's ladder, then a generic pair in both label orders with the
    # radii out of order, so the result must follow the given order
    @pytest.mark.parametrize("pair,grid,rhos", [
        ((0.0, np.pi), GridSpec(128, 256), (0.1, 0.05, 0.025)),
        ((0.5, 2.8), GridSpec(32, 64), [0.05, 0.1, 0.025, 0.05]),
        ((2.8, 0.5), GridSpec(32, 64), [0.05, 0.1, 0.025, 0.05]),
    ])
    def test_a_ladder_equals_its_one_radius_calls_bitwise(self, pair, grid, rhos):
        cfg = VortexConfig.pair(*pair)
        ladder = punctured_energy(cfg, rhos, grid)
        assert _bits(ladder) == _bits([punctured_energy(cfg, rho, grid) for rho in rhos])

    def test_a_float_radius_returns_a_float_and_a_sequence_a_list(self):
        grid = GridSpec(16, 32)
        cfg = VortexConfig.pair(0.0, np.pi)
        one = punctured_energy(cfg, 0.1, grid)
        assert type(one) is float
        assert type(punctured_energy(cfg, np.float64(0.1), grid)) is float
        ladder = punctured_energy(cfg, (0.1,), grid)
        assert type(ladder) is list and [type(v) for v in ladder] == [float]
        assert _bits(ladder[0]) == _bits(one)

    @pytest.mark.parametrize("bad", [0.0, "half"])
    def test_an_invalid_radius_raises_before_any_grid_work(self, bad, monkeypatch):
        grid = GridSpec(16, 32)
        cfg = VortexConfig.pair(0.5, 2.8)
        a1, a2 = cfg.positions
        if bad == "half":
            bad = 0.5 * abs(a1 - a2)

        def grid_work(*args):
            raise AssertionError("a density was computed before every radius was checked")

        monkeypatch.setattr(renorm, "_grad_phistar_sq", grid_work)
        with pytest.raises(ValueError):
            punctured_energy(cfg, (0.1, 0.05, bad, 0.025), grid)

    @pytest.mark.parametrize("rho,tol", [(0.1, 0.04), (0.05, 0.012), (0.025, 0.008)])
    def test_gap_matches_continuum_reference(self, rho, tol):
        grid = GridSpec(128, 256)
        cfg = VortexConfig.pair(0.0, np.pi)
        gap = punctured_energy(cfg, rho, grid) - TWO_PI * np.log(1.0 / rho)
        assert gap == pytest.approx(self.CONTINUUM_GAP[rho], abs=tol)

    def test_dyadic_increment_tracks_divergence_rate(self):
        # E(rho/2) - E(rho) = 2 pi log 2 + O(rho); at rho = 0.05 the
        # continuum value is 4.2011, about 0.154 below the asymptote
        grid = GridSpec(128, 256)
        cfg = VortexConfig.pair(0.0, np.pi)
        d = punctured_energy(cfg, 0.025, grid) - punctured_energy(cfg, 0.05, grid)
        assert d == pytest.approx(4.2011, abs=0.02)
        assert abs(d - TWO_PI * np.log(2.0)) < 0.2

    def test_rotation_invariance(self):
        grid = GridSpec(128, 256)
        a = punctured_energy(VortexConfig.pair(0.0, np.pi), 0.05, grid)
        b = punctured_energy(VortexConfig.pair(np.pi / 2, 3 * np.pi / 2), 0.05, grid)
        assert a == pytest.approx(b, abs=1e-7)

    def test_divergence_slope_fits_2pi(self):
        # d E / d log(1/rho) -> pi N with N = 2
        grid = GridSpec(128, 256)
        cfg = VortexConfig.pair(0.0, np.pi)
        rhos = np.array([0.02, 0.01, 0.005])
        energies = [punctured_energy(cfg, r, grid) for r in rhos]
        slope = np.polyfit(np.log(1.0 / rhos), energies, 1)[0]
        assert abs(slope - TWO_PI) / TWO_PI < 0.03


class TestGFunctional:
    def test_zero_theta_zero_field(self):
        grid = GridSpec(32, 64)
        cfg = VortexConfig.pair(0.0, np.pi)
        assert g_functional(cfg, PolarField.zeros(grid), (0.0, 0.0)) == 0.0

    def test_zero_theta_equals_minus_coupling_integral(self):
        # with theta = 0 only the field term survives, and it must equal
        # the direct quadrature of -h . M exactly (same rule, same nodes)
        grid = GridSpec(32, 64)
        cfg = VortexConfig.pair(0.0, np.pi)
        h = (-0.01, 0.0)
        value = g_functional(cfg, PolarField.zeros(grid), h)
        m = canonical_map_disk(cfg, grid.nodes_complex())
        direct = -integrate_disk(PolarField(
            grid, h[0] * m.real + h[1] * m.imag, dirichlet=False))
        assert value == pytest.approx(direct, abs=1e-12)

    def test_minimizer_beats_zero_candidate(self):
        grid = GridSpec(64, 128)
        cfg = VortexConfig.pair(0.0, np.pi)
        h = (-0.01, 0.0)
        theta, report = picard_solve(cfg, ExternalField(h), grid)
        assert report.converged
        assert g_functional(cfg, theta, h) <= g_functional(
            cfg, PolarField.zeros(grid), h) + 1e-12

    def test_requires_dirichlet_theta(self):
        grid = GridSpec(32, 64)
        cfg = VortexConfig.pair(0.0, np.pi)
        with pytest.raises(ValueError):
            g_functional(cfg, PolarField.zeros(grid, dirichlet=False), (0.0, 0.0))

    def test_paraboloid_kinetic_value(self):
        # at h = 0 only (1/2) int |grad(1 - r^2)|^2 = pi remains
        grid = GridSpec(64, 128)
        u = PolarField.from_function(grid, lambda R, T: 1 - R**2)
        assert g_functional(VortexConfig.pair(0.0, np.pi), u, (0.0, 0.0)) == pytest.approx(
            np.pi, abs=2e-3)

    def test_kinetic_error_falls_eightfold_under_doubling(self):
        # operator form of the Dirichlet energy on 1 - r^2, at h = 0
        errs = []
        for n in (32, 64, 128):
            grid = GridSpec(n, 2 * n)
            u = PolarField.from_function(grid, lambda R, T: 1 - R**2)
            errs.append(abs(g_functional(VortexConfig.pair(0.0, np.pi), u, (0.0, 0.0)) - np.pi))
        for i in range(2):
            assert 7.0 <= errs[i] / errs[i + 1] <= 9.0

    @pytest.mark.parametrize("pair", [(0.5, 2.5), (0.0, np.pi), (1.0, 5.9)])
    @pytest.mark.parametrize("h", [(-0.01, 0.0), (0.0, 3.0)])
    def test_phase_form_matches_the_complex_exp_form(self, pair, h):
        # h . (e^{i theta} M) = |h| sin(theta + phi); the reference reads
        # e^{i theta} M as an R^2 vector dotted with h
        grid = GridSpec(64, 128)
        cfg = VortexConfig.pair(*pair)
        theta, report = picard_solve(cfg, ExternalField(h), grid)
        assert report.converged
        rotated = np.exp(1j * theta.values) * canonical_map_disk(cfg, grid.nodes_complex())
        kinetic = 0.5 * theta.values * solver_for(grid).apply(theta)
        reference = integrate_disk(PolarField(
            grid, kinetic - h[0] * rotated.real - h[1] * rotated.imag, dirichlet=False))
        assert g_functional(cfg, theta, h) == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_picard_fixed_point_is_stationary(self, n):
        # G's kinetic term is built on the operator Picard inverts, so the
        # directional derivative at the fixed point is rounding noise
        grid = GridSpec(n, 2 * n)
        cfg = VortexConfig.pair(0.5, 2.8)
        h = (-0.01, 0.0)
        theta, report = picard_solve(cfg, ExternalField(h), grid, tol=1e-12)
        assert report.converged
        R, T = grid.mesh()
        bump = (1 - R**2) * (1 + R * np.cos(T))
        eps = 1e-4
        g_plus = g_functional(cfg, PolarField(grid, theta.values + eps * bump), h)
        g_minus = g_functional(cfg, PolarField(grid, theta.values - eps * bump), h)
        assert abs(g_plus - g_minus) / (2.0 * eps) <= 1e-9


class TestMinimalityProperty:
    def test_perturbing_the_minimizer_never_lowers_g(self):
        # smooth bumps vanishing on the boundary, scaled by +-0.1, +-0.3
        grid = GridSpec(48, 96)
        cfg = VortexConfig.pair(0.0, np.pi)
        h = (0.0, 0.01)
        theta, report = picard_solve(cfg, ExternalField(h), grid)
        assert report.converged
        base = g_functional(cfg, theta, h)
        R, T = grid.mesh()
        bumps = [
            (1 - R**2),
            (1 - R**2) * R * np.cos(T),
            (1 - R**2) * R * np.sin(T),
        ]
        margins = []
        for bump in bumps:
            for eps in (-0.3, -0.1, 0.1, 0.3):
                perturbed = PolarField(grid, theta.values + eps * bump)
                margins.append(g_functional(cfg, perturbed, h) - base)
        assert len(margins) >= 10
        assert min(margins) >= -1e-10


class TestTraceInequality:
    @staticmethod
    def _ratio(rho, u, grad_sq, n=4000):
        # numerator: arc of the circle around a1 = 1 inside the disk
        alpha = np.linspace(0.0, TWO_PI, n, endpoint=False)
        x = 1.0 + rho * np.exp(1j * alpha)
        inside = np.abs(x) < 1.0
        num = float(np.sum(u(x[inside]) ** 2) * rho * TWO_PI / n)
        # denominator: half annulus rho < |x - 1| < 2 rho inside the disk
        edges = np.linspace(rho, 2 * rho, 401)
        mids = 0.5 * (edges[1:] + edges[:-1])
        total = 0.0
        for s in mids:
            xs = 1.0 + s * np.exp(1j * alpha)
            ins = np.abs(xs) < 1.0
            total += float(np.sum(grad_sq(xs[ins])) * s * TWO_PI / n * (edges[1] - edges[0]))
        return num / (rho * total)

    @pytest.mark.parametrize("rho", [0.2, 0.1, 0.05, 0.025])
    def test_ratio_stays_bounded(self, rho):
        # distance-like test functions vanishing on the outer circle;
        # measured ratios hover near 0.33-0.43 across the ladder
        dist = self._ratio(rho, lambda x: 1 - np.abs(x),
                           lambda x: np.ones(x.shape))
        parab = self._ratio(rho, lambda x: 0.5 * (1 - np.abs(x) ** 2),
                            lambda x: np.abs(x) ** 2)
        assert dist < 1.0
        assert parab < 1.0
