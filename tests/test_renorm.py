"""Renormalized-energy tests: closed form, boundary quadrature, punctured limit."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import grad_phistar

from vortexfield import renorm, verify
from vortexfield.canonical import VortexConfig, canonical_map_disk
from vortexfield.geom import ConformalDomain
from vortexfield.micromag import ExternalField, picard_solve
from vortexfield.poisson import GridSpec, PolarField, integrate_disk, solver_for
from vortexfield.renorm import (g_functional, punctured_energy, w0_conformal,
                                w0_disk)

TWO_PI = 2.0 * np.pi
PI_LOG_2 = np.pi * np.log(2.0)


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
        # the verify check compares the boundary quadrature with the closed
        # form, so a broken log-kernel term must make it fail on the disk
        assert verify.check_disk_reduction().passed
        monkeypatch.setattr(renorm, "_log_kernel_integrals", lambda f, s: 1e-3)
        assert not verify.check_disk_reduction().passed

    def test_oval_check_sees_the_log_kernel_sign(self, monkeypatch):
        # on the disk the log-kernel term is exactly 0 whatever its sign;
        # on the oval a sign flip moves W0 by at least 0.64
        assert verify.check_oval_w0().passed
        real = renorm._log_kernel_integrals
        monkeypatch.setattr(renorm, "_log_kernel_integrals", lambda f, s: -real(f, s))
        assert verify.check_disk_reduction().passed
        assert not verify.check_oval_w0().passed

    def test_node_count_validation(self):
        disk = ConformalDomain.disk()
        cfg = VortexConfig.pair(0.0, np.pi)
        with pytest.raises(ValueError):
            w0_conformal(disk, cfg, 100)
        with pytest.raises(ValueError):
            w0_conformal(disk, cfg, 32)

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

    @staticmethod
    def _one_pass_w0(dom, cfg, nodes):
        # the boundary formula with every boundary quantity formed per call
        base = w0_disk(cfg)
        if not np.isfinite(base):
            return base
        t = TWO_PI * np.arange(nodes) / nodes
        dt = TWO_PI / nodes
        f = dom.curvature_speed(t)
        correction = float(np.sum(f * np.log(np.abs(dom.dforward(np.exp(1j * t))))) * dt)
        k = np.arange(1, nodes // 2 + 1)
        fhat = np.fft.rfft(f)[1:] / nodes
        fhat[-1] *= 0.5
        phases = np.exp(1j * np.outer(np.asarray(cfg.angles, dtype=float), k))
        correction += float(np.sum(-TWO_PI * np.real(phases @ (fhat / k))))
        return base + 0.5 * correction

    @pytest.mark.parametrize("nodes", [256, 1024, 2048])
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.2, 0.45])
    def test_equals_the_one_pass_formula_bitwise(self, c, nodes):
        dom = ConformalDomain.oval(c)
        rng = np.random.default_rng(nodes + int(100 * c))
        for s1, s2 in rng.uniform(0.0, TWO_PI, size=(30, 2)):
            cfg = VortexConfig.pair(s1, s2)
            assert w0_conformal(dom, cfg, nodes) == self._one_pass_w0(dom, cfg, nodes)

    @pytest.mark.parametrize("c", [0.0, 0.2])
    def test_one_boundary_serves_many_pairs(self, c):
        dom = ConformalDomain.oval(c)
        boundary = renorm.W0Boundary(dom, 1024)
        rng = np.random.default_rng(7)
        for s1, s2 in rng.uniform(0.0, TWO_PI, size=(20, 2)):
            cfg = VortexConfig.pair(s1, s2)
            assert boundary.w0(cfg) == w0_conformal(dom, cfg, 1024)
        assert boundary.w0(VortexConfig.pair(1.0, 1.0)) == np.inf
        with pytest.raises(ValueError):
            renorm.W0Boundary(dom, 100)

    @pytest.mark.parametrize("c", [0.1, 0.45])
    def test_matches_subtracted_trapezoid_reference(self, c):
        dom = ConformalDomain.oval(c)
        for pair in [(0.0, np.pi), (0.3, 2.1)]:
            cfg = VortexConfig.pair(*pair)
            assert w0_conformal(dom, cfg, 256) == pytest.approx(
                verify.subtracted_trapezoid_w0(dom, cfg), abs=1e-9)

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.45])
    def test_256_nodes_match_2048(self, c):
        # the log kernels are integrated exactly against the density's
        # trigonometric interpolant, which has converged at 256 nodes
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
