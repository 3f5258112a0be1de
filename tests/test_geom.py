"""Geometry tests: conformal map family, derivatives, boundary curvature."""

import numpy as np
import pytest
from oracles import boundary_curvature, boundary_speed, outward_normal

from vortexfield.errors import DomainError
from vortexfield.geom import TWO_PI, ConformalDomain


class TestForwardMap:
    def test_origin_is_fixed(self):
        dom = ConformalDomain.oval(0.2)
        assert dom.forward(0.0) == 0.0

    def test_hand_value_at_one(self):
        # 1 / (1 - 0.2) = 1.25
        dom = ConformalDomain.oval(0.2)
        assert dom.forward(1.0) == pytest.approx(1.25, abs=1e-15)

    def test_disk_kind_is_identity(self):
        dom = ConformalDomain.disk()
        z = 0.3 + 0.2j
        assert dom.forward(z) == z
        # c = 0 runs the oval formulas, which are exact there
        rng = np.random.default_rng(17)
        z = np.sqrt(rng.random(100_000)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 100_000))
        z = np.append(z, np.exp(1j * np.linspace(0.0, TWO_PI, 64)))
        assert np.array_equal(dom.forward(z), z)
        assert np.array_equal(dom.dforward(z), np.ones_like(z))
        assert np.array_equal(dom.d2forward(z), np.zeros_like(z))

    def test_rejects_points_outside_disk(self):
        dom = ConformalDomain.oval(0.2)
        with pytest.raises(DomainError):
            dom.forward(1.0 + 1e-6)

    def test_reflection_and_oddness(self):
        dom = ConformalDomain.oval(0.2)
        rng = np.random.default_rng(7)
        z = rng.uniform(-0.7, 0.7, 50) + 1j * rng.uniform(-0.7, 0.7, 50)
        assert np.allclose(dom.forward(np.conj(z)), np.conj(dom.forward(z)), atol=1e-15)
        assert np.allclose(dom.forward(-z), -dom.forward(z), atol=1e-15)


class TestDerivativesAndConformality:
    def test_dforward_matches_finite_difference(self):
        dom = ConformalDomain.oval(0.2)
        rng = np.random.default_rng(3)
        z = rng.uniform(-0.6, 0.6, 30) + 1j * rng.uniform(-0.6, 0.6, 30)
        h = 1e-6
        fd = (dom.forward(z + h) - dom.forward(z - h)) / (2 * h)
        assert np.max(np.abs(fd - dom.dforward(z))) < 1e-7

    def test_d2forward_matches_finite_difference(self):
        dom = ConformalDomain.oval(0.2)
        rng = np.random.default_rng(4)
        z = rng.uniform(-0.6, 0.6, 30) + 1j * rng.uniform(-0.6, 0.6, 30)
        h = 1e-5
        fd = (dom.forward(z + h) - 2 * dom.forward(z) + dom.forward(z - h)) / h**2
        assert np.max(np.abs(fd - dom.d2forward(z))) < 1e-5

    def test_derivative_never_vanishes_on_closed_disk(self):
        dom = ConformalDomain.oval(0.2)
        r = np.linspace(0.0, 1.0, 64)
        t = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        R, T = np.meshgrid(r, t, indexing="ij")
        z = R * np.exp(1j * T)
        assert np.min(np.abs(dom.dforward(z))) > 0.5

    def test_coefficient_range_is_enforced(self):
        with pytest.raises(ValueError):
            ConformalDomain.oval(0.5)
        with pytest.raises(ValueError):
            ConformalDomain.oval(-0.1)


class TestBoundaryCurvature:
    def test_disk_curvature_is_one(self):
        dom = ConformalDomain.disk()
        t = np.linspace(0.0, TWO_PI, 17)
        assert np.allclose(boundary_curvature(dom, t), 1.0, atol=1e-14)
        t = np.random.default_rng(19).uniform(-10.0, 10.0, 100_000)
        assert np.array_equal(dom.curvature_speed(t), np.ones_like(t))

    @pytest.mark.parametrize("t0", [0.0, 0.7, np.pi / 2, 2.9])
    def test_matches_finite_difference_of_parametrization(self, t0):
        dom = ConformalDomain.oval(0.2)
        h = 1e-4
        g = dom.boundary_point
        g1 = (g(t0 + h) - g(t0 - h)) / (2 * h)
        g2 = (g(t0 + h) - 2 * g(t0) + g(t0 - h)) / h**2
        kappa_fd = np.imag(np.conj(g1) * g2) / np.abs(g1) ** 3
        kappa = boundary_curvature(dom, np.asarray([t0]))[0]
        assert kappa == pytest.approx(kappa_fd, rel=1e-6)

    def test_total_turning_is_two_pi(self):
        # Gauss-Bonnet for a simple closed curve, both domains
        n = 4096
        t = TWO_PI * np.arange(n) / n
        for dom in (ConformalDomain.disk(), ConformalDomain.oval(0.2)):
            total = np.sum(boundary_curvature(dom, t) * boundary_speed(dom, t)) * TWO_PI / n
            assert total == pytest.approx(TWO_PI, abs=1e-8)

    def test_curvature_speed_agrees_with_product(self):
        dom = ConformalDomain.oval(0.2)
        t = np.linspace(0.0, TWO_PI, 50, endpoint=False)
        prod = boundary_curvature(dom, t) * boundary_speed(dom, t)
        assert np.allclose(dom.curvature_speed(t), prod, atol=1e-12)

    def test_curvature_reflection_symmetry(self):
        dom = ConformalDomain.oval(0.2)
        t = np.linspace(0.1, TWO_PI - 0.1, 40)
        assert np.allclose(boundary_curvature(dom, (-t) % TWO_PI),
                           boundary_curvature(dom, t), atol=1e-12)

    def test_outward_normal_on_disk(self):
        dom = ConformalDomain.disk()
        t = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        assert np.allclose(outward_normal(dom, t), np.exp(1j * t), atol=1e-14)
