"""Geometry tests: conformal map family, derivatives, boundary curvature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import boundary_curvature, boundary_speed, outward_normal

from vortexfield.errors import DomainError
from vortexfield.geom import TWO_PI, ConformalDomain, circle_distance, wrap

# every finite float, with the tiny negative angles whose single mod rounds
# up to 2 pi drawn on purpose
ANGLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(min_value=-1e-15, max_value=0.0))
# angles whose difference stays finite
NEAR_ANGLES = st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                        st.floats(min_value=-1e-15, max_value=0.0))


def torus_distance_before(a, b):
    """The elementwise distance rule ``circle_distance`` replaced, as a reference."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


class TestCircle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(ANGLES)
    @example(-1e-20)
    @example(-0.0)
    @example(TWO_PI)
    def test_wrap_lands_in_the_period_and_is_the_single_mod_below_it(self, s):
        wrapped = wrap(s)
        assert isinstance(wrapped, float)
        assert 0.0 <= wrapped < TWO_PI
        single = s % TWO_PI
        if single < TWO_PI:
            assert wrapped == single and np.signbit(wrapped) == np.signbit(single)
        else:
            assert -4.5e-16 < s < 0.0 and wrapped == 0.0
        # an array wraps element by element to the same bits
        assert np.array_equal(wrap(np.array([s, -s])), [wrap(s), wrap(-s)])

    @settings(max_examples=300, deadline=None, database=None)
    @given(NEAR_ANGLES, NEAR_ANGLES)
    @example(-1e-20, 0.0)
    @example(0.0, TWO_PI)
    @example(0.0, np.pi)
    def test_circle_distance_is_symmetric_bounded_and_the_rule_it_replaced(self, a, b):
        d = circle_distance(a, b)
        assert d == circle_distance(b, a)
        assert 0.0 <= d <= np.pi
        assert d == torus_distance_before(a, b)
        # on wrapped angles the difference is below 2 pi: the rule of
        # VortexConfig.is_degenerate, with no mod
        a, b = wrap(a), wrap(b)
        sep = abs(a - b)
        assert circle_distance(a, b) == min(sep, TWO_PI - sep)


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
