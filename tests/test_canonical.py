"""Canonical map tests: hand values, tangency, winding, lifting gradient."""

import numpy as np
import pytest
from oracles import grad_phistar, outward_normal

from vortexfield.canonical import VortexConfig, canonical_map_disk, pushforward_disk
from vortexfield.errors import ConfigurationError, SingularityError
from vortexfield.geom import TWO_PI, ConformalDomain


class TestVortexConfig:
    def test_multiplicities_must_sum_to_two(self):
        # the total degree 2 is carried by exactly two finite degree-one vortices
        for angles in [(), (0.0,), (0.0, 1.0, 2.0), (np.nan, 1.0), (0.0, np.inf)]:
            with pytest.raises(ConfigurationError):
                VortexConfig(angles=angles)
        assert VortexConfig(angles=(0.0, 1.0)) == VortexConfig.pair(0.0, 1.0)

    def test_degeneracy_detection(self):
        assert VortexConfig.pair(1.0, 1.0 + TWO_PI).is_degenerate
        assert not VortexConfig.pair(0.0, np.pi).is_degenerate
        # one threshold, 1e-9 in angle, measured around the circle
        assert VortexConfig.pair(1.0, 1.0 + 5e-10).is_degenerate
        assert not VortexConfig.pair(1.0, 1.0 + 2e-9).is_degenerate
        # across the 0 / 2 pi seam, in both label orders
        assert VortexConfig.pair(0.0, TWO_PI - 5e-10).is_degenerate
        assert VortexConfig.pair(TWO_PI - 5e-10, 0.0).is_degenerate
        assert VortexConfig.pair(-2e-10, 2e-10).is_degenerate
        assert not VortexConfig.pair(-1e-9, 1e-9).is_degenerate
        assert not VortexConfig.pair(0.0, TWO_PI - 2e-9).is_degenerate
        assert VortexConfig.pair(0.0, TWO_PI).is_degenerate
        assert VortexConfig.pair(-1e-300, 0.0).is_degenerate

    def test_angles_wrap_to_period(self):
        cfg = VortexConfig.pair(-0.5, 7.0)
        assert all(0.0 <= s < TWO_PI for s in cfg.angles)

    def test_canonical_order_sorts(self):
        cfg = VortexConfig.pair(3.0, 1.0).canonical_order()
        assert cfg.angles[0] <= cfg.angles[1]

    def test_a_tiny_negative_angle_is_stored_as_zero(self):
        # its single mod rounds up to exactly 2 pi
        assert -1e-20 % TWO_PI == TWO_PI
        cfg = VortexConfig.pair(-1e-20, 1.0)
        assert cfg == VortexConfig.pair(0.0, 1.0)
        assert cfg.canonical_order().angles == (0.0, 1.0)


class TestCanonicalMapDisk:
    def test_hand_value_at_origin(self):
        # (0-1)(0+1)*2 / (1*1*2) = -1
        cfg = VortexConfig.pair(0.0, np.pi)
        assert canonical_map_disk(cfg, 0.0) == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_matches_the_textbook_quotient(self):
        # one complex constant and a real reciprocal instead of
        # a complex division per point: within 4 ulp of |M| = 1
        cfg = VortexConfig.pair(0.5, 2.5)
        R, T = np.meshgrid((np.arange(64) + 0.5) / 64, np.arange(128) * TWO_PI / 128,
                           indexing="ij")
        x = R * np.exp(1j * T)
        a1, a2 = cfg.positions
        quotient = ((x - a1) * (x - a2) * abs(a1 - a2)
                    / (np.abs(x - a1) * np.abs(x - a2) * (a1 - a2)))
        m = canonical_map_disk(cfg, x)
        assert m.shape == x.shape
        assert np.max(np.abs(m - quotient)) <= 4 * np.finfo(float).eps
        out, work = np.empty_like(x), (np.empty_like(x), np.empty(x.shape), np.empty(x.shape))
        assert canonical_map_disk(cfg, x, out=out, work=work) is out
        assert np.array_equal(out, m)
        empty = canonical_map_disk(cfg, np.zeros((0, 3), dtype=complex))
        assert empty.shape == (0, 3) and empty.dtype == complex

    def test_unit_modulus_everywhere(self):
        cfg = VortexConfig.pair(0.7, 4.0)
        rng = np.random.default_rng(21)
        z = np.sqrt(rng.random(500)) * np.exp(1j * rng.uniform(0, TWO_PI, 500))
        m = canonical_map_disk(cfg, z)
        assert np.max(np.abs(np.abs(m) - 1.0)) < 1e-12

    def test_boundary_midpoint_tangency_hand_value(self):
        # M(i) = -1, normal at i is (0, 1): dot product vanishes
        cfg = VortexConfig.pair(0.0, np.pi)
        m = canonical_map_disk(cfg, 1j)
        assert m == pytest.approx(-1.0 + 0.0j, abs=1e-14)
        nu = 1j
        assert abs(np.real(m * np.conj(nu))) < 1e-14

    def test_boundary_tangency_away_from_vortices(self):
        cfg = VortexConfig.pair(1.2, 4.4)
        t = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        keep = np.ones_like(t, dtype=bool)
        for s in cfg.angles:
            d = np.abs(t - s) % TWO_PI
            keep &= np.minimum(d, TWO_PI - d) > 0.05
        z = np.exp(1j * t[keep])
        m = canonical_map_disk(cfg, z)
        assert np.max(np.abs(np.real(m * np.conj(z)))) < 1e-10

    def test_sampled_argument_rate_on_boundary(self):
        # away from the vortices, d/dt arg M(e^{it}) = +1 on the disk
        cfg = VortexConfig.pair(0.9, 3.6)
        delta = 1e-4
        t = np.linspace(0.0, TWO_PI, 181, endpoint=False)
        keep = np.ones_like(t, dtype=bool)
        for s in cfg.angles:
            d = np.abs(t - s) % TWO_PI
            keep &= np.minimum(d, TWO_PI - d) > 0.1
        t = t[keep]
        m_plus = canonical_map_disk(cfg, np.exp(1j * (t + delta)))
        m_minus = canonical_map_disk(cfg, np.exp(1j * (t - delta)))
        rate = np.angle(m_plus / m_minus) / (2 * delta)
        assert np.max(np.abs(rate - 1.0)) < 1e-6

    def test_argument_flips_by_pi_across_each_vortex(self):
        cfg = VortexConfig.pair(1.0, 4.0)
        eps = 1e-6
        for s in cfg.angles:
            before = canonical_map_disk(cfg, np.exp(1j * (s - eps)))
            after = canonical_map_disk(cfg, np.exp(1j * (s + eps)))
            jump = np.angle(after / before)
            assert abs(abs(jump) - np.pi) < 1e-4

    def test_rotation_equivariance(self):
        cfg = VortexConfig.pair(0.4, 2.6)
        beta = 0.8
        rotated = VortexConfig.pair(0.4 + beta, 2.6 + beta)
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.random(100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
        lhs = canonical_map_disk(rotated, z * np.exp(1j * beta))
        rhs = np.exp(1j * beta) * canonical_map_disk(cfg, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_unsupported_configurations(self):
        # coincident angles, also across the 0 / 2 pi seam
        for s1, s2 in [(1.0, 1.0), (0.0, TWO_PI), (1.0, 1.0 + 1e-10)]:
            with pytest.raises(ConfigurationError):
                canonical_map_disk(VortexConfig.pair(s1, s2), 0.0)

    def test_singularity_guard(self):
        cfg = VortexConfig.pair(0.0, np.pi)
        with pytest.raises(SingularityError):
            canonical_map_disk(cfg, 1.0 + 1e-15j)


class TestPushforward:
    def test_disk_pushforward_is_identity(self):
        dom = ConformalDomain.disk()
        cfg = VortexConfig.pair(0.3, 2.2)
        rng = np.random.default_rng(9)
        z = np.sqrt(rng.random(100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
        assert np.array_equal(pushforward_disk(dom, cfg, z),
                              canonical_map_disk(cfg, z))

    def test_unit_modulus(self):
        dom = ConformalDomain.oval(0.2)
        cfg = VortexConfig.pair(0.3, 2.2)
        rng = np.random.default_rng(13)
        z = np.sqrt(rng.random(500)) * np.exp(1j * rng.uniform(0, TWO_PI, 500))
        m = pushforward_disk(dom, cfg, z)
        assert np.max(np.abs(np.abs(m) - 1.0)) < 1e-12

    def test_hand_value_at_center(self):
        # Phi'(0) = 1, so the correction factor is 1 and M*(0) = M(0) = -1
        dom = ConformalDomain.oval(0.2)
        cfg = VortexConfig.pair(0.0, np.pi)
        assert pushforward_disk(dom, cfg, 0.0) == pytest.approx(-1.0 + 0.0j, abs=1e-14)

    def test_oval_boundary_tangency(self):
        dom = ConformalDomain.oval(0.2)
        cfg = VortexConfig.pair(1.2, 4.4)
        t = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        keep = np.ones_like(t, dtype=bool)
        for s in cfg.angles:
            d = np.abs(t - s) % TWO_PI
            keep &= np.minimum(d, TWO_PI - d) > 0.05
        t = t[keep]
        m = pushforward_disk(dom, cfg, np.exp(1j * t))
        nu = outward_normal(dom, t)
        assert np.max(np.abs(np.real(m * np.conj(nu)))) < 1e-8


class TestGradPhistar:
    def test_hand_value_at_origin(self):
        # the two rotated unit vectors cancel: (0,-1) + (0,1) = (0,0)
        cfg = VortexConfig.pair(0.0, np.pi)
        gx, gy = grad_phistar(cfg, np.asarray(0.0 + 0.0j))
        assert abs(gx) < 1e-15 and abs(gy) < 1e-15

    def test_blowup_rate_near_vortex(self):
        cfg = VortexConfig.pair(0.0, np.pi)
        rho = 1e-3
        x = (1.0 - rho) * np.exp(1j * 0.0)
        gx, gy = grad_phistar(cfg, np.asarray(x))
        mag = np.hypot(gx, gy)
        assert 1.0 / rho - 2.0 <= mag <= 1.0 / rho + 2.0

    def test_matches_finite_difference_of_argument_sum(self):
        cfg = VortexConfig.pair(0.9, 3.1)
        rng = np.random.default_rng(17)
        pts = 0.8 * np.sqrt(rng.random(50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        h = 1e-6

        def lifting(x):
            total = np.zeros(x.shape)
            for a in cfg.positions:
                total = total + np.angle(x - a)
            return total

        # centered differences, coordinate by coordinate; safe because the
        # probe points stay far from every branch-cut crossing of np.angle
        gx_fd = (lifting(pts + h) - lifting(pts - h)) / (2 * h)
        gy_fd = (lifting(pts + 1j * h) - lifting(pts - 1j * h)) / (2 * h)
        gx, gy = grad_phistar(cfg, pts)
        scale = np.hypot(gx, gy)
        assert np.max(np.abs(gx_fd - gx) / scale) < 1e-5
        assert np.max(np.abs(gy_fd - gy) / scale) < 1e-5

    def test_curl_free_away_from_vortices(self):
        # circulation around a small interior loop is zero
        cfg = VortexConfig.pair(0.0, np.pi)
        t = np.linspace(0, TWO_PI, 400, endpoint=False)
        loop = 0.3 + 0.2 * np.exp(1j * t)
        gx, gy = grad_phistar(cfg, loop)
        tangent = 1j * (loop - 0.3)
        circulation = np.sum(gx * tangent.real + gy * tangent.imag) * (TWO_PI / 400)
        assert abs(circulation) < 1e-10

    def test_singularity_guard(self):
        cfg = VortexConfig.pair(0.0, np.pi)
        with pytest.raises(SingularityError):
            grad_phistar(cfg, np.asarray(np.exp(1j * np.pi) + 1e-14))
