import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsphere.linalg import SymMatrix
from quadsphere.sphere import SpherePoint, sample_orthant_array

from oracles import (
    GeodesicSegment,
    central_difference,
    geodesic_eval,
    intrinsic_distance,
    spherical_gradient_q,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestSpherePoint:
    def test_normalizes(self):
        p = SpherePoint([3.0, 4.0])
        np.testing.assert_allclose(p.coords, [0.6, 0.8])

    def test_immutable(self):
        p = SpherePoint([1.0, 0.0])
        with pytest.raises(AttributeError):
            p.coords = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            p.coords[0] = 2.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            SpherePoint([0.0, 0.0])

    def test_normalizes_as_linalg_norm(self):
        # x / np.linalg.norm(x) bit for bit, at n = 1-64, with -0.0 entries
        # and at scales 2^-30, 1 and 2^30
        rng = np.random.default_rng(61)
        for m in range(600):
            x = rng.standard_normal(int(rng.integers(1, 65)))
            x = np.where(rng.random(x.size) < 0.3, -0.0, x) * 2.0 ** int(rng.choice([-30, 0, 30]))
            if np.any(x):
                assert SpherePoint(x).coords.tobytes() == (x / np.linalg.norm(x)).tobytes()

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SpherePoint([np.nan, 1.0])


class TestDistance:
    def test_axes(self):
        assert intrinsic_distance([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_coincident(self):
        assert intrinsic_distance([1, 0, 0], [2, 0, 0]) == 0.0

    def test_antipodal(self):
        assert intrinsic_distance([1, 0], [-1, 0]) == pytest.approx(np.pi)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = unit(rng.standard_normal(4))
            y = unit(rng.standard_normal(4))
            d = intrinsic_distance(x, y)
            assert 0.0 <= d <= np.pi
            assert d == pytest.approx(intrinsic_distance(y, x))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (unit(rng.standard_normal(3)) for _ in range(3))
        assert intrinsic_distance(x, z) <= (
            intrinsic_distance(x, y) + intrinsic_distance(y, z) + 1e-12
        )


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = unit(rng.standard_normal(5))
            y = unit(rng.standard_normal(5))
            g = GeodesicSegment.connect(x, y)
            np.testing.assert_allclose(geodesic_eval(g, 0.0).coords, x, atol=1e-12)
            np.testing.assert_allclose(geodesic_eval(g, 1.0).coords, y, atol=1e-10)

    def test_constant_speed(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = unit(rng.standard_normal(4))
            y = unit(rng.standard_normal(4))
            g = GeodesicSegment.connect(x, y)
            for t in (0.25, 0.5, 0.7):
                p = geodesic_eval(g, t)
                assert intrinsic_distance(x, p) == pytest.approx(
                    t * g.length, abs=1e-8
                )

    def test_coincident_is_constant(self):
        g = GeodesicSegment.connect([1, 0, 0], [1, 0, 0])
        assert g.length == 0.0
        np.testing.assert_allclose(geodesic_eval(g, 0.5).coords, [1, 0, 0])

    def test_antipodal_needs_direction(self):
        with pytest.raises(ValueError, match="antipodal"):
            GeodesicSegment.connect([1, 0], [-1, 0])

    def test_antipodal_with_direction(self):
        g = GeodesicSegment.connect([1, 0], [-1, 0], antipodal_direction=[0, 1])
        mid = geodesic_eval(g, 0.5)
        np.testing.assert_allclose(mid.coords, [0, 1], atol=1e-12)
        np.testing.assert_allclose(geodesic_eval(g, 1.0).coords, [-1, 0], atol=1e-12)

    def test_antipodal_direction_must_be_tangent(self):
        with pytest.raises(ValueError, match="tangent"):
            GeodesicSegment.connect([1, 0], [-1, 0], antipodal_direction=[1, 1])

    def test_parameter_domain(self):
        g = GeodesicSegment.connect([1, 0], [0, 1])
        with pytest.raises(ValueError):
            geodesic_eval(g, -0.1)
        with pytest.raises(ValueError):
            geodesic_eval(g, 1.1)

    def test_midpoint_quarter_circle(self):
        g = GeodesicSegment.connect([1, 0], [0, 1])
        np.testing.assert_allclose(
            geodesic_eval(g, 0.5).coords, unit([1, 1]), atol=1e-12
        )


class TestGradient:
    def test_tangency(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw = rng.standard_normal((4, 4))
            A = SymMatrix((raw + raw.T) / 2.0)
            x = unit(rng.standard_normal(4))
            g = spherical_gradient_q(A, x)
            assert abs(float(g @ x)) <= 1e-10

    def test_vanishes_at_eigenvector(self):
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        g = spherical_gradient_q(A, [1, 0, 0])
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-12)

    def test_chain_rule_along_geodesics(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            raw = rng.standard_normal((4, 4))
            A = SymMatrix((raw + raw.T) / 2.0)
            x = unit(np.abs(rng.standard_normal(4)))
            y = unit(np.abs(rng.standard_normal(4)))
            g = GeodesicSegment.connect(x, y)

            def f(t):
                p = geodesic_eval(g, t).coords
                return float(p @ A.a @ p)

            t0 = 0.5
            p0 = geodesic_eval(g, t0).coords
            # geodesic velocity at t0 by central difference of the path itself
            h = 1e-6
            vel = (
                geodesic_eval(g, t0 + h).coords - geodesic_eval(g, t0 - h).coords
            ) / (2.0 * h)
            expected = float(spherical_gradient_q(A, p0) @ vel)
            observed = central_difference(f, t0)
            scale = max(1.0, abs(expected))
            assert abs(observed - expected) <= 1e-5 * scale

    def test_dimension_mismatch(self):
        A = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            spherical_gradient_q(A, [1.0, 0.0])


class TestSampling:
    def test_strictly_positive_unit(self):
        pts = sample_orthant_array(5, 200, np.random.default_rng(0))
        assert pts.shape == (200, 5)
        assert float(pts.min()) > 0.0
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_deterministic(self):
        a = sample_orthant_array(3, 10, np.random.default_rng(7))
        b = sample_orthant_array(3, 10, np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_draw(self):
        a = sample_orthant_array(3, 5, np.random.default_rng(0))
        b = sample_orthant_array(3, 5, np.random.default_rng(1))
        assert not np.array_equal(a, b)

    def test_count_zero(self):
        assert sample_orthant_array(3, 0, np.random.default_rng(0)).shape == (0, 3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_orthant_array(0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_orthant_array(3, -1, np.random.default_rng(0))
