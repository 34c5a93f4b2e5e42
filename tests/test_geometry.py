import numpy as np
import pytest

from conftest import affine_map
from ellipstab.geometry import TWO_PI, GraphDomain, SectorDomain, polar_angle, radial_shift_map
from ellipstab.meshing import mesh_graph_domain, mesh_sector, refine_uniform
from ellipstab.quadrature import halton, tri6_points

BETA = 1.5 * np.pi


def polar_point(r, theta):
    return np.array([[r * np.cos(theta), r * np.sin(theta)]])


class TestSectorDomain:
    def test_area(self):
        assert SectorDomain(BETA).area() == pytest.approx(0.5 * BETA)
        assert SectorDomain(BETA, 0.1).area() == pytest.approx(0.5 * BETA * 0.99)

    # the ids spell each case as beta-r_inner-r_outer; the outer radius is 1
    @pytest.mark.parametrize("beta,ri", [(0.0, 0), (7.0, 0), (BETA, -0.1), (BETA, 1.0)],
                             ids=["0.0-0-1", "7.0-0-1", "4.71238898038469--0.1-1",
                                  "4.71238898038469-1.0-1.0"])
    def test_invalid(self, beta, ri):
        with pytest.raises(ValueError):
            SectorDomain(beta, ri)

    def test_contains_and_boundary(self):
        dom = SectorDomain(BETA, 0.1)
        assert dom.contains(polar_point(0.5, 1.0))[0]
        assert not dom.contains(polar_point(0.5, BETA + 0.2))[0]
        assert dom.on_boundary(polar_point(1.0, 0.7))[0]
        assert dom.on_boundary(polar_point(0.1, 0.7))[0]
        assert dom.on_boundary(polar_point(0.5, 0.0))[0]
        assert not dom.on_boundary(polar_point(0.5, 0.7))[0]

    def test_sample_interior(self):
        dom = SectorDomain(BETA, 0.05)
        pts = dom.sample_interior(500)
        assert np.all(dom.contains(pts, tol=1e-12))


class TestRadialShiftMap:
    def test_identity_region(self):
        m = radial_shift_map(0.1, BETA)
        p = polar_point(0.5, BETA / 2)
        assert np.allclose(m.forward(p), p, atol=1e-15)

    def test_shift_region_matches_profile(self):
        # s(r) = r/2 + eps on the inner band
        m = radial_shift_map(0.1, BETA)
        p = polar_point(0.1, 0.3)
        out = m.forward(p)
        assert np.hypot(*out[0]) == pytest.approx(0.15, abs=1e-15)
        theta = np.arctan2(out[0, 1], out[0, 0])
        assert theta == pytest.approx(0.3, abs=1e-15)

    def test_e_set_measure_value(self):
        m = radial_shift_map(0.1, BETA)
        assert m.e_set_measure == pytest.approx(0.09424778, abs=1e-7)

    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_e_set_measure_monte_carlo(self, eps):
        # low-discrepancy area sample of {x : |phi(x) - x| > 1e-14}
        m = radial_shift_map(eps, BETA)
        dom = SectorDomain(BETA)
        pts = dom.sample_interior(200_000)
        moved = np.linalg.norm(m.forward(pts) - pts, axis=1) > 1e-14
        estimate = dom.area() * np.mean(moved)
        assert estimate == pytest.approx(m.e_set_measure, rel=0.01)

    def test_round_trip(self):
        m = radial_shift_map(0.07, BETA)
        pts = SectorDomain(BETA).sample_interior(1000)
        back = m.inverse(m.forward(pts))
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        m = radial_shift_map(0.1, BETA)
        pts = SectorDomain(BETA).sample_interior(400)
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[np.abs(r - 0.2) > 1e-3]  # keep away from the kink circle
        J = m.jacobian(pts)
        h = 1e-7
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            col = (m.forward(pts + e) - m.forward(pts - e)) / (2 * h)
            assert np.max(np.abs(col - J[:, :, k])) < 1e-6

    def test_profile_continuous_and_monotone_at_kink(self):
        m = radial_shift_map(0.1, BETA)
        r = np.linspace(1e-4, 0.99, 2001)
        pts = np.stack([r * np.cos(0.5), r * np.sin(0.5)], axis=1)
        s = np.hypot(m.forward(pts)[:, 0], m.forward(pts)[:, 1])
        assert np.all(np.diff(s) > 0)
        below, above = np.nextafter(0.2, 0), np.nextafter(0.2, 1)
        gap = abs(0.5 * below + 0.1 - above)
        assert gap < 1e-15

    def test_determinant_positive_off_kink(self):
        m = radial_shift_map(0.1, BETA)
        pts = SectorDomain(BETA).sample_interior(2000)
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[np.abs(r - 0.2) > 1e-12]
        assert np.all(m.density(pts) > 0.0)

    def test_lip_bounds_dominate_sampled_jacobians(self):
        # bounds are certified on {r >= cert_radius}; the angular stretch
        # blows up below it
        m = radial_shift_map(0.1, BETA)
        pts = SectorDomain(BETA, r_inner=m.cert_radius).sample_interior(2000)
        J = m.jacobian(pts)
        Jinv = np.linalg.inv(J)
        assert np.max(np.linalg.norm(J, ord=2, axis=(1, 2))) <= m.lip_bounds[0] + 1e-12
        assert np.max(np.linalg.norm(Jinv, ord=2, axis=(1, 2))) <= m.lip_bounds[1] + 1e-12
        inside = polar_point(0.01, 0.5)
        assert np.linalg.norm(m.jacobian(inside)[0], 2) > m.lip_bounds[0]

    def test_lip_bounds_independent_of_eps(self):
        assert radial_shift_map(0.01, BETA).lip_bounds == radial_shift_map(0.3, BETA).lip_bounds

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.7, -0.1])
    def test_invalid_eps(self, eps):
        with pytest.raises(ValueError):
            radial_shift_map(eps, BETA)


def flat_domain(height):
    return GraphDomain.from_height(height, n_grid=65)


class TestGraphDomain:
    def test_margin_and_validation(self):
        with pytest.raises(ValueError):
            flat_domain(lambda x: 0.05 * np.ones_like(x))  # below the margin line
        with pytest.raises(ValueError):
            flat_domain(lambda x: 1.2 * np.ones_like(x))  # above the ceiling

    def test_area(self):
        dom = flat_domain(lambda x: 0.8 + 0.1 * x)
        assert dom.area() == pytest.approx(0.85)


class TestAffineMap:
    def test_round_trip_and_jacobian(self):
        m = affine_map([[2.0, 0.3], [0.1, 0.7]], (0.4, -0.1))
        pts = halton(100)
        assert np.max(np.abs(m.inverse(m.forward(pts)) - pts)) < 1e-14
        assert np.allclose(m.jacobian(pts)[0], [[2.0, 0.3], [0.1, 0.7]])

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            affine_map([[1.0, 2.0], [0.5, 1.0]])


def polar_angle_reference(points):
    theta = np.arctan2(points[..., 1], points[..., 0])
    return np.where(theta < 0.0, theta + TWO_PI, theta)


def rule_points(kind):
    """The six-point rule points of a sector, a refined sector or a graph
    mesh, (M * 6, 2); a graph mesh shifted by -0.5 in x and y so its angles
    span every quadrant."""
    if kind == "graph":
        mesh = mesh_graph_domain(GraphDomain.from_height(lambda x: 0.6 + 0.3 * x), 9, 7)
        return tri6_points(mesh.corners()).reshape(-1, 2) - 0.5
    mesh = mesh_sector(SectorDomain(1.5 * np.pi), 12, 16, grading=3.0, aligned_radii=[0.2])
    if kind == "refined":
        mesh = refine_uniform(mesh)
    return tri6_points(mesh.corners()).reshape(-1, 2)


@pytest.mark.parametrize("kind", ["sector", "refined", "graph"])
def test_polar_angle_keeps_the_bits_of_the_where_formula(kind):
    pts = rule_points(kind)
    assert np.array_equal(polar_angle(pts), polar_angle_reference(pts))


@pytest.mark.parametrize("point", [[1.0, -1.0], [-1.0, 0.5], [0.0, 0.0], [2.0, -0.0]])
def test_polar_angle_of_one_point(point):
    theta = polar_angle(point)
    assert np.shape(theta) == ()
    assert np.array_equal(theta, polar_angle_reference(np.array(point)))
    assert 0.0 <= theta < TWO_PI
