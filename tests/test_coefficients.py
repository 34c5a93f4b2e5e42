import numpy as np
import pytest

from conftest import affine_map, identity_failing_at, smooth_bump_gradient
from ellipstab.coefficients import (
    CoefficientField,
    EllipticityBounds,
    FieldEvaluationError,
    constant_field,
    identity_field,
    lp_distance,
    matrix_positive_part,
    pullback_energy_gap,
    pullback_field,
    radial_jump_field,
    sym_eigvals,
)
from ellipstab.geometry import SectorDomain, radial_shift_map
from ellipstab.quadrature import BLOCK_POINTS

BETA = 1.5 * np.pi


def polar_point(r, theta):
    return np.array([[r * np.cos(theta), r * np.sin(theta)]])


def hypot_rule(alpha, eps, pts):
    """``radial_jump_field(alpha, eps)`` as the branch np.hypot(x, y) < eps picks."""
    scal = np.where(np.hypot(pts[..., 0], pts[..., 1]) < eps, alpha, 1.0)
    return scal[..., None, None] * np.eye(2)


class TestRadialJumpField:
    def test_branch_values(self):
        f = radial_jump_field(2.0, 0.1)
        assert np.allclose(f.eval(polar_point(0.05, 0.3))[0], 2.0 * np.eye(2))
        assert np.allclose(f.eval(polar_point(0.5, 0.3))[0], np.eye(2))
        # on the interface circle the outer branch is evaluated
        assert np.allclose(f.eval(polar_point(0.1, 0.3))[0], np.eye(2))

    def test_ellipticity_certificate(self):
        f = radial_jump_field(0.25, 0.3)
        assert f.ellipticity.lower == 0.25
        assert f.ellipticity.upper == 1.0
        pts = SectorDomain(BETA).sample_interior(3000)
        lam = sym_eigvals(f.eval(pts))
        assert np.all(lam[:, 0] >= f.ellipticity.lower - 1e-14)
        assert np.all(lam[:, 1] <= f.ellipticity.upper + 1e-14)

    def test_alpha_one_is_identity(self):
        f = radial_jump_field(1.0, 0.2)
        assert lp_distance(f, identity_field(), 2.0, SectorDomain(BETA)) == 0.0

    def test_branch_is_the_hypot_rule_on_and_near_circles(self, rng):
        eps_all = rng.uniform(0.05, 0.95, 300)
        squares_differ = 0
        for eps in eps_all:
            theta = rng.uniform(0.0, 2.0 * np.pi, 64)
            r = eps * np.concatenate([np.ones(64), 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, 32)])
            phi = np.concatenate([theta, theta[:32]])
            pts = np.concatenate([np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1),
                                  [[eps, 0.0]]])
            assert np.array_equal(radial_jump_field(3.0, eps).eval(pts),
                                  hypot_rule(3.0, eps, pts)), eps
            squares_differ += np.count_nonzero(
                (pts[:, 0] ** 2 + pts[:, 1] ** 2 < eps * eps)
                != (np.hypot(pts[:, 0], pts[:, 1]) < eps))
        # rounding puts on-circle points on both sides, and x^2 + y^2 alone
        # sorts some of them differently from np.hypot
        assert squares_differ > 0

    def test_one_point_of_shape_2(self):
        f = radial_jump_field(3.0, 0.3)
        for pt in ([0.3, 0.0], [0.1, 0.2], [0.5, 0.5]):
            a = f.eval(np.array(pt))
            assert a.shape == (2, 2)
            assert np.array_equal(a, hypot_rule(3.0, 0.3, np.array(pt)))

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-14])
    def test_tiny_radius_is_the_hypot_rule(self, rng, eps):
        theta = rng.uniform(0.0, 2.0 * np.pi, 20_000)
        r = eps * np.concatenate([np.ones(10_000), 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, 10_000)])
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert np.array_equal(radial_jump_field(0.5, eps).eval(pts), hypot_rule(0.5, eps, pts))
        if eps == 1e-160:
            # eps^2 is subnormal: the 1e-14 band around it rounds away, and
            # the squares alone misclassify points that np.hypot places
            squares = np.where(pts[:, 0] ** 2 + pts[:, 1] ** 2 < eps * eps, 0.5, 1.0)
            assert not np.array_equal(squares[:, None, None] * np.eye(2),
                                      hypot_rule(0.5, eps, pts))

    @pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (-1.0, 0.1), (2.0, 0.0),
                                           (2.0, 1.0)])
    def test_invalid(self, alpha, eps):
        with pytest.raises(ValueError):
            radial_jump_field(alpha, eps)


class TestMatrixPositivePart:
    def test_already_psd(self):
        assert np.allclose(matrix_positive_part(np.diag([2.0, 3.0])), np.diag([2.0, 3.0]))

    def test_truncation(self):
        assert np.allclose(matrix_positive_part(np.diag([-1.0, 5.0])), np.diag([0.0, 5.0]))

    def test_off_diagonal(self):
        # eigenvalues +-1 with e = (1,1)/sqrt(2) for +1
        out = matrix_positive_part(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_against_eigh(self, rng):
        # random, diagonal, equal-eigenvalue and nearly equal-eigenvalue
        # matrices, with eigenvalues of either sign, at unit scale and at
        # scales whose squared entries underflow or overflow
        sym = rng.normal(size=(2000, 2, 2))
        sym = 0.5 * (sym + np.swapaxes(sym, 1, 2))
        diag = np.zeros((300, 2, 2))
        diag[:, [0, 1], [0, 1]] = rng.normal(size=(300, 2))
        turn = rng.uniform(0.0, np.pi, 600)
        c, s = np.cos(turn), np.sin(turn)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
        lam = np.repeat(rng.normal(size=600), 2).reshape(600, 2)
        lam[300:, 1] *= 1.0 + 1e-9 * rng.normal(size=300)
        spectral = np.einsum("nij,nj,nkj->nik", rot, lam, rot)
        unit = np.concatenate([sym, diag, spectral])
        unit[..., 1, 0] = unit[..., 0, 1]
        for size in (1.0, 1e-300, 1e300):
            mats = size * unit
            w, v = np.linalg.eigh(mats)
            expect = np.einsum("nij,nj,nkj->nik", v, np.maximum(w, 0.0), v)
            scale = np.max(np.abs(mats), axis=(1, 2))
            error = np.abs(matrix_positive_part(mats) - expect)
            assert np.all(error <= 1e-14 * scale[:, None, None]), size

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            matrix_positive_part(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_idempotent_psd_and_contractive(self, rng):
        mats = rng.normal(size=(10_000, 2, 2))
        mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
        pos = matrix_positive_part(mats)
        lam = sym_eigvals(pos)
        assert np.min(lam) >= -1e-12
        again = matrix_positive_part(pos)
        assert np.max(np.abs(again - pos)) < 1e-12
        # spectral norm never grows under the truncation
        norm_in = np.max(np.abs(sym_eigvals(mats)), axis=1)
        norm_out = np.max(np.abs(lam), axis=1)
        assert np.all(norm_out <= norm_in + 1e-12)
        # A already PSD stays untouched
        psd = np.einsum("nij,nkj->nik", mats, mats)
        assert np.max(np.abs(matrix_positive_part(psd) - psd)) < 1e-10

    def test_closest_psd_matrix_brute_force(self, rng):
        # oracle: grid search over rotations and nonnegative eigenvalue pairs
        t = np.linspace(0.0, np.pi, 181)
        mu = np.linspace(0.0, 3.0, 91)
        c, s = np.cos(t), np.sin(t)
        R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        D = np.zeros((mu.size, mu.size, 2, 2))
        D[..., 0, 0] = mu[:, None]
        D[..., 1, 1] = mu[None, :]
        B = np.einsum("tij,mnjk,tlk->tmnil", R, D, R)
        for _ in range(5):
            a = rng.normal(size=(2, 2))
            a = 0.5 * (a + a.T)
            best = np.min(np.linalg.norm(B - a, axis=(-2, -1)))
            dist = np.linalg.norm(a - matrix_positive_part(a))
            assert dist <= best + 0.03  # grid resolution slack


class TestPullbackField:
    def test_identity_map(self):
        f = radial_jump_field(2.0, 0.3)
        pb = pullback_field(f, affine_map(np.eye(2)))
        pts = SectorDomain(BETA).sample_interior(200)
        assert np.max(np.abs(pb.eval(pts) - f.eval(pts))) < 1e-14

    def test_uniform_dilation(self):
        # Dphi = 2I, so a = (1/2) I (1/2) I = I/4
        m = affine_map(2.0 * np.eye(2))
        pb = pullback_field(identity_field(), m)
        pts = np.array([[0.2, 0.1], [0.4, 0.3]])
        assert np.allclose(pb.eval(pts), 0.25 * np.eye(2)[None], atol=1e-15)

    def test_radial_map_eigenvalues(self):
        # in the (radial, angular) eigenbasis: {1/s'(r)^2, (r/s(r))^2}
        eps = 0.1
        m = radial_shift_map(eps, BETA)
        pb = pullback_field(identity_field(), m)
        r = 0.05
        pt = polar_point(r, 0.7)
        lam = np.sort(sym_eigvals(pb.eval(pt))[0])
        expect = np.sort([4.0, (r / (0.5 * r + eps)) ** 2])
        assert np.allclose(lam, expect, atol=1e-12)

    def test_matches_finite_difference_jacobian(self):
        eps = 0.1
        m = radial_shift_map(eps, BETA)
        pb = pullback_field(identity_field(), m)
        pts = SectorDomain(BETA).sample_interior(200)
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[np.abs(r - 2 * eps) > 1e-3]
        h = 1e-6
        J = np.empty((pts.shape[0], 2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            J[:, :, k] = (m.forward(pts + e) - m.forward(pts - e)) / (2 * h)
        Jinv = np.linalg.inv(J)
        a_fd = Jinv @ np.swapaxes(Jinv, 1, 2)
        assert np.max(np.abs(a_fd - pb.eval(pts))) < 1e-5

    def test_symmetric_output(self):
        m = affine_map([[1.5, 0.4], [0.0, 0.8]])
        pb = pullback_field(radial_jump_field(3.0, 0.2), m)
        a = pb.eval(SectorDomain(BETA).sample_interior(500))
        assert np.max(np.abs(a - np.swapaxes(a, 1, 2))) < 1e-14

    def test_ellipticity_propagation(self):
        eps = 0.1
        m = radial_shift_map(eps, BETA)
        f = radial_jump_field(2.0, 0.3)
        pb = pullback_field(f, m)
        assert pb.ellipticity.lower == pytest.approx(f.ellipticity.lower / m.lip_bounds[0] ** 2)
        assert pb.ellipticity.upper == pytest.approx(f.ellipticity.upper * m.lip_bounds[1] ** 2)
        pts = SectorDomain(BETA, r_inner=m.cert_radius).sample_interior(5000)
        lam = sym_eigvals(pb.eval(pts))
        assert np.all(lam[:, 0] >= pb.ellipticity.lower - 1e-12)
        assert np.all(lam[:, 1] <= pb.ellipticity.upper + 1e-12)

    def test_singular_jacobian_reports_point(self):
        bad = affine_map(np.eye(2))

        def jac(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.broadcast_to(np.eye(2), pts.shape[:-1] + (2, 2)).copy()
            out[..., 0, 0] = pts[..., 0]  # degenerates where x = 0
            return out

        broken = type(bad)(bad.forward, jac, bad.inverse, bad.lip_bounds, 0.0)
        pb = pullback_field(identity_field(), broken)
        with pytest.raises(FieldEvaluationError, match=r"at point \(0, 0\.7\)$"):
            pb.eval(np.array([[0.5, 0.2], [0.0, 0.7]]))


# (beta / pi, alpha, eps, p): the first cases at beta = 1.5 pi, then a grid
# over the rate studies' eps, beta, p and alpha ranges
CLOSED_FORM_CASES = (
    [pytest.param(1.5, alpha, eps, p, id=f"{alpha}-{eps}-{p}")
     for alpha, eps in [(0.5, 0.02), (2.0, 0.1)] for p in (1.0, 2.0, 3.0, 4.5)]
    + [pytest.param(b, alpha, eps, p, id=f"{b}pi-{alpha:g}-{eps:g}-{p:g}")
       for eps in (1e-1, 1e-4, 1e-8, 1e-12, 1e-14) for b in (1.1, 1.5, 1.9)
       for p in (2.2, 3.0, 7.5) for alpha in (1e-2, 2.0, 1e2)]
)


# float.hex of lp_distance(field, identity, p, domain) as the unblocked
# evaluation gave it.  The sector grid has 66 816 points, 8.2 blocks, and
# the annular one 18 432, 2.25 blocks.  The jump fields' entries are 0 or
# the scale; the sheared field's take other values too
ANNULUS = SectorDomain(1.1 * np.pi, r_inner=0.5)
LP_CASES = {
    "sector": (lambda: radial_jump_field(1.5, 0.1), SectorDomain(BETA)),
    "annulus": (lambda: radial_jump_field(1e-2, 0.7), ANNULUS),
    "sheared": (lambda: pullback_field(radial_jump_field(3.0, 0.7),
                                       affine_map([[1.3, 0.2], [0.0, 0.8]])), ANNULUS),
}
LP_PINNED = {
    ("sector", 2.4): "0x1.ad9ebee798dadp-4",
    ("sector", 1100.0): "0x1.fe4225bba564ep-2",
    ("sector", 2e7): "0x1.fffff9b631a02p-2",
    ("annulus", 2.4): "0x1.5f4176f8a8adfp-1",
    ("annulus", 1100.0): "0x1.fa797c743166ep-1",
    ("annulus", 2e7): "0x1.fae14637ceb43p-1",
    ("sheared", 2.4): "0x1.355ac138e96b4p+1",
    ("sheared", 1100.0): "0x1.d78d7e12ed8fep+1",
    ("sheared", 2e7): "0x1.d7fffe6310720p+1",
}


class TestLpDistance:
    def test_zero_for_equal_fields(self):
        f = radial_jump_field(2.0, 0.1)
        assert lp_distance(f, f, 3.0, SectorDomain(BETA)) == 0.0

    @pytest.mark.parametrize("b,alpha,eps,p", CLOSED_FORM_CASES)
    def test_jump_vs_identity_closed_form(self, b, alpha, eps, p):
        # |alpha - 1| * (beta eps^2 / 2)^(1/p): the jump region is a sector
        beta = b * np.pi
        val = lp_distance(radial_jump_field(alpha, eps), identity_field(), p,
                          SectorDomain(beta))
        expect = abs(alpha - 1.0) * (0.5 * beta * eps**2) ** (1.0 / p)
        assert val == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [1100.0, 2e7])
    @pytest.mark.parametrize("alpha", [1.5, 1e-2, 1e300])
    def test_large_p_does_not_underflow(self, p, alpha):
        # |alpha - 1|^p alone under- or overflows; the closed form does not
        beta, eps = 1.5 * np.pi, 0.1
        val = lp_distance(radial_jump_field(alpha, eps), identity_field(), p,
                          SectorDomain(beta))
        expect = abs(alpha - 1.0) * (0.5 * beta * eps**2) ** (1.0 / p)
        assert val == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_jump_vs_identity_monte_carlo(self):
        dom = SectorDomain(BETA)
        p, alpha, eps = 3.0, 2.0, 0.15
        val = lp_distance(radial_jump_field(alpha, eps), identity_field(), p, dom)
        pts = dom.sample_interior(200_000)
        r = np.hypot(pts[:, 0], pts[:, 1])
        mc = (dom.area() * np.mean((r < eps) * abs(alpha - 1.0) ** p)) ** (1.0 / p)
        assert val == pytest.approx(mc, rel=0.01)

    def test_rejects_p_not_finite(self):
        # the studies' p = 2q/(q-2) is finite for every q > 2
        dom = SectorDomain(BETA)
        for p in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite p"):
                lp_distance(radial_jump_field(2.0, 0.1), identity_field(), p, dom)

    def test_metric_properties(self, rng):
        dom = SectorDomain(BETA)
        fields = [constant_field(np.diag(d)) for d in rng.uniform(0.5, 3.0, size=(3, 2))]
        a, b, c = fields
        p = 2.5
        dab = lp_distance(a, b, p, dom)
        assert dab == pytest.approx(lp_distance(b, a, p, dom), rel=1e-13)
        assert dab <= lp_distance(a, c, p, dom) + lp_distance(c, b, p, dom) + 1e-12

    def test_metric_properties_across_interfaces(self, rng):
        # triples of jump fields with distinct interface radii exercise the
        # breakpoint-union quadrature path
        dom = SectorDomain(BETA)
        params = list(zip(rng.uniform(0.3, 3.0, 3), rng.uniform(0.05, 0.6, 3)))
        fields = [radial_jump_field(al, ep) for al, ep in params]
        a, b, c = fields
        for p in (1.0, 3.0):
            dab = lp_distance(a, b, p, dom)
            assert dab == pytest.approx(lp_distance(b, a, p, dom), rel=1e-12)
            dac = lp_distance(a, c, p, dom)
            dcb = lp_distance(c, b, p, dom)
            assert dab <= dac + dcb + 1e-12

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            lp_distance(identity_field(), identity_field(), 0.5, SectorDomain(BETA))

    @pytest.mark.parametrize("block", [None, 6, 7, 366, 367, 1 << 20])
    @pytest.mark.parametrize("name,p", sorted(LP_PINNED))
    def test_pinned_bits_in_any_block_size(self, name, p, block, block_points):
        # None keeps BLOCK_POINTS; 1 << 20 points hold a whole grid
        block_points(block)
        field, domain = LP_CASES[name]
        assert lp_distance(field(), identity_field(), p, domain).hex() == LP_PINNED[name, p]

    def test_field_error_in_the_last_block_is_raised(self):
        seen = []

        def recording(pts):
            seen.append(np.array(pts))
            return identity_field().eval(pts)

        dom = SectorDomain(BETA)
        lp_distance(CoefficientField(recording, EllipticityBounds(1.0, 1.0)),
                    identity_field(), 2.0, dom)
        grid = np.concatenate(seen)
        assert len(seen) > 2
        assert [len(b) for b in seen[:-1]] == [BLOCK_POINTS] * (len(seen) - 1)
        target = grid.shape[0] - 3  # in the last block
        with pytest.raises(FieldEvaluationError, match="bad point"):
            lp_distance(identity_failing_at(grid[target]), identity_field(), 2.0, dom)



class TestEnergyIdentity:
    def test_affine_shear_with_bump(self):
        M = np.array([[1.3, 0.2], [0.0, 0.8]])
        amap = affine_map(M, (0.05, -0.02))
        corners = amap.forward(np.array([[0, 0], [1, 0], [0, 0.8], [1, 0.8]], float))
        target = ((corners[:, 0].min(), corners[:, 0].max()),
                  (corners[:, 1].min(), corners[:, 1].max()))
        grad_v = smooth_bump_gradient(amap.forward(np.array([[0.5, 0.4]]))[0], 0.25)
        gap, direct, _ = pullback_energy_gap(identity_field(), amap, grad_v,
                                             ((0.0, 1.0), (0.0, 0.8)), target,
                                             n_panels=48)
        assert direct > 1.0
        assert gap < 1e-8

    def test_radial_map_with_bump(self):
        eps = 0.1
        rmap = radial_shift_map(eps, BETA)
        center = 0.35 * np.array([np.cos(BETA / 2), np.sin(BETA / 2)])
        grad_v = smooth_bump_gradient(center, 0.2)
        gap, direct, _ = pullback_energy_gap(
            radial_jump_field(2.0, 0.5), rmap, grad_v,
            SectorDomain(BETA), SectorDomain(BETA, r_inner=eps),
            radial_breaks_source=(2 * eps, 0.5), radial_breaks_target=(2 * eps, 0.5),
        )
        assert direct > 1.0
        assert gap < 1e-4
