import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipstab.analytic import (
    SeparableSolution,
    SourceTerm,
    annulus_solution,
    h1_seminorm_separable,
    jump_solution,
    limit_solution,
    q_star,
    residual_check,
)
from ellipstab.coefficients import identity_field, radial_jump_field
from ellipstab.experiments import composition_inequality_check
from ellipstab.geometry import SectorDomain
from ellipstab.quadrature import integrate_radial

BETA = 1.5 * np.pi
K = np.pi / BETA


def w_at(sol, r):
    return float(sol.radial_profile(np.array([r]))[0])


class TestSourceTerm:
    def test_amplitude(self):
        src = SourceTerm(BETA)
        assert src.amplitude == pytest.approx((4 * BETA**2 - np.pi**2) / BETA**2)
        assert src.amplitude > 0.0
        assert src.angular_wavenumber == pytest.approx(K)

    def test_value_on_bisector(self):
        src = SourceTerm(BETA)
        pt = 0.5 * np.array([[np.cos(BETA / 2), np.sin(BETA / 2)]])
        assert src.value(pt)[0] == pytest.approx(src.amplitude * np.sin(K * BETA / 2))


class TestLimitSolution:
    def test_outer_dirichlet(self):
        assert w_at(limit_solution(BETA), 1.0) == 0.0

    def test_profile_value(self):
        # r^(2/3) - r^2 at r = 1/2
        assert w_at(limit_solution(BETA), 0.5) == pytest.approx(0.379961, abs=1e-6)

    def test_integrability_threshold(self):
        assert limit_solution(BETA).q_star == pytest.approx(6.0)
        assert limit_solution(1.2 * np.pi).q_star == pytest.approx(12.0)

    @pytest.mark.parametrize("beta", [np.pi, 2 * np.pi, 0.5 * np.pi])
    def test_angle_validation(self, beta):
        with pytest.raises(ValueError):
            limit_solution(beta)

    def test_residual(self):
        rep = residual_check(limit_solution(BETA), SourceTerm(BETA), identity_field())
        assert rep.n_evaluated >= 900
        assert rep.max_residual < 1e-4

    def test_gradient_matches_finite_differences(self):
        sol = limit_solution(BETA)
        pts = sol.domain.sample_interior(200)
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[r > 0.05]
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (sol.value(pts + e) - sol.value(pts - e)) / (2 * h)
            assert np.max(np.abs(fd - sol.gradient(pts)[:, k])) < 1e-7


class TestJumpSolution:
    def test_alpha_one_reduces_to_limit(self):
        uj = jump_solution(BETA, 1.0, 0.37)
        u0 = limit_solution(BETA)
        r = np.linspace(0.01, 1.0, 50)
        assert np.max(np.abs(uj.radial_profile(r) - u0.radial_profile(r))) < 1e-14

    def test_interface_continuity(self):
        uj = jump_solution(BETA, 2.0, 0.1)
        below = np.nextafter(0.1, 0.0)
        assert abs(w_at(uj, below) - w_at(uj, 0.1)) < 1e-12

    def test_interface_flux_continuity(self):
        # alpha * w'(eps-) = w'(eps+) transmits the conormal derivative
        alpha, eps = 2.0, 0.1
        uj = jump_solution(BETA, alpha, eps)
        below = np.nextafter(eps, 0.0)
        flux_in = alpha * float(uj.radial_derivative(np.array([below]))[0])
        flux_out = float(uj.radial_derivative(np.array([eps]))[0])
        assert abs(flux_in - flux_out) < 1e-10

    def test_outer_dirichlet(self):
        assert abs(w_at(jump_solution(BETA, 5.0, 0.3), 1.0)) < 1e-14

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 2.0, 100.0])
    def test_residual_both_branches(self, alpha):
        eps = 0.1
        rep = residual_check(jump_solution(BETA, alpha, eps), SourceTerm(BETA),
                             radial_jump_field(alpha, eps))
        assert rep.max_residual < 1e-4

    @pytest.mark.parametrize("beta", [1.1 * np.pi, 1.9 * np.pi])
    @pytest.mark.parametrize("alpha", [0.01, 100.0])
    def test_residual_sees_a_one_percent_alpha_error(self, beta, alpha):
        # the check must still fail a solution paired with the wrong field
        eps = 0.1
        rep = residual_check(jump_solution(beta, alpha, eps), SourceTerm(beta),
                             radial_jump_field(1.01 * alpha, eps))
        assert rep.max_residual > 1e-4

    @pytest.mark.parametrize("alpha,eps", [(-1.0, 0.1), (0.0, 0.1), (2.0, 1.5)])
    def test_invalid(self, alpha, eps):
        with pytest.raises(ValueError):
            jump_solution(BETA, alpha, eps)


class TestAnnulusSolution:
    def test_dirichlet_both_arcs(self):
        ua = annulus_solution(BETA, 0.05)
        assert abs(w_at(ua, 0.05)) < 1e-12
        assert abs(w_at(ua, 1.0)) < 1e-14

    def test_small_eps_limit(self):
        # coefficients tend to (1, 0): the profile approaches the corner solution
        ua = annulus_solution(BETA, 1e-6)
        u0 = limit_solution(BETA)
        assert abs(w_at(ua, 0.5) - w_at(u0, 0.5)) < 1e-4

    def test_residual(self):
        rep = residual_check(annulus_solution(BETA, 0.05), SourceTerm(BETA),
                             identity_field())
        assert rep.max_residual < 1e-4

    def test_extended_by_zero(self):
        ua = annulus_solution(BETA, 0.05).extended_by_zero()
        assert ua.domain.r_inner == 0.0
        assert w_at(ua, 0.01) == 0.0
        assert float(ua.radial_derivative(np.array([0.01]))[0]) == 0.0
        assert w_at(ua, 0.5) == pytest.approx(w_at(annulus_solution(BETA, 0.05), 0.5))

    def test_extension_requires_vanishing_trace(self):
        bad = limit_solution(BETA).difference(annulus_solution(BETA, 0.3))
        # difference lives on the annulus but does not vanish at r = 0.3
        with pytest.raises(ValueError):
            bad.extended_by_zero()


def _term_scale(sol, r, order):
    """Sum of |c p^order r^(p - order)| over the terms of r's piece."""
    piece = np.searchsorted(sol.breakpoints, r, side="right")
    return np.array([sum(abs(c * p**order) * x ** (p - order)
                         for c, p in sol.pieces[i][1])
                     for i, x in zip(piece, r)])


class TestPieceArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.05, 1.95), st.floats(-4.0, 4.0), st.floats(-14.0, -0.3))
    def test_difference_is_pointwise(self, b, log_alpha, log_eps):
        beta, alpha, eps = b * np.pi, 10.0**log_alpha, 10.0**log_eps
        u0 = limit_solution(beta)
        r = np.array([eps, np.nextafter(eps, 0.0), 1.0, 0.5 * eps, 0.5])
        for u in (jump_solution(beta, alpha, eps),
                  annulus_solution(beta, eps).extended_by_zero()):
            diff = u.difference(u0)
            for order, name in enumerate(("radial_profile", "radial_derivative")):
                pointwise = getattr(u, name)(r) - getattr(u0, name)(r)
                scale = _term_scale(u, r, order) + _term_scale(u0, r, order)
                assert np.all(np.abs(getattr(diff, name)(r) - pointwise)
                              <= 2e-15 * scale)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.05, 1.95), st.floats(-14.0, -0.3))
    def test_extension_vanishes_below_inner_radius(self, b, log_eps):
        eps = 10.0**log_eps
        ext = annulus_solution(b * np.pi, eps).extended_by_zero()
        below = np.array([0.0, 0.5 * eps, np.nextafter(eps, 0.0)])
        assert np.all(ext.radial_profile(below) == 0.0)
        assert np.all(ext.radial_derivative(below) == 0.0)

    def test_exact_cancellation_drops_terms(self):
        zero = limit_solution(BETA).difference(limit_solution(BETA))
        assert zero.pieces == ((np.inf, ()),)
        assert zero.q_star == np.inf


class TestH1Seminorm:
    def test_zero_profile(self):
        zero = limit_solution(BETA).difference(limit_solution(BETA))
        assert h1_seminorm_separable(zero) == 0.0

    def test_limit_solution_closed_form(self):
        # int (w'^2 + k^2 w^2 / r^2) r dr = (1 - k/2)^2 for w = r^k - r^2
        val = h1_seminorm_separable(limit_solution(BETA))
        assert val == pytest.approx(np.sqrt(0.5 * BETA) * (1 - K / 2), rel=1e-10)

    def test_matches_2d_mesh_quadrature(self):
        # independent oracle: triangle quadrature of |grad u|^2 on a fine mesh
        from ellipstab.error_norms import h1_error_vs_analytic
        from ellipstab.fem import FemSolution
        from ellipstab.meshing import mesh_sector
        from ellipstab.geometry import SectorDomain

        mesh = mesh_sector(SectorDomain(BETA), 96, 96, grading=3.0)
        zero = FemSolution(mesh, np.zeros(mesh.num_vertices), (0, 0.0))
        u0 = limit_solution(BETA)
        two_d = h1_error_vs_analytic(zero, u0)
        assert two_d == pytest.approx(h1_seminorm_separable(u0), rel=1e-3)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_jump_difference_lower_bound(self, eps):
        # squared seminorm of the profile difference dominates the sharpness
        # constant 1/27 at alpha = 2, beta = 3 pi / 2
        diff = jump_solution(BETA, 2.0, eps).difference(limit_solution(BETA))
        val = h1_seminorm_separable(diff)
        assert val**2 / eps ** (2 * K) >= (1.0 / 27.0) * 0.95

    def test_divergent_profile_detected(self):
        # a constant profile has |grad u| = k/r at the corner, in L^q only for q < 2
        bad = SeparableSolution(((np.inf, ((1.0, 0.0),)),), K, SectorDomain(BETA))
        assert bad.q_star == 2.0
        with pytest.raises(ArithmeticError):
            h1_seminorm_separable(bad)


class TestGradientIntegrability:
    def q_integral(self, q, r_floor):
        # 1D oracle: int |w'|^q r dr with a hard cutoff at r_floor
        u0 = limit_solution(BETA)
        return integrate_radial(
            lambda r: np.abs(u0.radial_derivative(r)) ** q * r, r_floor, 1.0)

    def test_converges_below_threshold(self):
        # tail below the cutoff scales like cutoff^(1 - (1-k) q / 2) > 0, so the
        # increments form a geometric, summable sequence
        q = 5.5  # q* - 0.5
        vals = [self.q_integral(q, f) for f in (1e-4, 1e-6, 1e-8, 1e-10)]
        inc = np.diff(vals)
        assert np.all(inc > 0)
        ratios = inc[1:] / inc[:-1]
        assert np.all(ratios < 0.6)

    def test_diverges_above_threshold(self):
        q = 6.5  # q* + 0.5
        vals = [self.q_integral(q, f) for f in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(b > 1.5 * a for a, b in zip(vals[:-1], vals[1:]))


# -- accuracy against closed forms -------------------------------------------
#
# On each radial piece every profile is a sum of power terms c * r^p with
# p in {k, -k, 2}, so (beta/2) int (w'^2 + k^2 w^2 / r^2) r dr is a sum of
# exact r^s / s terms.  The coefficients are solved from the boundary-value
# conditions in mpmath, independently of ellipstab.analytic.

def _mp_seminorm(beta, pieces):
    """H1 seminorm of the profile given as (a, b, [(c, p), ...]) pieces."""
    k = mp.pi / beta
    total = mp.mpf(0)
    for a, b, terms in pieces:
        for ci, pi in terms:
            for cj, pj in terms:
                s = pi + pj
                part = mp.log(b / a) if s == 0 else (b**s - a**s) / s
                total += ci * cj * (pi * pj + k * k) * part
    return mp.sqrt(beta / 2 * total)


def _mp_jump_error(beta, alpha, eps):
    """|u_jump - u0|: inner A r^k - r^2/alpha, outer B r^k + C r^-k - r^2."""
    k = mp.pi / beta
    # w(1) = 0, continuity at eps, alpha w'(eps-) = w'(eps+)
    m = mp.matrix([[0, 1, 1],
                   [eps**k, -eps**k, -eps**-k],
                   [alpha * eps ** (k - 1), -eps ** (k - 1), eps ** (-k - 1)]])
    a, b, c = mp.lu_solve(m, mp.matrix([1, eps**2 / alpha - eps**2, 0]))
    return _mp_seminorm(beta, [(0, eps, [(a - 1, k), (1 - 1 / alpha, 2)]),
                               (eps, 1, [(b - 1, k), (c, -k)])])


def _mp_annulus_error(beta, eps):
    """|ext0(u_annulus) - u0| with u_annulus = B r^k + C r^-k - r^2."""
    k = mp.pi / beta
    b, c = mp.lu_solve(mp.matrix([[1, 1], [eps**k, eps**-k]]), mp.matrix([1, eps**2]))
    return _mp_seminorm(beta, [(0, eps, [(-1, k), (1, 2)]),
                               (eps, 1, [(b - 1, k), (c, -k)])])


SMALL_EPS = [1e-6, 1e-9, 1e-12, 1e-14]
ANGLES = [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi]


class TestClosedFormAccuracy:
    @pytest.mark.parametrize("beta", ANGLES)
    @pytest.mark.parametrize("eps", SMALL_EPS)
    def test_jump_difference(self, beta, eps):
        with mp.workdps(40):
            ref = float(_mp_jump_error(mp.mpf(beta), mp.mpf(2), mp.mpf(eps)))
        diff = jump_solution(beta, 2.0, eps).difference(limit_solution(beta))
        assert h1_seminorm_separable(diff) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", ANGLES)
    @pytest.mark.parametrize("eps", SMALL_EPS)
    def test_annulus_difference(self, beta, eps):
        with mp.workdps(40):
            ref = float(_mp_annulus_error(mp.mpf(beta), mp.mpf(eps)))
        diff = annulus_solution(beta, eps).extended_by_zero().difference(
            limit_solution(beta))
        assert h1_seminorm_separable(diff) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", ANGLES)
    def test_composition_lhs(self, beta):
        # (beta/2) int_0^{2 eps} (w(r/2 + eps) - w(r))^2 r dr with w = r^k - r^2;
        # r = eps t turns the difference into eps^k a(t) + eps^2 b(t)
        eps_list = [1e-6, 1e-12, 1e-14]
        check = composition_inequality_check(beta, eps_list, 4.0)
        with mp.workdps(40):
            k = mp.pi / mp.mpf(beta)
            for e, lhs in zip(eps_list, check.lhs_series):
                e = mp.mpf(e)

                def f(t):
                    a = (t / 2 + 1) ** k - t**k
                    b = t**2 - (t / 2 + 1) ** 2
                    return (e**k * a + e**2 * b) ** 2 * t

                ref = mp.sqrt(mp.mpf(beta) / 2 * e**2 * mp.quad(f, [0, 1, 2]))
                assert lhs == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta,q,rel", [
        *((b, q, 1e-12) for b in ANGLES for q in (4.0, 5.0)),
        # a non-integer power of the profile at r = 1, where w vanishes
        (1.771 * np.pi, 2.649, 1e-11),
    ])
    def test_composition_lq_norm(self, beta, q, rel):
        # ||u0||_Lq^q = int_0^beta sin(k theta)^q dtheta * int_0^1 (r^k - r^2)^q r dr
        check = composition_inequality_check(beta, [0.1], q)
        with mp.workdps(40):
            b, q_mp = mp.mpf(beta), mp.mpf(q)
            k = mp.pi / b
            ang = mp.quad(lambda t: mp.sin(k * t) ** q_mp, [0, b])
            rad = mp.quad(lambda r: (r**k - r**2) ** q_mp * r, [0, 1])
            ref = (ang * rad) ** (1 / q_mp)
        assert check.hypothesis_params[1] == pytest.approx(float(ref), rel=rel, abs=0.0)


class TestIntegrabilityThreshold:
    @pytest.mark.parametrize("beta", ANGLES)
    def test_jump_keeps_the_corner_threshold(self, beta):
        u0 = limit_solution(beta)
        uj = jump_solution(beta, 2.0, 1e-3)
        assert uj.q_star == u0.q_star == q_star(beta)
        assert uj.difference(u0).q_star == q_star(beta)

    def test_extension_and_difference_propagate(self):
        ua = annulus_solution(BETA, 0.1)
        assert ua.q_star == np.inf
        ext = ua.extended_by_zero()
        assert ext.q_star == np.inf
        assert ext.difference(limit_solution(BETA)).q_star == pytest.approx(6.0)
        # an annular difference excludes the corner
        assert limit_solution(BETA).difference(ua).q_star == np.inf

    def test_threshold_decides_square_integrability(self):
        def power(p):
            return SeparableSolution(((np.inf, ((1.0, p),)),), K, SectorDomain(BETA))

        for p, qs in ((0.0, 2.0), (-1.0 / 3.0, 1.5)):
            assert power(p).q_star == qs
            with pytest.raises(ArithmeticError):
                h1_seminorm_separable(power(p))
        assert power(1e-6).q_star > 2.0
        assert h1_seminorm_separable(power(1e-6)) > 0.0
