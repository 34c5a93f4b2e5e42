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
from ellipstab.coefficients import constant_field, identity_field, radial_jump_field
from ellipstab.experiments import _limit_lq_norm, composition_inequality_check
from ellipstab.geometry import TWO_PI, SectorDomain
from ellipstab.meshing import mesh_sector, refine_uniform
from ellipstab.quadrature import integrate_radial, tri6_points

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
        assert rep.max_residual < 1e-4
        assert [name for name, _ in rep.defects] == [
            "source wavenumber", "equation on 0 <= r < 1",
            "outer Dirichlet value", "corner terms"]

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

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.99])
    def test_residual_names_every_phase(self, eps):
        # no sampling is involved, so a phase inside r < 0.02 or r > 0.98
        # is certified like any other
        rep = residual_check(jump_solution(BETA, 2.0, eps), SourceTerm(BETA),
                             radial_jump_field(2.0, eps))
        names = [name for name, _ in rep.defects]
        for name in (f"equation on 0 <= r < {eps:g}", f"equation on {eps:g} <= r < 1",
                     f"continuity at r={eps:g}", f"flux continuity at r={eps:g}"):
            assert name in names
        assert rep.max_residual < 1e-13

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
        bad = SeparableSolution(((np.inf, ((1.0, 0.0),)),), SectorDomain(BETA))
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


    @pytest.mark.parametrize("b", [1.05, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize("q", [2.2, 3.0, 400.0, 580.0, 1e3])
    def test_limit_lq_norm_in_closed_form(self, b, q):
        # ||u0||_Lq^q = A_q B((k q + 2)/(2 - k), q + 1)/(2 - k) at 40 digits;
        # at q = 2.2 the radial rule was 5e-11 off, and from q ~ 560 w^q
        # underflowed; at small q the beta form is checked by quadrature
        beta = b * np.pi
        norm = _limit_lq_norm(limit_solution(beta), q)
        with mp.workdps(40):
            B, Q = mp.mpf(beta), mp.mpf(q)
            k = mp.pi / B
            a_q = B / mp.sqrt(mp.pi) * mp.gamma((Q + 1) / 2) / mp.gamma(Q / 2 + 1)
            rad = mp.beta((k * Q + 2) / (2 - k), Q + 1) / (2 - k)
            if q <= 3.0:
                quad = mp.quad(lambda r: (r**k - r**2) ** Q * r, [0, 1])
                assert abs(quad / rad - 1) <= mp.mpf(10) ** -30
            ref = (a_q * rad) ** (1 / Q)
        assert norm == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_limit_lq_norm_needs_the_limit_table(self):
        jump = jump_solution(BETA, 2.0, 0.3)
        scaled = SeparableSolution(((np.inf, ((2.0, K), (-1.0, 2.0))),), SectorDomain(BETA))
        for sol in (jump, scaled):
            with pytest.raises(ValueError, match="limit solution's table"):
                _limit_lq_norm(sol, 3.0)


# err^2 / eps^(2 pi / beta) tends to pi ((1 - alpha) / (1 + alpha))^2 for the
# jump family and to pi for the annulus family: each of the two pieces gives
# (beta k / 2) times the squared leading coefficient, and beta k = pi; the
# ratio to the limit is pinned from both sides, with no monotonicity assumed
LEADING_TOLERANCES = [(1e-4, 1e-3), (1e-8, 1e-6), (1e-12, 1e-6)]


class TestExactLeadingConstant:
    @pytest.mark.parametrize("beta", ANGLES)
    @pytest.mark.parametrize("alpha", [1e-2, 2.0, 1e2])
    @pytest.mark.parametrize("eps, tol", LEADING_TOLERANCES)
    def test_jump_family(self, beta, alpha, eps, tol):
        diff = jump_solution(beta, alpha, eps).difference(limit_solution(beta))
        ratio = h1_seminorm_separable(diff) ** 2 / eps ** (2 * np.pi / beta)
        limit = np.pi * ((1 - alpha) / (1 + alpha)) ** 2
        assert abs(ratio / limit - 1) <= tol

    @pytest.mark.parametrize("beta", ANGLES)
    @pytest.mark.parametrize("eps, tol", LEADING_TOLERANCES)
    def test_annulus_family(self, beta, eps, tol):
        diff = annulus_solution(beta, eps).extended_by_zero().difference(
            limit_solution(beta))
        ratio = h1_seminorm_separable(diff) ** 2 / eps ** (2 * np.pi / beta)
        assert abs(ratio / np.pi - 1) <= tol


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
            return SeparableSolution(((np.inf, ((1.0, p),)),), SectorDomain(BETA))

        for p, qs in ((0.0, 2.0), (-1.0 / 3.0, 1.5)):
            assert power(p).q_star == qs
            with pytest.raises(ArithmeticError):
                h1_seminorm_separable(power(p))
        assert power(1e-6).q_star > 2.0
        assert h1_seminorm_separable(power(1e-6)) > 0.0


# -- the exact certificate and the evaluator -----------------------------------

CERT_ANGLES = [1.1 * np.pi, 1.3 * np.pi, 1.5 * np.pi, 1.7 * np.pi, 1.9 * np.pi]
CERT_ALPHAS = [1e-2, 0.5, 2.0, 1e2]
CERT_EPS = [1e-14, 1e-12, 1e-8, 1e-4, 1e-2, 0.02, 0.1, 0.5, 0.9, 0.99]
MUTANT_EPS = [1e-12, 1e-4, 1e-2, 0.5, 0.99]


def _swap_corner_coefficients(sol):
    """The jump table with the r^k coefficients c_in and c_out exchanged."""
    (e_in, ((c_in, k), *inner)), (e_out, ((c_out, _), *outer)) = sol.pieces
    pieces = ((e_in, ((c_out, k), *inner)), (e_out, ((c_in, k), *outer)))
    return SeparableSolution(pieces, sol.domain)


def _drop_c2(sol):
    """The annulus table without its r^(-k) term."""
    ((end, ((c1, k), _, quadratic)),) = sol.pieces
    return SeparableSolution(((end, ((c1, k), quadratic)),), sol.domain)


# each pairs a table with a field so that exactly one ingredient is wrong
MUTANTS = {
    "alpha+1%": lambda b, a, e: (jump_solution(b, a, e), radial_jump_field(1.01 * a, e)),
    "alpha-1%": lambda b, a, e: (jump_solution(b, a, e), radial_jump_field(0.99 * a, e)),
    "swapped-c_in-c_out": lambda b, a, e: (_swap_corner_coefficients(jump_solution(b, a, e)),
                                           radial_jump_field(a, e)),
    "annulus-without-c2": lambda b, a, e: (_drop_c2(annulus_solution(b, e)), identity_field()),
    "jump-with-identity-field": lambda b, a, e: (jump_solution(b, a, e), identity_field()),
}


def _mp_power_sum(terms, r, order):
    """Sum of c * p^order * r^(p - order) in mpmath, from the same floats."""
    r = mp.mpf(r)
    return sum(mp.mpf(c) * mp.mpf(p) ** order * r ** (mp.mpf(p) - order) for c, p in terms)


class TestResidualCertificate:
    @pytest.mark.parametrize("beta", CERT_ANGLES)
    def test_true_tables_are_exact(self, beta):
        src = SourceTerm(beta)
        worst = residual_check(limit_solution(beta), src, identity_field()).max_residual
        for eps in CERT_EPS:
            ua = annulus_solution(beta, eps)
            worst = max(worst, residual_check(ua, src, identity_field()).max_residual)
            for alpha in CERT_ALPHAS:
                uj = jump_solution(beta, alpha, eps)
                rep = residual_check(uj, src, radial_jump_field(alpha, eps))
                worst = max(worst, rep.max_residual)
        assert worst <= 1e-13

    @pytest.mark.parametrize("eps", MUTANT_EPS)
    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_mutant_fails(self, mutant, eps):
        for beta in ANGLES:
            for alpha in (1e-2, 2.0, 1e2):
                sol, field = MUTANTS[mutant](beta, alpha, eps)
                rep = residual_check(sol, SourceTerm(beta), field)
                assert rep.max_residual > 1e-4, (beta, alpha)

    @pytest.mark.parametrize("beta", ANGLES)
    def test_source_of_another_angle_fails(self, beta):
        rep = residual_check(limit_solution(beta), SourceTerm(1.01 * beta), identity_field())
        assert dict(rep.defects)["source wavenumber"] > 1e-4

    def test_field_must_be_scalar_times_identity(self):
        with pytest.raises(ValueError, match="scalar"):
            residual_check(limit_solution(BETA), SourceTerm(BETA),
                           constant_field(np.diag([2.0, 1.0])))

    def test_field_interfaces_must_be_breakpoints(self):
        with pytest.raises(ValueError, match="breakpoints"):
            residual_check(limit_solution(BETA), SourceTerm(BETA),
                           radial_jump_field(2.0, 0.1))
        with pytest.raises(ValueError, match="breakpoints"):
            residual_check(jump_solution(BETA, 2.0, 0.1), SourceTerm(BETA),
                           radial_jump_field(2.0, 0.2))

    @pytest.mark.parametrize("beta", ANGLES)
    @pytest.mark.parametrize("eps", [1e-200, 1e-14, 1e-4, 1e-2, 0.5, 0.99])
    def test_evaluator_matches_mpmath(self, beta, eps):
        # radial_profile and radial_derivative against the same tables summed
        # in 50 digits, at radii inside every piece of each jump table and at
        # the interface, where a term c p r^(p - 1) outside it can overflow
        # though c p r^p does not (eps = 1e-200)
        for alpha in (1e-2, 2.0, 1e2):
            sol = jump_solution(beta, alpha, eps)
            lo = 0.0
            for end, terms in sol.pieces:
                r = lo + np.array([0.1, 0.5, 0.9]) * (min(end, 1.0) - lo)
                if lo > 0.0:
                    r = np.append(lo, r)
                lo = end
                for order, evaluate in ((0, sol.radial_profile), (1, sol.radial_derivative)):
                    with mp.workdps(50):
                        ref = [float(_mp_power_sum(terms, x, order)) for x in r]
                    assert evaluate(r) == pytest.approx(ref, rel=1e-12, abs=0)


def two_pass_sum(sol, r, order):
    """The profile evaluator before the one-pass helper: one pass per
    order over r's piece, each term c * p^order * r^p, and a derivative sum
    divided by r once."""
    r = np.asarray(r, dtype=float)
    piece = sum(r >= end for end in sol.breakpoints)
    out = np.empty(r.shape)
    for i, (_, terms) in enumerate(sol.pieces):
        on = piece == i
        x = r[on]
        total = np.zeros(x.shape)
        for c, p in terms:
            term = x**p
            term *= c * p**order
            total += term
        if order and terms:
            total /= x
        out[on] = total
    return out


def two_pass_gradient(sol, pts):
    """grad u from the two profile passes, turned by the trigonometric
    cos theta and sin theta of the polar angle in [0, 2 pi)."""
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2.0 * np.pi)
    k = sol.angular_wavenumber
    gr = two_pass_sum(sol, r, 1) * np.sin(k * theta)
    gt = k * two_pass_sum(sol, r, 0) / r * np.cos(k * theta)
    return np.stack([gr * np.cos(theta) - gt * np.sin(theta),
                     gr * np.sin(theta) + gt * np.cos(theta)], axis=-1)


def evaluator_tables():
    for beta in ANGLES:
        yield limit_solution(beta)
        for eps in (1e-14, 0.1, 0.5):
            yield annulus_solution(beta, eps)
            yield annulus_solution(beta, eps).extended_by_zero()
            for alpha in (1e-2, 2.0, 1e2):
                yield jump_solution(beta, alpha, eps)


class TestOnePassEvaluator:
    def test_profile_keeps_its_bits(self, rng):
        # random radii, every breakpoint and the outer radius
        for sol in evaluator_tables():
            r = np.concatenate([rng.uniform(0.0, 1.0, 500), sol.breakpoints, [1.0]])
            r = r[r >= sol.domain.r_inner]
            assert sol.radial_profile(r).tobytes() == two_pass_sum(sol, r, 0).tobytes()
            assert sol.radial_derivative(r).tobytes() == two_pass_sum(sol, r, 1).tobytes()

    def test_gradient_matches_the_two_pass_polar_form(self, rng):
        # per radius, within 1e-14 of the largest |grad u| on its circle; the
        # radii include a breakpoint exactly and 1e-12, the angles 0, beta
        # and their neighbours
        for sol in evaluator_tables():
            beta = sol.domain.beta
            radii = np.concatenate([rng.uniform(sol.domain.r_inner, 1.0, 20),
                                    sol.breakpoints, [1e-12, 1.0]])
            radii = radii[radii >= sol.domain.r_inner]
            theta = np.concatenate([rng.uniform(0.0, beta, 30),
                                    [0.0, 1e-12, 1e-6, beta - 1e-6, beta - 1e-12, beta]])
            pts = radii[:, None, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            got = sol.gradient(pts)
            assert got.shape == pts.shape
            ref = two_pass_gradient(sol, pts)
            scale = np.max(np.hypot(ref[..., 0], ref[..., 1]), axis=1)
            assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-14 * scale)

    def test_gradient_is_nan_at_the_corner(self):
        sol = jump_solution(BETA, 2.0, 0.1)
        with np.errstate(invalid="ignore"):
            g = sol.gradient(np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert np.all(np.isnan(g[0])) and np.all(np.isfinite(g[1]))

    def test_profile_at_the_corner_is_quiet(self):
        # pyproject turns RuntimeWarnings into errors
        assert limit_solution(BETA).radial_profile(np.array([0.0]))[0] == 0.0


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("beta", [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi])
def test_source_term_keeps_the_bits_of_the_product_formula(beta, refine):
    mesh = mesh_sector(SectorDomain(beta), 12, 16, grading=3.0, aligned_radii=[0.2])
    if refine:
        mesh = refine_uniform(mesh)
    pts = tri6_points(mesh.corners()).reshape(-1, 2)
    source = SourceTerm(beta)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    assert np.array_equal(source.value(pts),
                          source.amplitude * np.sin(source.angular_wavenumber * theta))
    assert np.array_equal(source.value(pts[7]), source.value(pts[7:8])[0])
