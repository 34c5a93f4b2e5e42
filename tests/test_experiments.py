import numpy as np
import pytest

from conftest import annulus_meshes
from ellipstab import experiments, fem
from ellipstab.analytic import (
    SourceTerm,
    h1_seminorm_separable,
    jump_solution,
    limit_solution,
)
from ellipstab.coefficients import constant_field, identity_field, radial_jump_field
from ellipstab.error_norms import lq_gradient_norm
from ellipstab.experiments import (
    BoundCheck,
    ConditionViolation,
    HypothesisViolation,
    ResolutionViolation,
    bound_check,
    coefficient_rate_study,
    DEFAULT_EPS_GRID,
    composition_inequality_check,
    domain_rate_study,
    fit_loglog,
    q_star,
    qualitative_convergence_study,
)
from ellipstab.geometry import SectorDomain, radial_shift_map
from ellipstab.meshing import graded_radii
from ellipstab.quadrature import halton

BETA = 1.5 * np.pi
K = np.pi / BETA


class TestFitLoglog:
    def test_exact_power_law(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        fit = fit_loglog([(e, 3.0 * e**2) for e in eps], window=(0, 6))
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.constant == pytest.approx(3.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        eps = np.geomspace(1e-1, 1e-4, 5)
        fit = fit_loglog([(e, 2.5) for e in eps], window=(0, 4))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0  # exact fit of a flat line

    def test_window_shift_approaches_true_exponent(self):
        eps = np.geomspace(1e-1, 1e-6, 11)
        samples = [(e, e ** (2.0 / 3.0) * (1 + e)) for e in eps]
        full = fit_loglog(samples, window=(0, 10))
        tail = fit_loglog(samples, window=(6, 10))
        assert abs(tail.exponent - 2.0 / 3.0) < abs(full.exponent - 2.0 / 3.0)
        assert abs(tail.exponent - 2.0 / 3.0) < 1e-4

    def test_default_window_drops_two_largest(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        fit = fit_loglog([(e, e) for e in eps])
        assert fit.window == (2, 6)

    def test_errors(self):
        eps = np.geomspace(1e-1, 1e-3, 5)
        with pytest.raises(ValueError):
            fit_loglog([(e, 0.0 if i == 2 else e) for i, e in enumerate(eps)],
                       window=(0, 4))
        with pytest.raises(ValueError):
            fit_loglog([(e, e) for e in eps[:3]])
        with pytest.raises(ValueError):
            fit_loglog([(0.1, 1.0), (0.1, 2.0), (0.01, 1.0), (0.001, 1.0)])

    def test_vanishing_family_is_degenerate(self):
        eps = np.geomspace(1e-1, 1e-3, 5)
        fit = fit_loglog([(e, 0.0) for e in eps[::-1]])
        assert fit.degenerate
        assert np.isnan(fit.exponent)
        assert fit.window == (0, 4)
        assert [e for e, _ in fit.samples] == sorted(eps, reverse=True)

    def test_tiny_positive_errors_are_fitted(self):
        # an absolute floor would call this exact power law degenerate
        eps = np.geomspace(1e-12, 1e-14, 4)
        fit = fit_loglog([(e, 0.6 * e ** (5.0 / 3.0)) for e in eps])
        assert not fit.degenerate
        assert fit.exponent == pytest.approx(5.0 / 3.0, rel=1e-10)

    def test_deterministic(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        samples = [(e, e ** (2.0 / 3.0) * (1 + 0.3 * e)) for e in eps]
        assert fit_loglog(samples) == fit_loglog(samples)


class TestBoundCheck:
    def test_decreasing_ratio_is_bounded(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        check = bound_check(eps, eps, eps**0.5, q=4.0, m_const=1.0)
        assert check.verdict == "bounded"
        assert check.ratio_max == pytest.approx(0.1**0.5)

    def test_growing_ratio_is_violated(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        check = bound_check(eps, eps**0.5, eps, q=4.0, m_const=1.0)
        assert check.verdict == "violated"

    def test_stable_ratio_is_bounded(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        lhs = 2.0 * eps * (1.0 + 0.05 * np.sin(np.arange(7)))
        check = bound_check(eps, lhs, eps, q=4.0, m_const=1.0)
        assert check.verdict == "bounded"

    def test_zero_lhs_is_bounded(self):
        eps = np.geomspace(1e-1, 1e-4, 7)
        check = bound_check(eps, np.zeros(7), eps, q=4.0, m_const=1.0)
        assert check.verdict == "bounded"
        assert check.ratio_max == 0.0


class TestCoefficientRateStudy:
    def test_flat_family_degenerates(self):
        study = coefficient_rate_study(BETA, 1.0)
        assert study.rate.degenerate
        assert np.isnan(study.rate.exponent)
        # the bound is the real one, zero because a_eps - 1 vanishes
        assert study.bound.rhs_series == (0.0,) * len(DEFAULT_EPS_GRID)
        assert study.grad_norm_q == lq_gradient_norm(limit_solution(BETA), 4.0)

    def test_sharpness_rate(self):
        study = coefficient_rate_study(BETA, 2.0, q=4.0)
        assert study.rate.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
        assert study.rate.r_squared > 0.999
        assert study.bound.verdict == "bounded"

    def test_lower_bound_constant(self):
        study = coefficient_rate_study(BETA, 2.0)
        assert study.lower_bound_constant == pytest.approx(1.0 / 27.0)
        # ratio stabilizes well above the sharpness constant at small eps
        for ratio in study.lower_bound_ratios[-2:]:
            assert ratio >= study.lower_bound_constant * 0.95

    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0])
    def test_sandwich_property(self, q):
        # the empirical exponent sits between the upper-bound rate (q-2)/q
        # and the sharp rate pi/beta for every admissible q
        study = coefficient_rate_study(BETA, 2.0, q=q)
        p = 2.0 * q / (q - 2.0)
        assert study.rate.exponent >= 2.0 / p - 0.03
        assert study.rate.exponent <= K + 0.03
        assert study.bound.verdict == "bounded"

    def test_rate_tracks_the_angle(self):
        # at beta = 1.2 pi the sharp exponent moves to pi/beta = 5/6, so the
        # study must follow the angle rather than any fixed number
        beta = 1.2 * np.pi
        study = coefficient_rate_study(beta, 2.0, q=4.0)
        assert study.rate.exponent == pytest.approx(np.pi / beta, abs=0.03)
        for ratio in study.lower_bound_ratios[-2:]:
            assert ratio >= study.lower_bound_constant * 0.95

    def test_contrast_symmetry_of_lower_constant(self):
        # (1-alpha)^2/(1+alpha)^2 is invariant under alpha -> 1/alpha, so the
        # sharpness constant for alpha = 1/2 equals the one for alpha = 2
        a2 = coefficient_rate_study(BETA, 2.0)
        ahalf = coefficient_rate_study(BETA, 0.5)
        assert ahalf.lower_bound_constant == pytest.approx(a2.lower_bound_constant)
        assert ahalf.rate.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
        for ratio in ahalf.lower_bound_ratios[-2:]:
            assert ratio >= ahalf.lower_bound_constant * 0.95

    def test_upper_bound_rhs_closed_form(self):
        # the majorant is ||grad u0||_q * |alpha-1| (beta eps^2/2)^(1/p)
        q, alpha = 4.0, 2.0
        study = coefficient_rate_study(BETA, alpha, q=q)
        p = 2.0 * q / (q - 2.0)
        for eps, rhs in zip(study.bound.eps, study.bound.rhs_series):
            expect = study.grad_norm_q * abs(alpha - 1.0) * (0.5 * BETA * eps**2) ** (1 / p)
            assert rhs == pytest.approx(expect, rel=1e-9)

    def test_inadmissible_q(self):
        with pytest.raises(HypothesisViolation) as err:
            coefficient_rate_study(BETA, 2.0, q=7.0)
        assert err.value.q_star == pytest.approx(6.0)

    def test_vanishing_family_is_degenerate(self):
        eps = np.geomspace(1e-1, 1e-3, 5)
        fit = fit_loglog([(e, 0.0) for e in eps[::-1]])
        assert fit.degenerate
        assert np.isnan(fit.exponent)
        assert fit.window == (0, 4)
        assert [e for e, _ in fit.samples] == sorted(eps, reverse=True)

    def test_tiny_positive_errors_are_fitted(self):
        # an absolute floor would call this exact power law degenerate
        eps = np.geomspace(1e-12, 1e-14, 4)
        fit = fit_loglog([(e, 0.6 * e ** (5.0 / 3.0)) for e in eps])
        assert not fit.degenerate
        assert fit.exponent == pytest.approx(5.0 / 3.0, rel=1e-10)

    def test_deterministic(self):
        a = coefficient_rate_study(BETA, 2.0, q=4.0)
        b = coefficient_rate_study(BETA, 2.0, q=4.0)
        assert a.rate == b.rate
        assert a.bound.lhs_series == b.bound.lhs_series


class TestDomainRateStudy:
    def test_semi_analytic_rate(self):
        study = domain_rate_study(BETA, q=5.0)
        assert study.rate.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
        assert study.mode == "semi"

    def test_rate_tracks_the_angle(self):
        beta = 1.2 * np.pi
        study = domain_rate_study(beta, q=4.0)
        assert study.rate.exponent == pytest.approx(np.pi / beta, abs=0.03)

    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0])
    def test_bounded_for_admissible_q(self, q):
        study = domain_rate_study(BETA, q=q)
        assert study.bound.verdict == "bounded"
        assert study.bound.hypothesis_params[0] == q

    def test_larger_rhs_exponent_is_violated(self):
        study = domain_rate_study(BETA, q=5.0, rhs_eps_exponent=2.0 / 3.0 + 0.1)
        assert study.bound.verdict == "violated"

    def test_fem_mode_agrees_with_semi_analytic(self):
        grid = tuple(np.geomspace(1e-1, 1e-2, 4))
        study = domain_rate_study(BETA, grid, q=4.0, mode="fem",
                                  n_radial=48, n_angular=32)
        assert study.flagged == ()
        assert max(study.agreement) < 0.10
        assert 0.60 <= study.rate.exponent <= 0.73

    def test_fem_mode_flags_insufficient_refinement(self):
        # on a deliberately coarse mesh the discretization error dominates
        # and every grid point is flagged against the semi-analytic oracle
        grid = tuple(np.geomspace(1e-1, 10 ** -2.5, 4))
        study = domain_rate_study(BETA, grid, q=4.0, mode="fem",
                                  n_radial=10, n_angular=6)
        assert study.flagged != ()
        assert max(study.agreement) > 0.10

    def test_inadmissible_q(self):
        with pytest.raises(HypothesisViolation):
            domain_rate_study(BETA, q=6.0)

    def test_fem_grid_below_the_mesh_floor_is_refused(self, monkeypatch):
        # on 10 rings the floor is (1/10)^3; the check comes before any work
        monkeypatch.setattr(experiments, "_semi_annulus_error", None)
        assert experiments.fem_eps_floor(10) == pytest.approx(1e-3, rel=1e-15)
        with pytest.raises(ResolutionViolation, match=r"eps 0\.0009 is below 0\.001, .*\(1/10\)\^3"):
            domain_rate_study(BETA, (1e-1, 1e-2, 9e-4, 1e-3), q=4.0, mode="fem",
                              n_radial=10, n_angular=6)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            domain_rate_study(BETA, mode="exact")

    @pytest.mark.parametrize("beta", [1.2 * np.pi, BETA])
    def test_error_ratio_stabilizes_to_sqrt_pi(self, beta):
        # expanding the annulus error: the inner disc contributes
        # (beta/2) * k * eps^2k and the r^{-k} reflection term the same, so
        # error^2 = beta * k * eps^2k (1 + o(1)) = pi * eps^2k (1 + o(1))
        # for every angle; the leading constant is sqrt(pi)
        from ellipstab.experiments import _semi_annulus_error
        from ellipstab.analytic import limit_solution as limit

        k = np.pi / beta
        u0 = limit(beta)
        ratios = [_semi_annulus_error(beta, e, u0) / e**k
                  for e in np.geomspace(1e-2, 1e-4, 5)]
        assert max(ratios) / min(ratios) < 1.05  # stabilizes within 5%
        assert ratios[-1] == pytest.approx(np.sqrt(np.pi), rel=1e-3)

    @pytest.mark.parametrize("beta", [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi])
    @pytest.mark.parametrize("q", [3.0, 4.0])
    def test_sharp_bound_ratio_tends_to_its_limit(self, beta, q):
        # with the majorant's eps-exponent raised to the rate pi/beta, the
        # bound ratio is error / ((2 beta)^((q-2)/(2q)) eps^(pi/beta)), whose
        # limit is sqrt(pi) / (2 beta)^((q-2)/(2q)); largest measured defects
        # 1.9e-9 at eps = 1e-8 and 1.3e-12 at 1e-11; the verdict is not
        # pinned, since the stability rule reads "bounded" near the threshold
        study = domain_rate_study(beta, eps_grid=(1e-8, 1e-9, 1e-10, 1e-11), q=q,
                                  mode="semi", rhs_eps_exponent=np.pi / beta)
        limit = np.sqrt(np.pi) / (2.0 * beta) ** ((q - 2.0) / (2.0 * q))
        assert len(study.bound.ratios) == 4
        for ratio in study.bound.ratios:
            assert abs(ratio / limit - 1.0) <= 1e-8


def assert_same_system(a, b):
    for attr in ("diag", "lo", "hi", "values"):
        assert getattr(a.matrix, attr).dtype == getattr(b.matrix, attr).dtype
        assert getattr(a.matrix, attr).tobytes() == getattr(b.matrix, attr).tobytes()
    assert a.rhs.tobytes() == b.rhs.tobytes()
    assert np.array_equal(a.free_vertices, b.free_vertices)
    assert a.mesh is b.mesh


class TestAnnulusSystem:
    """The annulus system is the sector system's trailing block, to the bit."""

    def check(self, beta, eps, n_radial, n_angular):
        mesh0, mesh_eps = annulus_meshes(beta, eps, n_radial, n_angular)
        src = SourceTerm(beta)
        sys0 = fem.assemble(mesh0, identity_field(), source=src)
        sliced = experiments._annulus_system(sys0, mesh_eps)
        assert_same_system(sliced, fem.assemble(mesh_eps, identity_field(), source=src))
        assert sliced.num_unknowns < sys0.num_unknowns

    @pytest.mark.parametrize("beta", [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi])
    @pytest.mark.parametrize("eps", [experiments.fem_eps_floor(96), 1e-4, 1e-2, 0.1])
    def test_block_is_the_assembled_annulus_system(self, beta, eps):
        self.check(beta, eps, 96, 64)

    def test_eps_on_a_graded_node(self):
        # eps = (10/96)^3 is a graded radius, so it adds no node circle
        graded = graded_radii(SectorDomain(BETA), 96, experiments.GRADING)
        eps = float(graded[10])
        assert eps == pytest.approx((10.0 / 96.0) ** 3, rel=1e-15)
        mesh0, _ = annulus_meshes(BETA, eps, 96, 64)
        # the corner, then 65 vertices on each of the 96 graded rings and 2 eps
        assert mesh0.num_vertices == 1 + graded.size * 65
        self.check(BETA, eps, 96, 64)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_small_mesh(self, eps):
        self.check(BETA, eps, 24, 16)

    def test_sector_mesh_without_the_eps_circle_is_refused(self):
        eps = 1e-2
        mesh0, mesh_eps = annulus_meshes(BETA, eps, 24, 16, aligned=(2.0 * eps,))
        sys0 = fem.assemble(mesh0, identity_field(), source=SourceTerm(BETA))
        with pytest.raises(ValueError, match="not the outer part"):
            experiments._annulus_system(sys0, mesh_eps)

    def test_sector_mesh_with_other_angles_is_refused(self):
        mesh0, _ = annulus_meshes(BETA, 1e-2, 24, 16)
        _, mesh_eps = annulus_meshes(BETA, 1e-2, 24, 12)
        sys0 = fem.assemble(mesh0, identity_field(), source=SourceTerm(BETA))
        with pytest.raises(ValueError, match="not the outer part"):
            experiments._annulus_system(sys0, mesh_eps)

    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_each_solve_takes_one_separable_step(self, eps, monkeypatch):
        # the separable preconditioner applies to the sliced matrix as to the
        # assembled one, so both solves stop after one CG iteration; neither
        # mesh has a corner ring
        reports = []
        solve_cg = fem.solve_cg

        def counting(system, *args, **kwargs):
            sol = solve_cg(system, *args, **kwargs)
            reports.append((system.num_unknowns, sol.solve_report))
            return sol

        monkeypatch.setattr(fem, "solve_cg", counting)
        experiments._fem_annulus_error(BETA, eps, 96, 64)
        mesh0, mesh_eps = annulus_meshes(BETA, eps, 96, 64)
        sizes = [int(np.sum(~m.boundary_flags)) for m in (mesh0, mesh_eps)]
        assert [n for n, _ in reports] == sizes
        for _, (iterations, residual) in reports:
            assert iterations == 1
            assert residual <= 1e-10

    @pytest.mark.parametrize("beta_over_pi,eps,pinned", [
        (1.5, 1e-3, "0x1.22690b17e4d9bp-6"),
        (1.1, 1e-2, "0x1.b6c2680b417c0p-6"),
    ])
    def test_pinned_bits(self, beta_over_pi, eps, pinned):
        # the fem_domain error at the study's mesh size, whose two solves
        # each take the separable preconditioner's grid solve alone
        error = experiments._fem_annulus_error(beta_over_pi * np.pi, eps, 96, 64)
        assert error.hex() == pinned


class TestCompositionInequality:
    def test_radial_family_bounded(self):
        check = composition_inequality_check(BETA, np.geomspace(1e-1, 1e-3, 5), 5.0)
        assert check.verdict == "bounded"
        assert check.ratio_max < 1.0  # constant reported, not assumed

    def test_jacobian_deviation_scaling(self):
        # |(Dphi)^-1 - I| is 1 on the moved band, so its L^q norm is exactly
        # |E|^(1/q); against |E|^((q-2)/(2q)) the ratio shrinks iff q < 4
        check3 = composition_inequality_check(BETA, np.geomspace(1e-1, 1e-3, 5), 3.0)
        dev3 = check3.extras["jac_dev_ratio"]
        assert all(b < a for a, b in zip(dev3[:-1], dev3[1:]))
        lq = check3.extras["jac_dev_lq"]
        e_sets = [2.0 * BETA * e**2 for e in np.geomspace(1e-1, 1e-3, 5)]
        for val, es in zip(lq, e_sets):
            assert val == pytest.approx(es ** (1.0 / 3.0), rel=1e-14)

    @pytest.mark.parametrize("eps", [0.3, 1e-3, 1e-8])
    def test_inverse_jacobian_deviation_is_an_indicator(self, eps):
        # the premise of the closed form |E|^(1/q): the spectral norm of
        # Dphi^-1 - I is 1 on r < 2 eps and 0 beyond.  A Cartesian inverse is
        # accurate to rounding times cond(Dphi), which grows like 2 eps / r
        # toward the corner (about 2000 at the innermost point here)
        mp = radial_shift_map(eps, BETA)
        uv = halton(2000)
        theta = BETA * uv[:, 1]
        for r, expect in ((2.0 * eps * uv[:, 0], 1.0),
                          (2.0 * eps + (1.0 - 2.0 * eps) * uv[:, 0], 0.0)):
            pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
            jac = mp.jacobian(pts)
            norms = np.linalg.norm(np.linalg.inv(jac) - np.eye(2), 2, axis=(1, 2))
            assert np.all(np.abs(norms - expect) < 1e-14 * np.linalg.cond(jac))

    def test_grid_order_does_not_matter(self):
        # every series runs by decreasing eps, whatever order the grid has
        grid = np.geomspace(1e-1, 1e-3, 5)
        down = composition_inequality_check(BETA, grid, 5.0)
        up = composition_inequality_check(BETA, grid[::-1], 5.0)
        assert up.eps == down.eps == tuple(grid)
        assert up.lhs_series == down.lhs_series
        assert up.ratios == down.ratios

    def test_q_validation(self):
        with pytest.raises(ValueError):
            composition_inequality_check(BETA, [0.1], 2.0)


class TestQualitativeConvergence:
    def test_constant_family_has_zero_errors(self):
        table = qualitative_convergence_study(
            lambda e: identity_field(), (0.4, 0.2, 0.1), "condition_3", BETA,
            n_radial=8, n_angular=8)
        assert all(r[1] < 1e-12 for r in table.rows)
        assert table.monotone

    def test_condition_3_jump_inside_compact_set(self):
        family = lambda e: radial_jump_field(2.0, e) if e > 0 else identity_field()
        table = qualitative_convergence_study(
            family, np.geomspace(0.4, 0.05, 4), "condition_3", BETA,
            exclusion_radius=0.5, n_radial=16, n_angular=16)
        errors = table.errors
        assert table.monotone
        assert errors[-1] < 0.5 * errors[0]
        assert all(r[2] == 0.0 for r in table.rows)  # identical off the disc

    @pytest.mark.parametrize("alpha", [1e-2, 2.0, 1e2])
    def test_errors_match_the_closed_form(self, alpha):
        # the FEM errors against the jump family's closed-form difference;
        # the 5% gate sits above the discretization error (at most 3.4%)
        family = lambda e: radial_jump_field(alpha, e) if e > 0 else identity_field()
        table = qualitative_convergence_study(
            family, np.geomspace(0.4, 0.05, 4), "condition_3", BETA, exclusion_radius=0.5)
        u0 = limit_solution(BETA)

        def closed_form(a, eps):
            return h1_seminorm_separable(jump_solution(BETA, a, eps).difference(u0))

        for eps, err, _ in table.rows:
            assert err == pytest.approx(closed_form(alpha, eps), rel=0.05)
            if alpha != 2.0:  # the 1/2 contrast is too close to 2 to tell apart
                assert err != pytest.approx(closed_form(1.0 / alpha, eps), rel=0.05)

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_error_is_linear_in_the_contrast_near_one(self, delta):
        # the error is |1 - alpha| times a smooth function of alpha, so
        # error / |1 - alpha| on either side of 1 agrees to O(delta); the
        # float 1 - alpha is exact here, and the difference of two solves
        # misses by 3.6e-5 at delta = 1e-8
        def scaled_error(alpha):
            family = lambda e: radial_jump_field(alpha, e) if e > 0 else identity_field()
            table = qualitative_convergence_study(family, (1e-3,), "condition_3", 4.0)
            return table.errors[0] / abs(1.0 - alpha)

        below, above = scaled_error(1.0 - delta), scaled_error(1.0 + delta)
        assert abs(below / above - 1.0) <= 10.0 * delta

    def test_difference_solve_stops_on_a_finite_residual(self, monkeypatch):
        # the load is O(|1 - alpha|); unscaled, ||b||^2 overflows and CG's
        # relative residual reads 0 after any first step
        alpha = 1e300
        reports = []
        solve = fem.solve_cg

        def recording(system, *args, **kwargs):
            sol = solve(system, *args, **kwargs)
            reports.append(sol.solve_report)
            return sol

        monkeypatch.setattr(fem, "solve_cg", recording)
        family = lambda e: radial_jump_field(alpha, e) if e > 0 else identity_field()
        table = qualitative_convergence_study(family, (1e-3,), "condition_3", BETA)
        assert len(reports) == 2  # u_0, then the difference
        assert all(0.0 < residual <= 1e-10 for _, residual in reports)
        exact = h1_seminorm_separable(jump_solution(BETA, alpha, 1e-3).difference(
            limit_solution(BETA)))
        assert table.errors[0] == pytest.approx(exact, rel=0.01)

    def test_grid_below_the_mesh_floor_is_refused(self, monkeypatch):
        # the domain study's floor, checked before the condition or any solve
        monkeypatch.setattr(experiments, "_fem_difference_error", None)
        family = lambda e: radial_jump_field(2.0, e) if e > 0 else identity_field()
        with pytest.raises(ResolutionViolation, match=r"eps 0\.0009 is below 0\.001, "):
            qualitative_convergence_study(family, (0.1, 9e-4), "condition_3", BETA,
                                          n_radial=10, n_angular=6)

    def test_condition_3_violated_without_compact_set(self):
        family = lambda e: radial_jump_field(2.0, 0.8) if e > 0 else identity_field()
        with pytest.raises(ConditionViolation) as err:
            qualitative_convergence_study(
                family, np.geomspace(0.4, 0.05, 4), "condition_3", BETA,
                exclusion_radius=0.5, n_radial=8, n_angular=8)
        assert err.value.point is not None

    def test_condition_4_scaled_identity(self):
        # A_eps = (1 + eps) I: the deficit (A_0 - A_eps)_+ vanishes and the
        # solutions scale as u_0 / (1 + eps), so errors are linear in eps
        family = lambda e: constant_field((1.0 + e) * np.eye(2))
        grid = np.geomspace(0.4, 0.05, 4)
        table = qualitative_convergence_study(family, grid, "condition_4", BETA,
                                              n_radial=16, n_angular=16)
        assert table.monotone
        ratios = [err / (eps / (1 + eps)) for (eps, err, _) in table.rows]
        spread = max(ratios) / min(ratios)
        assert spread < 1.01  # exact scaling u_eps = u_0/(1+eps)

    def test_condition_4_would_reject_growth(self):
        # shrinking A_eps below A_0 leaves a positive part that does not die
        family = lambda e: constant_field((1.0 / (1.0 + e)) * np.eye(2)) \
            if e > 0 else identity_field()
        grid = (0.4, 0.3, 0.2)  # the deficit stays about eps at the smallest eps
        with pytest.raises(ConditionViolation):
            qualitative_convergence_study(family, grid, "condition_4", BETA,
                                          n_radial=8, n_angular=8)

    def test_eps_grid_and_defaults(self):
        grid = DEFAULT_EPS_GRID
        assert len(grid) == 7
        assert grid[0] == pytest.approx(1e-1)
        assert grid[-1] == pytest.approx(1e-4)
        assert grid[1] / grid[0] == pytest.approx(10 ** -0.5)
        assert q_star(BETA) == pytest.approx(6.0)
