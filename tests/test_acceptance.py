"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; runtime budgets are
asserted against wall-clock time.
"""

import time

import numpy as np
import pytest

import ellipstab as es
from conftest import affine_map, smooth_bump_gradient
from ellipstab.coefficients import pullback_energy_gap, sym_eigvals
from ellipstab.error_norms import DivergentNormError
from ellipstab.fem import assemble, galerkin_residual, solve_cg
from ellipstab.meshing import mesh_graph_domain, mesh_sector, refine_uniform

BETA = 1.5 * np.pi


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} "
              f"({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s:.0f}s budget")
        return False


def test_criterion_1_analytic_verification():
    with _Criterion(1, "analytic verification", 1.0):
        src = es.SourceTerm(BETA)
        alpha, eps = 2.0, 0.1

        rep = es.residual_check(es.limit_solution(BETA), src, es.identity_field())
        assert rep.max_residual < 1e-4

        uj = es.jump_solution(BETA, alpha, eps)
        rep = es.residual_check(uj, src, es.radial_jump_field(alpha, eps))
        assert rep.max_residual < 1e-4
        below = np.nextafter(eps, 0.0)
        w, dw = uj.radial_profile, uj.radial_derivative
        cont = abs(float(w(np.array([below]))[0] - w(np.array([eps]))[0]))
        flux = abs(float(alpha * dw(np.array([below]))[0] - dw(np.array([eps]))[0]))
        assert cont < 1e-10
        assert flux < 1e-10

        ua = es.annulus_solution(BETA, 0.05)
        rep = es.residual_check(ua, src, es.identity_field())
        assert rep.max_residual < 1e-4
        assert abs(float(ua.radial_profile(np.array([0.05]))[0])) < 1e-10


def test_criterion_2_coefficient_sharpness_rate():
    with _Criterion(2, "coefficient perturbation sharpness", 5.0):
        study = es.coefficient_rate_study(BETA, 2.0,
                                          eps_grid=np.geomspace(1e-1, 1e-4, 7),
                                          q=4.0)
        assert study.rate.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
        assert study.lower_bound_constant == pytest.approx(1.0 / 27.0, rel=1e-12)
        for ratio in study.lower_bound_ratios[-2:]:
            assert ratio >= (1.0 / 27.0) * 0.95


def test_criterion_3_domain_sharpness_rate():
    with _Criterion(3, "domain perturbation sharpness", 5.0):
        study = es.domain_rate_study(BETA, q=4.0)
        assert study.rate.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
        for q in (3.0, 4.0, 5.0):
            check = es.domain_rate_study(BETA, q=q).bound
            assert check.verdict == "bounded"
        flipped = es.domain_rate_study(BETA, q=5.0,
                                       rhs_eps_exponent=2.0 / 3.0 + 0.1)
        assert flipped.bound.verdict == "violated"


def test_criterion_4_fem_end_to_end():
    with _Criterion(4, "FEM-mode domain study", 120.0):
        n_radial, n_angular = 64, 48
        grid = tuple(np.geomspace(1e-1, 10 ** -2.5, 4))
        study = es.domain_rate_study(BETA, grid, q=5.0, mode="fem",
                                     n_radial=n_radial, n_angular=n_angular)
        assert study.flagged == ()  # fem and semi-analytic agree within 10%
        assert max(study.agreement) <= 0.10
        assert 0.60 <= study.rate.exponent <= 0.73
        # the largest mesh in the sweep stays within the unknown budget
        from ellipstab.meshing import graded_radii, mesh_sector_from_radii

        eps = grid[-1]
        sector = es.SectorDomain(BETA)
        radii = graded_radii(sector, n_radial, 3.0, aligned_radii=(eps, 2 * eps))
        mesh = mesh_sector_from_radii(sector, radii, n_angular)
        system = assemble(mesh, es.identity_field(), source=es.SourceTerm(BETA))
        assert system.num_unknowns <= 50_000


def test_criterion_5_pullback_correctness():
    with _Criterion(5, "pull-back energy identity and ellipticity", 10.0):
        # affine map on a box, C-infinity bump test function
        M = np.array([[1.3, 0.2], [0.0, 0.8]])
        amap = affine_map(M, (0.05, -0.02))
        corners = amap.forward(np.array([[0, 0], [1, 0], [0, 0.8], [1, 0.8]], float))
        target = ((corners[:, 0].min(), corners[:, 0].max()),
                  (corners[:, 1].min(), corners[:, 1].max()))
        grad_v = smooth_bump_gradient(amap.forward(np.array([[0.5, 0.4]]))[0], 0.25)
        gap, direct, _ = pullback_energy_gap(es.identity_field(), amap, grad_v,
                                             ((0.0, 1.0), (0.0, 0.8)), target,
                                             n_panels=48)
        assert direct > 0.1
        assert gap <= 1e-8

        # radial shift map, sector onto annular sector
        eps = 0.1
        rmap = es.radial_shift_map(eps, BETA)
        center = 0.35 * np.array([np.cos(BETA / 2), np.sin(BETA / 2)])
        grad_v2 = smooth_bump_gradient(center, 0.2)
        gap2, direct2, _ = pullback_energy_gap(
            es.identity_field(), rmap, grad_v2,
            es.SectorDomain(BETA), es.SectorDomain(BETA, r_inner=eps),
            radial_breaks_source=(2 * eps,), radial_breaks_target=(2 * eps,),
        )
        assert direct2 > 0.1
        assert gap2 <= 1e-4

        # pulled-back ellipticity bounds hold at 1e4 samples of the
        # certified region
        field = es.radial_jump_field(2.0, 0.4)
        pb = es.pullback_field(field, rmap)
        pts = es.SectorDomain(BETA, r_inner=rmap.cert_radius).sample_interior(10_000)
        lam = sym_eigvals(pb.eval(pts))
        assert np.all(lam[:, 0] >= pb.ellipticity.lower - 1e-12)
        assert np.all(lam[:, 1] <= pb.ellipticity.upper + 1e-12)


def test_criterion_6_integrability_threshold():
    with _Criterion(6, "gradient integrability threshold", 5.0):
        # independent mpmath values of ||grad u0||_Lq at beta = 3 pi / 2
        # (q* = 6): the angular reduction for q = 4, a nested 25-digit
        # quadrature for q = 5
        u0 = es.limit_solution(BETA)
        assert es.lq_gradient_norm(u0, 4.0) == pytest.approx(1.009178906685518312,
                                                             rel=1e-12)
        assert es.lq_gradient_norm(u0, 5.0) == pytest.approx(1.093520283444352,
                                                             rel=1e-12)
        with pytest.raises(DivergentNormError):
            es.lq_gradient_norm(u0, 7.0)


def test_criterion_7_property_suites(rng):
    with _Criterion(7, "property suites", 60.0):
        # mesh validity across the parameter grid, including one refinement
        for beta in (1.2 * np.pi, BETA, 1.9 * np.pi):
            for r_inner in (0.0, 0.05):
                for grading in (1.0, 3.0):
                    dom = es.SectorDomain(beta, r_inner=r_inner)
                    mesh = mesh_sector(dom, 6, 16, grading=grading,
                                       aligned_radii=(0.3,))
                    assert mesh.validate()
                    assert refine_uniform(mesh).validate()
        for height in (lambda x: 0.8 * np.ones_like(x), lambda x: 0.8 + 0.1 * x):
            dom = es.GraphDomain.from_height(height)
            mesh = mesh_graph_domain(dom, 6, 5)
            assert mesh.validate()
            assert refine_uniform(mesh).validate()

        # Galerkin residual at solver tolerance
        mesh = mesh_sector(es.SectorDomain(BETA), 16, 16, grading=3.0)
        system = assemble(mesh, es.identity_field(), source=es.SourceTerm(BETA))
        sol = solve_cg(system, rel_tol=1e-10)
        assert galerkin_residual(system, sol) <= 1e-10

        # energy-error monotonicity under nested refinement on a graph domain
        from ellipstab.error_norms import h1_error_vs_analytic

        gdom = es.GraphDomain.from_height(lambda x: 0.8 * np.ones_like(x), n_grid=3)

        class Exact:
            def value(self, pts):
                pts = np.asarray(pts)
                return np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1] / 0.8)

            def gradient(self, pts):
                pts = np.asarray(pts)
                gx = np.pi * np.cos(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1] / 0.8)
                gy = (np.pi / 0.8) * np.sin(np.pi * pts[..., 0]) * np.cos(np.pi * pts[..., 1] / 0.8)
                return np.stack([gx, gy], axis=-1)

        exact = Exact()
        amp = np.pi**2 * (1.0 + 1.0 / 0.8**2)
        gmesh = mesh_graph_domain(gdom, 4, 4)
        errors = []
        for _ in range(3):
            gsol = solve_cg(assemble(gmesh, es.identity_field(),
                                     source=lambda p: amp * exact.value(p)),
                            rel_tol=1e-12)
            errors.append(h1_error_vs_analytic(gsol, exact))
            gmesh = refine_uniform(gmesh)
        assert errors[1] <= errors[0] * (1 + 1e-10)
        assert errors[2] <= errors[1] * (1 + 1e-10)

        # log-log fit exactness on synthetic power laws
        eps = np.geomspace(1e-1, 1e-5, 9)
        fit = es.fit_loglog([(e, 3.0 * e**2) for e in eps], window=(0, 8))
        assert abs(fit.exponent - 2.0) < 1e-10
        assert abs(fit.constant - 3.0) < 1e-10

        # positive part: idempotent and PSD on 1e4 random symmetric matrices
        mats = rng.normal(size=(10_000, 2, 2))
        mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
        pos = es.matrix_positive_part(mats)
        assert np.min(sym_eigvals(pos)) >= -1e-12
        assert np.max(np.abs(es.matrix_positive_part(pos) - pos)) < 1e-12


def test_criterion_8_composition_inequality():
    with _Criterion(8, "composition inequality series", 30.0):
        check = es.composition_inequality_check(BETA, np.geomspace(1e-1, 1e-3, 5), 5.0)
        assert check.verdict == "bounded"
        # the constant is reported, not assumed to be 1
        assert 0.0 < check.ratio_max < 1.0
        assert check.hypothesis_params[0] == 5.0
