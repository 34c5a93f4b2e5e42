import mpmath as mp
import numpy as np
import pytest

from ellipstab.analytic import (
    SourceTerm,
    annulus_solution,
    h1_seminorm_separable,
    jump_solution,
    limit_solution,
)
from ellipstab.coefficients import identity_field, radial_jump_field
from ellipstab.error_norms import (
    DivergentNormError,
    cross_domain_gradient_error,
    h1_error_vs_analytic,
    lq_gradient_norm,
)
from ellipstab.fem import FemSolution, assemble, interpolate, solve_cg
from ellipstab.geometry import GraphDomain, SectorDomain
from ellipstab.meshing import mesh_graph_domain, mesh_sector

BETA = 1.5 * np.pi


class LinearExact:
    def __init__(self, gx, gy):
        self.g = np.array([gx, gy])

    def value(self, pts):
        return np.asarray(pts) @ self.g

    def gradient(self, pts):
        pts = np.asarray(pts)
        return np.broadcast_to(self.g, pts.shape[:-1] + (2,)).copy()


class TestH1ErrorVsAnalytic:
    def test_interpolant_of_linear_is_exact(self):
        dom = GraphDomain.from_height(0.0, 1.0, 0.0, 1.0,
                                      lambda x: 0.8 * np.ones_like(x))
        mesh = mesh_graph_domain(dom, 6, 6)
        exact = LinearExact(1.0, 2.0)
        sol = interpolate(exact, mesh, zero_dirichlet=False)
        assert h1_error_vs_analytic(sol, exact) < 1e-12

    def test_errors_decrease_under_refinement(self):
        u0 = limit_solution(BETA)
        errs = []
        for n in (8, 16, 32):
            mesh = mesh_sector(SectorDomain(BETA), n, n, grading=3.0)
            sol = solve_cg(assemble(mesh, identity_field(), source=SourceTerm(BETA)))
            errs.append(h1_error_vs_analytic(sol, u0))
        assert errs[2] < errs[1] < errs[0]

    def test_two_quadrature_paths_agree(self):
        # the discrete jump solve measured against the unperturbed solution
        # approaches the 1D profile-difference seminorm once the mesh error
        # is small next to the perturbation error
        alpha, eps = 2.0, 0.1
        semi = h1_seminorm_separable(jump_solution(BETA, alpha, eps)
                                     .difference(limit_solution(BETA)))
        mesh = mesh_sector(SectorDomain(BETA), 224, 192, grading=3.0,
                           aligned_radii=[eps])
        sol = solve_cg(assemble(mesh, radial_jump_field(alpha, eps),
                                source=SourceTerm(BETA)))
        fem_path = h1_error_vs_analytic(sol, limit_solution(BETA))
        assert fem_path == pytest.approx(semi, rel=0.01)


class TestCrossDomainError:
    def make_solution(self, values_fn, n=12):
        mesh = mesh_sector(SectorDomain(BETA), n, n)
        return FemSolution(mesh, values_fn(mesh.vertices), (0, 0.0))

    def test_identical_solutions(self):
        sol = self.make_solution(lambda v: v[:, 0] * v[:, 1])
        assert cross_domain_gradient_error(sol, sol, quad_mesh=sol.mesh) == 0.0

    def test_zero_second_solution_reduces_to_norm(self):
        sol = self.make_solution(lambda v: v[:, 0] + 0.5 * v[:, 1])
        zero = FemSolution(sol.mesh, np.zeros(sol.mesh.num_vertices), (0, 0.0))
        # on the solution's own mesh the quadrature of the piecewise-constant
        # gradient is exact
        val = cross_domain_gradient_error(sol, zero, quad_mesh=sol.mesh)
        g = sol.triangle_gradients()
        expect = np.sqrt(np.sum(sol.mesh.areas() * np.sum(g**2, axis=1)))
        assert val == pytest.approx(expect, rel=1e-13)

    def test_annulus_vs_sector_matches_semi_analytic(self):
        # FEM cross-domain error against the 1D extension-by-zero oracle
        eps = 0.05
        from ellipstab.experiments import _fem_annulus_error

        fem_err = _fem_annulus_error(BETA, eps, 64, 48, 3.0)
        ua = annulus_solution(BETA, eps).extended_by_zero()
        semi = h1_seminorm_separable(ua.difference(limit_solution(BETA)))
        assert fem_err == pytest.approx(semi, rel=0.02)

    def test_triangle_inequality(self, rng):
        mesh = mesh_sector(SectorDomain(BETA), 10, 10)
        sols = [FemSolution(mesh, rng.normal(size=mesh.num_vertices), (0, 0.0))
                for _ in range(3)]
        a, b, c = sols
        quad = mesh_sector(SectorDomain(BETA), 24, 24)
        dab = cross_domain_gradient_error(a, b, quad_mesh=quad)
        dac = cross_domain_gradient_error(a, c, quad_mesh=quad)
        dcb = cross_domain_gradient_error(c, b, quad_mesh=quad)
        assert dab <= dac + dcb + 1e-12

    def test_consistency_with_h1_error(self):
        # against a fine interpolant of the exact solution the cross-domain
        # metric reproduces the direct error within the interpolation band;
        # quadrature runs over the solution polygon, which the finer polygon
        # contains (comparing over the finer one would add the chord-gap band
        # where the coarse gradient is zero by convention)
        u0 = limit_solution(BETA)
        mesh = mesh_sector(SectorDomain(BETA), 24, 24, grading=3.0)
        sol = solve_cg(assemble(mesh, identity_field(), source=SourceTerm(BETA)))
        direct = h1_error_vs_analytic(sol, u0)
        fine = mesh_sector(SectorDomain(BETA), 96, 96, grading=3.0)
        interp = interpolate(u0, fine)
        crossed = cross_domain_gradient_error(sol, interp, quad_mesh=sol.mesh)
        assert crossed == pytest.approx(direct, rel=0.1)


class TestLqGradientNorm:
    def test_linear_function_closed_form(self):
        dom = GraphDomain.from_height(0.0, 1.0, 0.0, 1.0,
                                      lambda x: 0.8 * np.ones_like(x))
        mesh = mesh_graph_domain(dom, 8, 8)
        sol = FemSolution(mesh, mesh.vertices[:, 0], (0, 0.0))
        q = 3.0
        assert lq_gradient_norm(sol, q) == pytest.approx(0.8 ** (1.0 / q), rel=1e-12)

    def test_below_threshold_converges(self):
        # |grad u|^2 = a sin^2 + b cos^2 with a = w'^2, b = (k w / r)^2, so
        # ||grad u||_4^4 = (beta/8) int (3a^2 + 2ab + 3b^2) r dr
        with mp.workdps(30):
            beta = mp.mpf(BETA)
            k = mp.pi / beta

            def f(r):
                a = (k * r ** (k - 1) - 2 * r) ** 2
                b = (k * (r**k - r**2) / r) ** 2
                return (3 * a * a + 2 * a * b + 3 * b * b) * r

            q4 = beta / 8 * mp.quad(f, [0, mp.mpf("1e-6"), mp.mpf("1e-3"), 1])
        u0 = limit_solution(BETA)
        assert lq_gradient_norm(u0, 4.0) == pytest.approx(float(q4 ** 0.25), rel=1e-12)
        # nested 25-digit mpmath quadrature over (r, theta), r = t^3
        assert lq_gradient_norm(u0, 5.0) == pytest.approx(1.093520283444352, rel=1e-12)

    def test_above_threshold_diverges(self):
        u0 = limit_solution(BETA)  # q* = 6
        assert np.isfinite(lq_gradient_norm(u0, 6.0 - 1e-3))
        for q in (6.0, 6.0 + 1e-3):
            with pytest.raises(DivergentNormError):
                lq_gradient_norm(u0, q)

    def test_annulus_norm_finite_for_large_q(self):
        # away from the corner the solution is smooth, no divergence at all
        ua = annulus_solution(BETA, 0.1)
        assert lq_gradient_norm(ua, 9.0) > 0.0

    def test_q_must_exceed_two(self):
        with pytest.raises(ValueError):
            lq_gradient_norm(limit_solution(BETA), 2.0)
