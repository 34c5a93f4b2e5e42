import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import annulus_meshes, interpolate
from ellipstab import analytic, error_norms, quadrature
from ellipstab.analytic import (
    SeparableSolution,
    SourceTerm,
    annulus_solution,
    h1_seminorm_separable,
    jump_solution,
    limit_solution,
)
from ellipstab.coefficients import identity_field, radial_jump_field
from ellipstab.error_norms import (
    DivergentNormError,
    _corner_cell_errors,
    cross_domain_gradient_error,
    h1_error_vs_analytic,
    lq_gradient_norm,
)
from ellipstab.fem import (
    FemSolution,
    _Locator,
    assemble,
    evaluate_gradient_many,
    solve_cg,
)
from ellipstab.geometry import GraphDomain, SectorDomain
from ellipstab.meshing import (
    TriMesh,
    mesh_graph_domain,
    mesh_sector,
    refine_uniform,
)

BETA = 1.5 * np.pi


class LinearExact:
    def __init__(self, gx, gy):
        self.g = np.array([gx, gy])

    def __call__(self, pts):
        return np.asarray(pts) @ self.g

    def gradient(self, pts):
        pts = np.asarray(pts)
        return np.broadcast_to(self.g, pts.shape[:-1] + (2,)).copy()


class TestH1ErrorVsAnalytic:
    def test_interpolant_of_linear_is_exact(self):
        dom = GraphDomain.from_height(lambda x: 0.8 * np.ones_like(x))
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

    @pytest.mark.parametrize("b,alpha,r_jump,expected", [
        (1.1, 1e-2, 0.1, float.fromhex("0x1.1c5e6d1395f9bp-3")),
        (1.5, 2.0, 0.2, float.fromhex("0x1.a401681d2a95bp-4")),
        (1.9, 1e2, 0.3, float.fromhex("0x1.0782967f8ca35p-3")),
    ])
    def test_refined_jump_values_are_pinned(self, b, alpha, r_jump, expected):
        # float.hex, exact; the 16 corner cells of each mesh integrated
        # exactly in r
        beta = b * np.pi
        mesh = refine_uniform(mesh_sector(SectorDomain(beta), 12, 16, grading=3.0,
                                          aligned_radii=(r_jump,)))
        sol = solve_cg(assemble(mesh, radial_jump_field(alpha, r_jump),
                                source=SourceTerm(beta)))
        err = h1_error_vs_analytic(sol, jump_solution(beta, alpha, r_jump))
        assert err.hex() == expected.hex()

    def test_graph_mesh_values_are_pinned(self):
        # acceptance criterion 7's nested graph meshes, whose corner (0, 0)
        # cells take the six-point rule like every other cell
        class Exact:
            def value(self, pts):
                return np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1] / 0.8)

            def gradient(self, pts):
                x, y = np.pi * pts[..., 0], np.pi * pts[..., 1] / 0.8
                return np.stack([np.pi * np.cos(x) * np.sin(y),
                                 (np.pi / 0.8) * np.sin(x) * np.cos(y)], axis=-1)

        exact = Exact()
        amp = np.pi**2 * (1.0 + 1.0 / 0.8**2)
        mesh = mesh_graph_domain(GraphDomain.from_height(lambda x: 0.8 * np.ones_like(x),
                                                         n_grid=3), 4, 4)
        for expected in (0.8489627612249915, 0.43716216502838834, 0.22023870488040756):
            sol = solve_cg(assemble(mesh, identity_field(),
                                    source=lambda p: amp * exact.value(p)), rel_tol=1e-12)
            assert h1_error_vs_analytic(sol, exact) == pytest.approx(expected, rel=1e-14, abs=0)
            mesh = refine_uniform(mesh)

    @staticmethod
    def counted_case():
        """A refined jump solve, whose 8 corner cells lie in the first piece,
        its exact solution, and two wrappers of that solution that record
        the size of each gradient call: one a ``SeparableSolution``, one not."""
        exact = jump_solution(BETA, 2.0, 0.2)
        calls = []

        class CountedSeparable(SeparableSolution):
            def gradient(self, pts):
                calls.append(len(pts))
                return super().gradient(pts)

        class Counted:
            def gradient(self, pts):
                calls.append(len(pts))
                return exact.gradient(pts)

        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 6, 8, grading=3.0,
                                          aligned_radii=(0.2,)))
        sol = solve_cg(assemble(mesh, radial_jump_field(2.0, 0.2), source=SourceTerm(BETA)))
        separable = CountedSeparable(exact.pieces, exact.domain)
        return sol, exact, separable, Counted(), calls

    def test_one_gradient_call_per_rule(self):
        # the six-point rule on the regular cells, with one call at all their
        # points, and the 8 corner cells integrated exactly in r without a
        # call; an exact solution that is not separable takes the six-point
        # rule on every cell, with one call at all their points
        sol, exact, separable, counted, calls = self.counted_case()
        cells = sol.mesh.num_triangles
        assert h1_error_vs_analytic(sol, separable) == h1_error_vs_analytic(sol, exact)
        assert calls == [6 * (cells - 8)]
        calls.clear()
        h1_error_vs_analytic(sol, counted)
        assert calls == [6 * cells]

    def test_one_gradient_call_per_block(self, block_points):
        # blocks of 61 cells, over the regular cells or over all of them
        block_points(366)
        sol, _, separable, counted, calls = self.counted_case()
        for exact, cells in ((separable, sol.mesh.num_triangles - 8),
                             (counted, sol.mesh.num_triangles)):
            calls.clear()
            h1_error_vs_analytic(sol, exact)
            full, rest = divmod(cells, 61)
            assert calls == [366] * full + [6 * rest]

    def test_corner_terms_without_positive_powers_diverge(self):
        # a corner term r^-k (an annulus table seen from the corner) makes
        # the H1 error infinite, as it does the H1 seminorm and every L^q
        # norm, and all three raise the one error type
        exact = annulus_solution(BETA, 0.2)
        corner = SeparableSolution(exact.pieces, SectorDomain(BETA))
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 6, 8, grading=3.0))
        sol = solve_cg(assemble(mesh, identity_field(), source=SourceTerm(BETA)))
        assert error_norms.DivergentNormError is analytic.DivergentNormError is DivergentNormError
        for norm in (lambda: h1_error_vs_analytic(sol, corner),
                     lambda: h1_seminorm_separable(corner),
                     lambda: lq_gradient_norm(corner, 2.5)):
            with pytest.raises(DivergentNormError):
                norm()

    @pytest.mark.parametrize("block", [None, 6, 7, 366, 367, 1 << 20])
    def test_refined_jump_bits_in_any_block_size(self, block, block_points, refined_jump):
        # float.hex as the unblocked rule gave it; the 50 112 regular cells
        # span 37 blocks, and the 64 corner cells are integrated exactly in r
        block_points(block)
        sol, _, exact = refined_jump
        assert h1_error_vs_analytic(sol, exact).hex() == "0x1.71c2a281cd525p-6"

    @pytest.mark.parametrize("block", [None, 6, 7, 366, 367, 1 << 20])
    def test_annulus_bits_in_any_block_size(self, block, block_points):
        # no corner cell: the exact corner integration sums an empty array
        block_points(block)
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA, r_inner=0.2), 16, 24,
                                          grading=3.0))
        sol = solve_cg(assemble(mesh, identity_field(), source=SourceTerm(BETA)))
        err = h1_error_vs_analytic(sol, annulus_solution(BETA, 0.2))
        assert err.hex() == "0x1.e9736f8f6ba1ap-5"

    def test_memory_peak(self, refined_jump):
        # 5.2 MB measured (numpy 2.4); copying the cells' corners whole
        # peaked at 7.5 MB, and evaluating each rule at all its cells at
        # once at 32.3 MB
        sol, _, exact = refined_jump
        h1_error_vs_analytic(sol, exact)
        tracemalloc.start()
        try:
            h1_error_vs_analytic(sol, exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20


def corner_cell(sol, h, side, radii=(0.8, 0.6)):
    """The corner cell (0, P, Q), apex angle h, at the first (theta from 0)
    or last (theta up to beta) angle of the sector, its far corners at
    ``radii`` times the end of the first piece of ``sol`` (at most 1): by
    default inside that piece."""
    reach = min(sol.pieces[0][0], 1.0)
    t0 = 0.0 if side == "first" else sol.domain.beta - h
    P = radii[0] * reach * np.array([np.cos(t0), np.sin(t0)])
    Q = radii[1] * reach * np.array([np.cos(t0 + h), np.sin(t0 + h)])
    return np.array([[0.0, 0.0], P, Q])


def mp_corner_error(sol, cell, g, dps=30, radial=None):
    """int over the cell of |g - grad u|^2 in mpmath: in polar coordinates
    about the apex, split in theta where the far side crosses a breakpoint
    circle and in r at each breakpoint, with the Cartesian gradient terms
    c r^(p-1) a(theta) of each piece integrated in r in closed form, or by
    ``mp.quad`` when ``radial``."""
    with mp.workdps(dps):
        k = mp.mpf(sol.angular_wavenumber)
        starts = [mp.mpf(0), *(mp.mpf(b) for b in sol.breakpoints)]
        pieces = [(start, mp.mpf(end), [(mp.mpf(c), mp.mpf(p)) for c, p in terms])
                  for start, (end, terms) in zip(starts, sol.pieces)]
        (px, py), (qx, qy) = [[mp.mpf(v) for v in pt] for pt in cell[1:]]
        gx, gy = mp.mpf(g[0]), mp.mpf(g[1])
        dx, dy = qx - px, qy - py
        # P + t (Q - P) meets the circle r = b where t^2 |D|^2 + 2 t P.D + |P|^2 = b^2
        cuts = [(px, py), (qx, qy)]
        dd, pd, pp = dx**2 + dy**2, px * dx + py * dy, px**2 + py**2
        for b in starts[1:]:
            disc = pd**2 - dd * (pp - b**2)
            if disc > 0:
                cuts += [(px + t * dx, py + t * dy)
                         for t in ((-pd - mp.sqrt(disc)) / dd, (-pd + mp.sqrt(disc)) / dd)
                         if 0 < t < 1]
        ends = sorted(mp.atan2(y, x) % (2 * mp.pi) for x, y in cuts)

        def grad_parts(t, terms):
            # grad(c r^p sin(k t)) = c r^(p-1) a, a = p sin(kt) e_r + k cos(kt) e_t
            s, c = mp.sin(k * t), mp.cos(k * t)
            return [(cf, p, p * s * mp.cos(t) - k * c * mp.sin(t),
                     p * s * mp.sin(t) + k * c * mp.cos(t)) for cf, p in terms]

        def span(lo, hi, s):
            # int r^(s-1) dr from lo to hi
            return mp.log(hi / lo) if s == 0 else (hi**s - lo**s) / s

        def in_r(t):
            R = (px * dy - py * dx) / (mp.cos(t) * dy - mp.sin(t) * dx)
            total = 0
            for start, end, terms in pieces:
                lo, hi = min(start, R), min(end, R)
                if lo == hi:
                    continue
                parts = grad_parts(t, terms)
                if radial:
                    def f(r):
                        ux = sum(cf * r ** (p - 1) * ax for cf, p, ax, _ in parts)
                        uy = sum(cf * r ** (p - 1) * ay for cf, p, _, ay in parts)
                        return ((gx - ux) ** 2 + (gy - uy) ** 2) * r
                    total += mp.quad(f, [lo, hi])
                    continue
                total += (gx**2 + gy**2) * span(lo, hi, 2)
                for ci, pi, axi, ayi in parts:
                    total -= 2 * ci * (gx * axi + gy * ayi) * span(lo, hi, pi + 1)
                    for cj, pj, axj, ayj in parts:
                        total += ci * cj * (axi * axj + ayi * ayj) * span(lo, hi, pi + pj)
            return total

        return mp.quad(in_r, ends)


class TestCornerCellsExactInR:
    G = (0.3, -1.7)

    @staticmethod
    def value(sol, cell, g):
        (px, py), (qx, qy) = cell[1:]
        area = 0.5 * abs(px * qy - py * qx)
        return _corner_cell_errors(sol, cell[None], np.array([g]), np.array([area]))[0]

    @pytest.mark.parametrize("side", ["first", "last"])
    @pytest.mark.parametrize("table", ["jump", "limit"])
    @pytest.mark.parametrize("h", [np.pi / 4, np.pi / 64])
    @pytest.mark.parametrize("b", [1.1, 1.5, 1.9])
    def test_against_mpmath(self, b, h, table, side):
        # the polar angles lie in [0, 2 pi): at beta = 1.9 pi a cell at the
        # last angle read in (-pi, pi] was 7 % off
        beta = b * np.pi
        sol = jump_solution(beta, 1e-2, 0.1) if table == "jump" else limit_solution(beta)
        cell = corner_cell(sol, h, side)
        ref = mp_corner_error(sol, cell, self.G)
        assert self.value(sol, cell, self.G) == pytest.approx(float(ref), rel=1e-13, abs=0)

    @pytest.mark.parametrize("b,alpha,side", [(1.1, 2.0, "first"), (1.5, 1e-2, "first"),
                                              (1.9, 1e2, "last")])
    def test_breakpoint_circle_inside_the_cell(self, b, alpha, side):
        # the far side beyond the jump radius, so the r-integrals split at
        # it in every direction and the theta integrands stay smooth; the
        # graded corner rule was 5.2e-4, 1.3e-4 and 6.0e-4 off
        sol = jump_solution(b * np.pi, alpha, 0.1)
        cell = corner_cell(sol, np.pi / 16, side, radii=(1.6, 1.4))
        ref = mp_corner_error(sol, cell, self.G)
        assert self.value(sol, cell, self.G) == pytest.approx(float(ref), rel=1e-13, abs=0)

    def test_mesh_corner_cells_past_the_first_piece(self):
        # jump radius 1e-3 inside the first refined ring (r = 1/432): each of
        # the 8 corner cells holds the breakpoint circle; the graded corner
        # rule was 8.7e-4 off their sum
        exact = jump_solution(BETA, 2.0, 1e-3)
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 6, 8, grading=3.0))
        sol = solve_cg(assemble(mesh, radial_jump_field(2.0, 1e-3), source=SourceTerm(BETA)))
        grads = sol.triangle_gradients()
        radii = np.hypot(*mesh.vertices.T)[mesh.triangles]
        corner = np.flatnonzero(np.min(radii, axis=1) == 0.0)
        assert corner.size == 8 and np.min(np.max(radii[corner], axis=1)) > 1e-3
        for t in corner:
            cell = mesh.vertices[np.roll(mesh.triangles[t], -np.argmin(radii[t]))]
            g = grads[t]
            ref = mp_corner_error(exact, cell, g)
            assert self.value(exact, cell, g) == pytest.approx(float(ref), rel=1e-13, abs=0)

    @pytest.mark.parametrize("b,alpha,h,side,radii", [
        (1.1, 1e-2, np.pi / 16, "first", (1.3, 0.8)),
        (1.5, 1e2, np.pi / 16, "last", (0.8, 1.3)),
        (1.9, 1e-2, np.pi / 16, "first", (1.3, 0.8)),
        (1.5, 2.0, np.pi / 4, "last", (1.05, 1.05)),
        (1.9, 1e-2, np.pi / 4, "first", (1.05, 1.05)),
    ])
    def test_breakpoint_circle_crossing_the_far_side(self, b, alpha, h, side, radii):
        # where the far side crosses the jump circle, once or (apex angle
        # pi/4) twice, the theta integrands have a kink; split there, each
        # part is smooth (one 16-point rule over the whole range was 1.5e-6
        # .. 7e-6 off, and 1.5e-5 .. 1.8e-5 over two kinks)
        sol = jump_solution(b * np.pi, alpha, 0.1)
        cell = corner_cell(sol, h, side, radii=radii)
        ref = mp_corner_error(sol, cell, self.G)
        assert self.value(sol, cell, self.G) == pytest.approx(float(ref), rel=1e-13, abs=0)

    def test_closed_form_in_r_against_a_radial_quadrature(self):
        # the reference's closed form in r against mpmath's quadrature in
        # both variables, on the cell with the steepest corner singularity
        # and on one whose far side crosses the jump circle twice
        sol = jump_solution(1.9 * np.pi, 1e-2, 0.1)
        for cell in (corner_cell(sol, np.pi / 64, "last"),
                     corner_cell(sol, np.pi / 4, "first", radii=(1.05, 1.05))):
            ref = mp_corner_error(sol, cell, self.G)
            assert float(mp_corner_error(sol, cell, self.G, dps=20, radial=True)) == (
                pytest.approx(float(ref), rel=1e-15, abs=0))

    def test_empty_corner_piece_is_the_constant_gradient(self):
        # the zero profile of a solution extended by zero into its hole
        sol = annulus_solution(BETA, 0.2).extended_by_zero()
        cell = corner_cell(sol, np.pi / 16, "first")
        (px, py), (qx, qy) = cell[1:]
        area = 0.5 * abs(px * qy - py * qx)
        assert self.value(sol, cell, self.G) == (self.G[0] ** 2 + self.G[1] ** 2) * area


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

        fem_err = _fem_annulus_error(BETA, eps, 64, 48)
        ua = annulus_solution(BETA, eps).extended_by_zero()
        semi = h1_seminorm_separable(ua.difference(limit_solution(BETA)))
        assert fem_err == pytest.approx(semi, rel=0.02)

    @pytest.mark.parametrize("refine", [False, True])
    def test_same_mesh_gradients_equal_located_ones(self, refine):
        # a copy of the sector mesh is a different object, so both solutions
        # go through point location; the result is bit-identical
        mesh0, mesh_eps = annulus_meshes(BETA, 1e-3, 24, 16)
        if refine:
            mesh0, mesh_eps = refine_uniform(mesh0), refine_uniform(mesh_eps)
        sol0, sol_eps = (solve_cg(assemble(m, identity_field(), source=SourceTerm(BETA)))
                         for m in (mesh0, mesh_eps))
        copy = TriMesh(mesh0.vertices, mesh0.triangles, mesh0.boundary_flags,
                       domain=mesh0.domain)
        same = cross_domain_gradient_error(sol_eps, sol0, quad_mesh=mesh0)
        assert same > 0.0
        assert same == cross_domain_gradient_error(sol_eps, sol0, quad_mesh=copy)

    def test_domain_study_locates_only_the_annulus_solution(self, monkeypatch):
        from ellipstab import error_norms
        from ellipstab.experiments import _fem_annulus_error

        calls = []

        def counting(sol, points):
            calls.append((sol.mesh.domain.r_inner, points.size // 2))
            return evaluate_gradient_many(sol, points)

        monkeypatch.setattr(error_norms, "evaluate_gradient_many", counting)
        for eps in (1e-3, 1e-2):
            calls.clear()
            _fem_annulus_error(BETA, eps, 24, 16)
            mesh0, _ = annulus_meshes(BETA, eps, 24, 16)
            assert calls == [(eps, 6 * mesh0.num_triangles)]

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


def grouped_case(kind, eps, refine):
    """(solution mesh, quadrature cell corners) of a grouped location case."""
    if kind == "domain":
        mesh0, mesh_eps = annulus_meshes(BETA, eps, 96, 64)
        if refine:
            mesh0, mesh_eps = refine_uniform(mesh0), refine_uniform(mesh_eps)
        return mesh_eps, mesh0.corners()
    if kind == "coarse-over-fine":
        fine = mesh_sector(SectorDomain(BETA), 96, 96, grading=3.0)
        return fine, mesh_sector(SectorDomain(BETA), 24, 24, grading=3.0).corners()
    dom = GraphDomain.from_height(lambda x: 0.6 + 0.3 * x)
    return mesh_graph_domain(dom, 20, 14), mesh_graph_domain(dom, 9, 7).corners()


class TestGroupedLocation:
    @pytest.mark.parametrize("kind, eps, refine", [
        ("domain", 1e-4, False), ("domain", 1e-2, False), ("domain", 1e-4, True),
        ("domain", 1e-2, True), ("coarse-over-fine", None, False), ("graph", None, False)])
    def test_grouped_equals_flat(self, kind, eps, refine, rng):
        mesh, corners = grouped_case(kind, eps, refine)
        groups = quadrature.tri6_points(corners)
        flat = groups.reshape(-1, 2)
        locator = _Locator(mesh)
        assert np.array_equal(locator.locate_groups(groups).ravel(),
                              locator.locate_many(flat))
        sol = FemSolution(mesh, rng.normal(size=mesh.num_vertices), (0, 0.0))
        grouped = evaluate_gradient_many(sol, groups)
        assert grouped.shape == groups.shape
        assert np.array_equal(grouped.reshape(-1, 2), evaluate_gradient_many(sol, flat))

    def test_shared_edges_and_vertices_fall_back(self):
        # each group starts at a triangle's centroid and goes on to its
        # vertices and edge midpoints, which lie in several triangles: the
        # lowest index must win, as in flat location; one group starts
        # outside the mesh and goes on to the last triangle's rule points
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 8, 10, grading=3.0))
        corners = mesh.corners()
        mids = 0.5 * (corners + np.roll(corners, -1, axis=1))
        groups = np.concatenate([corners.mean(axis=1, keepdims=True), corners, mids], axis=1)
        outside = np.concatenate([[[0.5, -0.5]], quadrature.tri6_points(corners[-1])])
        groups = np.concatenate([groups, outside[None]])
        locator = _Locator(mesh)
        found = locator.locate_groups(groups)
        assert np.array_equal(found.ravel(), locator.locate_many(groups.reshape(-1, 2)))
        assert np.array_equal(found[:-1, 0], np.arange(mesh.num_triangles))
        # the tie-break moved shared points off their group's triangle
        assert np.any(found[:-1, 1:] < found[:-1, :1])
        assert found[-1, 0] == -1 and np.all(found[-1, 1:] == mesh.num_triangles - 1)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_domain_study_searches_few_points(self, eps, monkeypatch):
        # where the meshes align a cell's other rule points stay in its first
        # point's triangle, so most rule points skip the bucket search
        from ellipstab.experiments import _fem_annulus_error

        searched = []
        locate_many = _Locator.locate_many

        def counting(self, points, tol=1e-12):
            searched.append(np.asarray(points).size // 2)
            return locate_many(self, points, tol)

        monkeypatch.setattr(_Locator, "locate_many", counting)
        _fem_annulus_error(BETA, eps, 96, 64)
        mesh0, _ = annulus_meshes(BETA, eps, 96, 64)
        assert sum(searched) <= 0.4 * 6 * mesh0.num_triangles


class TestLqGradientNorm:
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

    def test_corner_sliver_follows_the_corner_cut(self, monkeypatch):
        # the closed-form sliver starts where the radial rule stops, so a
        # shallower cut moves both together and near q* the norm stays put
        u0 = limit_solution(BETA)
        q = u0.q_star - 0.5
        reference = lq_gradient_norm(u0, q)
        monkeypatch.setattr(quadrature, "CORNER_DEPTH", 2.0**-20)
        assert lq_gradient_norm(u0, q) == pytest.approx(reference, rel=0, abs=1e-7)

    def test_annulus_norm_finite_for_large_q(self):
        # away from the corner the solution is smooth, no divergence at all
        ua = annulus_solution(BETA, 0.1)
        assert lq_gradient_norm(ua, 9.0) > 0.0

    def test_q_must_exceed_two(self):
        with pytest.raises(ValueError):
            lq_gradient_norm(limit_solution(BETA), 2.0)
