import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_map
from ellipstab.analytic import SourceTerm, annulus_solution, jump_solution, limit_solution
from ellipstab.coefficients import (
    constant_field,
    identity_field,
    pullback_field,
    radial_jump_field,
)
from ellipstab.error_norms import h1_error_vs_analytic
from ellipstab.fem import (
    ConvergenceFailure,
    FemSolution,
    SparseSystem,
    _contains,
    _Locator,
    assemble,
    evaluate_gradient_many,
    galerkin_residual,
    interpolate,
    solve_cg,
)
from ellipstab.geometry import GraphDomain, SectorDomain, radial_shift_map
from ellipstab.meshing import (
    TriMesh,
    graded_radii,
    mesh_graph_domain,
    mesh_sector,
    mesh_sector_from_radii,
    refine_uniform,
)
from ellipstab.quadrature import TRI6_BARY, TRI6_WEIGHTS, tri6_points

BETA = 1.5 * np.pi
ANGLES = [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi]


def single_element_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return TriMesh(verts, np.array([[0, 1, 2]]), np.zeros(3, dtype=bool))


def solve_limit_problem(n_radial, n_angular, grading=3.0):
    mesh = mesh_sector(SectorDomain(BETA), n_radial, n_angular, grading=grading)
    system = assemble(mesh, identity_field(), source=SourceTerm(BETA))
    return system, solve_cg(system)


def contains_reference(corners, pts, tol):
    """Barycentric containment of points in one triangle, from its corners
    (3, 2): both coordinates l1, l2 and 1 - l1 - l2 are at least -tol."""
    v0 = corners[0]
    d1 = corners[1] - v0
    d2 = corners[2] - v0
    dp = pts - v0
    det = d1[0] * d2[1] - d1[1] * d2[0]
    l1 = (dp[..., 0] * d2[1] - dp[..., 1] * d2[0]) / det
    l2 = (d1[0] * dp[..., 1] - d1[1] * dp[..., 0]) / det
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)


def loop_assembly(mesh, field, weight, source):
    """Full stiffness matrix, its sparsity pattern and the load vector, by a
    plain loop over elements and rule points (the reference for ``assemble``)."""
    n = mesh.num_vertices
    K = np.zeros((n, n))
    touched = np.zeros((n, n), dtype=bool)
    b = np.zeros(n)
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        det = ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
               - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
        area = 0.5 * abs(det)
        grads = [np.array([p[(i + 1) % 3, 1] - p[(i + 2) % 3, 1],
                           p[(i + 2) % 3, 0] - p[(i + 1) % 3, 0]]) / det
                 for i in range(3)]
        pts = tri6_points(p)
        ke = np.zeros((3, 3))
        be = np.zeros(3)
        for q in range(6):
            x = pts[q:q + 1]
            a, g, f = field.eval(x)[0], weight(x)[0], source.value(x)[0]
            for i in range(3):
                be[i] += TRI6_WEIGHTS[q] * f * TRI6_BARY[q, i]
                for j in range(3):
                    ke[i, j] += TRI6_WEIGHTS[q] * g * (grads[i] @ a @ grads[j])
        ke *= area
        be *= area
        for i in range(3):
            b[tri[i]] += be[i]
            for j in range(3):
                K[tri[i], tri[j]] += ke[i, j]
                touched[tri[i], tri[j]] = True
    return K, touched, b


def graded_weight(pts):
    pts = np.asarray(pts)
    return 1.0 + pts[..., 0] ** 2 + 0.5 * pts[..., 1]


class TestAssemble:
    def test_matches_loop_reference(self):
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 4, 6, grading=3.0,
                                          aligned_radii=[0.3]))
        field = radial_jump_field(1e-2, 0.3)
        system = assemble(mesh, field, weight=graded_weight, source=SourceTerm(BETA))
        K, touched, b = loop_assembly(mesh, field, graded_weight, SourceTerm(BETA))
        free = system.free_vertices
        K_ff = K[np.ix_(free, free)]
        A = system.matrix
        assert np.max(np.abs(A.toarray() - K_ff)) <= 1e-14 * np.max(np.abs(K_ff))
        pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
        assert np.array_equal(pattern.toarray() == 1.0, touched[np.ix_(free, free)])
        assert np.array_equal(system.rhs, b[free])
        # the reference reads SourceTerm.value; assembly calls the SourceTerm
        # itself, and a plain function of position loads the same bits
        plain = assemble(mesh, field, weight=graded_weight, source=SourceTerm(BETA).value)
        assert np.array_equal(plain.rhs, system.rhs)

    def test_energy_is_the_quadratic_form(self, rng):
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 4, 6, grading=3.0,
                                          aligned_radii=[0.3]))
        field = radial_jump_field(1e-2, 0.3)
        system = assemble(mesh, field, weight=graded_weight)
        x = rng.normal(size=system.num_unknowns)
        values = np.zeros(mesh.num_vertices)
        values[system.free_vertices] = x
        energy = FemSolution(mesh, values, (0, 0.0)).energy(field, weight=graded_weight)
        assert energy == pytest.approx(x @ (system.matrix @ x), rel=1e-14)

    def test_reference_element_stiffness(self):
        # hand-integrated P1 stiffness on the unit right triangle
        system = assemble(single_element_mesh(), identity_field())
        K = system.matrix.toarray()
        expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(K, expect, atol=1e-14)

    def test_linearity_in_coefficient(self):
        mesh = mesh_sector(SectorDomain(BETA), 4, 6)
        k1 = assemble(mesh, identity_field()).matrix
        k2 = assemble(mesh, constant_field(2.0 * np.eye(2))).matrix
        assert abs(k2 - 2.0 * k1).max() < 1e-13

    def test_symmetry_exact(self):
        mesh = mesh_sector(SectorDomain(BETA), 8, 8, grading=3.0,
                           aligned_radii=[0.1])
        system = assemble(mesh, radial_jump_field(2.0, 0.1), source=SourceTerm(BETA))
        assert system.symmetry_defect() <= 1e-12

    def test_positive_definite_witness(self, rng):
        system, _ = solve_limit_problem(8, 8)
        for _ in range(100):
            v = rng.normal(size=system.num_unknowns)
            assert v @ (system.matrix @ v) > 0.0

    def test_free_vertices(self):
        mesh = mesh_sector(SectorDomain(BETA), 4, 4)
        system = assemble(mesh, identity_field())
        assert np.array_equal(system.free_vertices, np.flatnonzero(~mesh.boundary_flags))
        assert system.free_vertices.size == system.num_unknowns

    def test_read_only_coefficient_view(self):
        # a constant field returns a read-only broadcast view; assembly reads
        # it to the same bits as a writable copy
        ident = identity_field()
        assert not ident.eval(np.zeros((3, 2))).flags.writeable
        copied = dataclasses.replace(ident, eval=lambda pts: ident.eval(pts).copy())
        mesh = mesh_sector(SectorDomain(BETA), 8, 8, grading=3.0)
        for weight in (None, graded_weight):
            a = assemble(mesh, ident, weight=weight, source=SourceTerm(BETA))
            b = assemble(mesh, copied, weight=weight, source=SourceTerm(BETA))
            for attr in ("data", "indices", "indptr"):
                assert (getattr(a.matrix, attr).tobytes()
                        == getattr(b.matrix, attr).tobytes())
            assert a.rhs.tobytes() == b.rhs.tobytes()

    def test_deterministic(self):
        mesh = mesh_sector(SectorDomain(BETA), 8, 8, grading=3.0)
        s1 = assemble(mesh, identity_field(), source=SourceTerm(BETA))
        s2 = assemble(mesh, identity_field(), source=SourceTerm(BETA))
        assert np.array_equal(s1.matrix.data, s2.matrix.data)
        assert np.array_equal(s1.rhs, s2.rhs)
        x1 = solve_cg(s1).nodal_values
        x2 = solve_cg(s2).nodal_values
        assert np.array_equal(x1, x2)


@st.composite
def jump_problems(draw):
    """A sector or annulus mesh, refined 0 or 1 times, with a jump field
    whose interface is a mesh circle."""
    beta = draw(st.floats(1.05 * np.pi, 1.95 * np.pi))
    r_inner = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    r_jump = draw(st.floats(r_inner + 0.02, 0.98))
    mesh = mesh_sector(SectorDomain(beta, r_inner=r_inner), draw(st.integers(2, 6)),
                       draw(st.integers(2, 12)), grading=draw(st.floats(1.0, 4.0)),
                       aligned_radii=[r_jump])
    for _ in range(draw(st.integers(0, 1))):
        mesh = refine_uniform(mesh)
    alpha = 10.0 ** draw(st.floats(-3.0, 3.0))
    return mesh, radial_jump_field(alpha, r_jump)


class TestAssembleProperties:
    @settings(max_examples=40, deadline=None)
    @given(jump_problems())
    def test_reduced_matrix_symmetric_positive_definite(self, problem):
        mesh, field = problem
        system = assemble(mesh, field, weight=graded_weight)
        assert system.symmetry_defect() == 0
        np.linalg.cholesky(system.matrix.toarray())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(7, 3, 2), (5, 2, 3, 2)]),
           st.floats(-3.0, 3.0))
    def test_tri6_points_are_the_barycentric_sum(self, seed, shape, log_scale):
        corners = np.random.default_rng(seed).uniform(-1.0, 1.0, shape) * 10.0**log_scale
        pts = tri6_points(corners)
        expect = sum(TRI6_BARY[:, i, None] * corners[..., i, None, :] for i in range(3))
        assert pts.shape == shape[:-2] + (6, 2)
        ulp = np.spacing(np.max(np.abs(corners), axis=-2))[..., None, :]
        assert np.all(np.abs(pts - expect) <= 2.0 * ulp)


class TestSolveCg:
    def test_zero_rhs(self):
        mesh = mesh_sector(SectorDomain(BETA), 4, 4)
        system = assemble(mesh, identity_field())
        sol = solve_cg(system)
        assert sol.solve_report == (0, 0.0)
        assert np.all(sol.nodal_values == 0.0)

    def test_small_tridiagonal(self):
        K = sp.csr_matrix(np.array([[2.0, -1.0, 0.0],
                                    [-1.0, 2.0, -1.0],
                                    [0.0, -1.0, 2.0]]))
        system = SparseSystem(K, np.ones(3), np.arange(3), mesh=None)
        sol = solve_cg(system, rel_tol=1e-14)
        assert np.allclose(sol.nodal_values, [1.5, 2.0, 1.5], atol=1e-12)

    def test_galerkin_residual_bound(self):
        system, sol = solve_limit_problem(12, 12)
        assert galerkin_residual(system, sol) <= 1e-10

    def test_dirichlet_values_exactly_zero(self):
        system, sol = solve_limit_problem(8, 8)
        assert np.all(sol.nodal_values[sol.mesh.boundary_flags] == 0.0)

    def test_max_iter_failure_carries_history(self, monkeypatch):
        monkeypatch.setattr("ellipstab.fem.BAND_ENTRIES", 0)  # Jacobi
        system, _ = solve_limit_problem(8, 8)
        with pytest.raises(ConvergenceFailure) as err:
            solve_cg(system, rel_tol=1e-14, max_iter=3)
        assert len(err.value.residual_history) == 3

    def test_max_iter_failure_carries_history_banded(self):
        # each iteration with the exact factor cuts the residual by about
        # rounding (1e-15), so three cannot reach 1e-300
        system, _ = solve_limit_problem(8, 8)
        with pytest.raises(ConvergenceFailure) as err:
            solve_cg(system, rel_tol=1e-300, max_iter=3)
        assert len(err.value.residual_history) == 3

    def test_ring_numbered_sector_solves_in_one_banded_step(self, monkeypatch):
        # the domain study's mesh: 96 x 64, grading 3, circles at eps and 2 eps
        sector = SectorDomain(BETA)
        radii = graded_radii(sector, 96, 3.0, aligned_radii=(1e-3, 2e-3))
        mesh = mesh_sector_from_radii(sector, radii, 64)
        system = assemble(mesh, identity_field(), source=SourceTerm(BETA))
        banded = solve_cg(system)
        iterations, residual = banded.solve_report
        assert iterations <= 2
        assert residual <= 1e-12
        monkeypatch.setattr("ellipstab.fem.BAND_ENTRIES", 0)
        jacobi = solve_cg(system)
        assert jacobi.solve_report[0] > 100
        scale = np.max(np.abs(jacobi.nodal_values))
        assert np.max(np.abs(banded.nodal_values - jacobi.nodal_values)) <= 1e-9 * scale

    def test_refined_mesh_keeps_jacobi_bit_for_bit(self, monkeypatch):
        # uniform refinement numbers midpoints after every old vertex, so
        # the band spans most of the matrix and Jacobi stays
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 24, 64, grading=3.0,
                                          aligned_radii=[0.2]))
        system = assemble(mesh, radial_jump_field(3.0, 0.2), source=SourceTerm(BETA))
        sol = solve_cg(system)
        monkeypatch.setattr("ellipstab.fem.BAND_ENTRIES", 0)
        forced = solve_cg(system)
        assert sol.solve_report == forced.solve_report
        assert sol.solve_report[0] > 100
        assert np.array_equal(sol.nodal_values, forced.nodal_values)

    def test_unsorted_indices_take_the_full_band(self):
        # each row's columns stored in descending order
        data = np.array([-1.0, 2.0, -1.0, 2.0, -1.0, 2.0, -1.0])
        indices = np.array([1, 0, 2, 1, 0, 2, 1])
        K = sp.csr_matrix((data, indices, np.array([0, 2, 5, 7])), shape=(3, 3))
        assert not K.has_sorted_indices
        system = SparseSystem(K, np.ones(3), np.arange(3), mesh=None)
        sol = solve_cg(system, rel_tol=1e-14)
        assert sol.solve_report[0] == 1
        assert np.allclose(sol.nodal_values, [1.5, 2.0, 1.5], atol=1e-12)

    def test_indefinite_band_is_convergence_failure(self):
        # positive diagonal, negative eigenvalue: the factorization fails
        K = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        system = SparseSystem(K, np.ones(2), np.arange(2), mesh=None)
        with pytest.raises(ConvergenceFailure, match="Cholesky") as err:
            solve_cg(system)
        assert err.value.residual_history == ()

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_iteration_cap_below_one_is_rejected(self, max_iter):
        system, _ = solve_limit_problem(4, 4)
        with pytest.raises(ValueError, match="max_iter"):
            solve_cg(system, max_iter=max_iter)

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf, 0.0, -1e-10])
    def test_tolerance_not_finite_and_positive_is_rejected(self, rel_tol):
        system, _ = solve_limit_problem(4, 4)
        with pytest.raises(ValueError, match="rel_tol"):
            solve_cg(system, rel_tol=rel_tol)

    def test_discrete_maximum_principle(self):
        # nonnegative source on the jump problem gives a nonnegative solution
        mesh = mesh_sector(SectorDomain(BETA), 12, 12, grading=3.0,
                           aligned_radii=[0.1])
        system = assemble(mesh, radial_jump_field(2.0, 0.1), source=SourceTerm(BETA))
        sol = solve_cg(system)
        assert np.min(sol.nodal_values) >= -1e-12

    def test_converges_to_analytic_solution(self):
        from ellipstab.error_norms import h1_error_vs_analytic

        u0 = limit_solution(BETA)
        errs = []
        for n in (8, 16, 32):
            _, sol = solve_limit_problem(n, n)
            errs.append(h1_error_vs_analytic(sol, u0))
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]


class TestEvaluateGradient:
    def test_reproduces_linear_functions(self):
        mesh = mesh_sector(SectorDomain(BETA), 6, 6)
        vals = mesh.vertices[:, 0] + 2.0 * mesh.vertices[:, 1]
        sol = FemSolution(mesh, vals, (0, 0.0))
        g = evaluate_gradient_many(sol, np.array([-0.3, -0.4]))
        assert np.allclose(g, [[1.0, 2.0]], atol=1e-12)
        # stay below the chord sagitta band near the curved arc, where points
        # are legitimately outside the inscribed polygon
        pts = 0.9 * SectorDomain(BETA).sample_interior(200)
        g_many = evaluate_gradient_many(sol, pts)
        assert np.max(np.abs(g_many - [1.0, 2.0])) < 1e-11

    def test_outside_returns_zero(self):
        mesh = mesh_sector(SectorDomain(BETA), 6, 6)
        sol = FemSolution(mesh, np.ones(mesh.num_vertices), (0, 0.0))
        # far off, and in the missing quadrant of the 3pi/2 sector
        out = np.array([[2.5, 2.5], [0.5, -0.5]])
        assert np.array_equal(evaluate_gradient_many(sol, out), np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["graded", "annular", "refined", "graph"])
    def test_locator_agrees_with_brute_force(self, kind):
        if kind == "graph":
            dom = GraphDomain.from_height(lambda x: 0.6 + 0.3 * x)
            mesh = mesh_graph_domain(dom, 9, 7)
            outside = [[-0.1, 0.5], [0.5, 0.9], [1.2, 0.2]]
        else:
            dom = SectorDomain(BETA, r_inner=0.05 if kind == "annular" else 0.0)
            mesh = mesh_sector(dom, 8, 10, grading=3.0)
            if kind == "refined":
                mesh = refine_uniform(mesh)
            # the missing quadrant, past the arc, far off
            outside = [[0.5, -0.5], [1.01, 1e-3], [2.0, 2.0]]
            if kind == "annular":
                outside.append([0.03, 0.01])  # inside the hole
        ends = mesh.vertices[mesh.edges()]
        pts = np.concatenate([tri6_points(mesh.corners()).reshape(-1, 2), mesh.vertices,
                              0.5 * (ends[:, 0] + ends[:, 1]), outside])
        # reference: the lowest-index containing triangle over all triangles
        expected = -np.ones(pts.shape[0], dtype=np.int64)
        for t, corners in enumerate(mesh.corners()):
            expected[(expected < 0) & contains_reference(corners, pts, 1e-12)] = t
        found = _Locator(mesh).locate_many(pts)
        assert np.array_equal(found, expected)
        # every rule point lies inside its own triangle
        assert np.array_equal(found[:6 * mesh.num_triangles],
                              np.repeat(np.arange(mesh.num_triangles), 6))
        assert np.all(found[-len(outside):] == -1)
        # a single point alone gives the same answer
        assert np.array_equal(_Locator(mesh).locate_many(pts[-1]), expected[-1:])

    def test_graded_corner_buckets_stay_small(self, monkeypatch):
        # locating the coarse rule points on the refined graded mesh tests few
        # (point, candidate) pairs per point, although a quarter of the
        # triangles crowd into a corner region of width 1/64
        coarse = mesh_sector(SectorDomain(BETA), 24, 32, grading=3.0)
        mesh = refine_uniform(coarse)
        pts = tri6_points(coarse.corners()).reshape(-1, 2)
        tested = []

        def counting(frames, p, tol):
            tested.append(frames.shape[0])
            return _contains(frames, p, tol)

        monkeypatch.setattr("ellipstab.fem._contains", counting)
        assert np.all(_Locator(mesh).locate_many(pts) >= 0)
        assert sum(tested) / pts.shape[0] < 30

    def test_bucket_locator_chunks_agree_with_one_batch(self, monkeypatch):
        # graded corner buckets hold many candidates; vertices and edge
        # midpoints exercise the lowest-index tie-break across chunk seams
        coarse = mesh_sector(SectorDomain(BETA), 12, 16, grading=3.0)
        mesh = refine_uniform(coarse)
        ends = mesh.vertices[mesh.edges()]
        pts = np.concatenate([tri6_points(coarse.corners()).reshape(-1, 2),
                              mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1]),
                              [[2.0, 2.0], [0.5, -0.5]]])
        whole = _Locator(mesh).locate_many(pts)
        assert whole.max() < mesh.num_triangles and whole[-1] == whole[-2] == -1
        monkeypatch.setattr("ellipstab.fem.LOCATE_PAIRS", 7)
        assert np.array_equal(_Locator(mesh).locate_many(pts), whole)

    def test_refined_mesh_locator(self):
        # a refined sector mesh goes through the same bucket locator
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 6, 8))
        vals = 3.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        sol = FemSolution(mesh, vals, (0, 0.0))
        pts = 0.95 * SectorDomain(BETA, r_inner=0.05 / 0.95).sample_interior(200)
        # keep clear of chord slivers near the outer arc
        g = evaluate_gradient_many(sol, pts)
        assert np.max(np.abs(g - [3.0, -1.0])) < 1e-11

    def test_near_analytic_gradient(self):
        u0 = limit_solution(BETA)
        mesh = mesh_sector(SectorDomain(BETA), 32, 32, grading=3.0)
        sol = interpolate(u0, mesh)
        pt = 0.5 * np.array([np.cos(BETA / 2), np.sin(BETA / 2)])
        g = evaluate_gradient_many(sol, pt)[0]
        exact = u0.gradient(pt[None])[0]
        assert np.linalg.norm(g - exact) < 0.05


class TestPullbackEquivalence:
    def test_affine_map_exact_correspondence(self):
        # solve on the image mesh and on its pulled-back copy: the discrete
        # problems correspond exactly under an affine map, so free values and
        # energies agree to solver tolerance
        M = np.array([[1.2, 0.3], [0.1, 0.9]])
        amap = affine_map(M, (0.2, -0.1))
        dom = GraphDomain.from_height(lambda x: 0.8 * np.ones_like(x))
        mesh_src = mesh_graph_domain(dom, 8, 8)
        mesh_tgt = TriMesh(amap.forward(mesh_src.vertices), mesh_src.triangles,
                           mesh_src.boundary_flags)
        field = constant_field(np.array([[2.0, 0.4], [0.4, 1.5]]))

        def f(pts):
            pts = np.asarray(pts)
            return np.sin(pts[..., 0]) + pts[..., 1]

        sys_tgt = assemble(mesh_tgt, field, source=f)
        sol_tgt = solve_cg(sys_tgt, rel_tol=1e-12)

        a = pullback_field(field, amap)
        g = amap.density
        sys_src = assemble(mesh_src, a, weight=g,
                           source=lambda pts: f(amap.forward(pts)), source_weight=g)
        sol_src = solve_cg(sys_src, rel_tol=1e-12)

        assert np.max(np.abs(sol_src.nodal_values - sol_tgt.nodal_values)) < 1e-10
        e_tgt = sol_tgt.energy(field)
        e_src = sol_src.energy(a, weight=g)
        assert e_src == pytest.approx(e_tgt, abs=1e-10)

    def test_radial_map_energy_band(self):
        # direct solve on the annulus vs the pulled-back weighted solve on
        # the sector: the discrete spaces do not correspond exactly (the map
        # is only piecewise linear in r), so the energies agree within an
        # O(h) band at fixed refinement
        eps = 0.1
        beta = BETA
        rmap = radial_shift_map(eps, beta)
        src = SourceTerm(beta)
        mesh_tgt = mesh_sector(SectorDomain(beta, r_inner=eps), 48, 48,
                               grading=1.0, aligned_radii=[2 * eps])
        sol_tgt = solve_cg(assemble(mesh_tgt, identity_field(), source=src))
        e_tgt = sol_tgt.energy(identity_field())

        mesh_src = mesh_sector(SectorDomain(beta), 48, 48, grading=2.0,
                               aligned_radii=[2 * eps])
        a = pullback_field(identity_field(), rmap)
        sol_src = solve_cg(assemble(
            mesh_src, a, weight=rmap.density,
            source=lambda pts: src.value(rmap.forward(pts)),
            source_weight=rmap.density))
        e_src = sol_src.energy(a, weight=rmap.density)
        assert e_src == pytest.approx(e_tgt, rel=0.05)


class TestEnergyMonotonicity:
    def test_nested_refinement_on_graph_domain(self):
        # Galerkin best approximation in nested spaces: the energy-norm error
        # against a manufactured solution cannot grow under refinement
        dom = GraphDomain.from_height(lambda x: 0.8 * np.ones_like(x), n_grid=3)

        class Exact:
            def value(self, pts):
                pts = np.asarray(pts)
                return (np.sin(np.pi * pts[..., 0])
                        * np.sin(np.pi * pts[..., 1] / 0.8))

            def gradient(self, pts):
                pts = np.asarray(pts)
                gx = (np.pi * np.cos(np.pi * pts[..., 0])
                      * np.sin(np.pi * pts[..., 1] / 0.8))
                gy = (np.pi / 0.8 * np.sin(np.pi * pts[..., 0])
                      * np.cos(np.pi * pts[..., 1] / 0.8))
                return np.stack([gx, gy], axis=-1)

        exact = Exact()
        amp = np.pi**2 * (1.0 + 1.0 / 0.8**2)

        def f(pts):
            return amp * exact.value(pts)

        mesh = mesh_graph_domain(dom, 4, 4)
        errors = []
        for _ in range(3):
            sol = solve_cg(assemble(mesh, identity_field(), source=f), rel_tol=1e-12)
            errors.append(h1_error_vs_analytic(sol, exact))
            mesh = refine_uniform(mesh)
        assert errors[1] <= errors[0] * (1.0 + 1e-10)
        assert errors[2] <= errors[1] * (1.0 + 1e-10)


class TestP1Order:
    """Measured H1 error orders of P1 on graded (mu = 3) sector meshes for the
    jump, limit and annulus families.

    The exact solution is in H^(1+k-) with k = pi/beta < 1, and grading
    mu = 3 > 1/k restores the optimal order h^1 (Babuska, Kellogg and
    Pitkaranta, Numer. Math. 33, 1979).
    """

    @staticmethod
    def refined_order(mesh, field, exact, beta):
        """Order from the H1 errors of the meshes refined once and twice."""
        errors = []
        for _ in range(2):
            mesh = refine_uniform(mesh)
            assert mesh.validate()
            sol = solve_cg(assemble(mesh, field, source=SourceTerm(beta)))
            errors.append(h1_error_vs_analytic(sol, exact))
        return np.log2(errors[0] / errors[1])

    def order(self, beta, alpha, r_jump, n_radial, n_angular):
        mesh = mesh_sector(SectorDomain(beta), n_radial, n_angular, grading=3.0,
                           aligned_radii=(r_jump,))
        return self.refined_order(mesh, radial_jump_field(alpha, r_jump),
                                  jump_solution(beta, alpha, r_jump), beta)

    @pytest.mark.parametrize("beta", ANGLES)
    def test_limit_family(self, beta):
        mesh = mesh_sector(SectorDomain(beta), 12, 16, grading=3.0)
        order = self.refined_order(mesh, identity_field(), limit_solution(beta), beta)
        assert 0.9 <= order <= 1.1

    @pytest.mark.parametrize("beta", ANGLES)
    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_annulus_family(self, beta, eps):
        mesh = mesh_sector(SectorDomain(beta, r_inner=eps), 12, 16, grading=3.0)
        order = self.refined_order(mesh, identity_field(), annulus_solution(beta, eps),
                                   beta)
        assert 0.9 <= order <= 1.1

    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1e2, 1e4])
    def test_jump_family(self, alpha):
        assert 0.9 <= self.order(BETA, alpha, 0.3, 12, 16) <= 1.1

    def test_thin_ring_beside_interface(self):
        # the graded node circle (18/24)^3 lies 4.5e-4 outside the interface,
        # a ring thinner than the sagitta of the interface chords
        r_jump = (18 / 24) ** 3 - 4.5e-4
        assert 0.9 <= self.order(1.1 * np.pi, 1e-2, r_jump, 24, 16) <= 1.1


class TestExports:
    def test_solution_export_format(self):
        system, sol = solve_limit_problem(4, 4)
        from ellipstab.fem import export_solution_text

        lines = export_solution_text(sol).strip().split("\n")
        assert len(lines) == sol.mesh.num_vertices
        assert lines[0].split()[0] == "sol"

    def test_solution_golden_text(self):
        from ellipstab.fem import export_solution_text

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]), np.zeros(4, bool))
        sol = FemSolution(mesh, np.array([1 / 3, -0.0, 1e-300, -2.5e17]), (0, 0.0))
        assert export_solution_text(sol) == (
            "sol 0 0.33333333333333331\n"
            "sol 1 -0\n"
            "sol 2 1e-300\n"
            "sol 3 -2.5e+17\n"
        )
