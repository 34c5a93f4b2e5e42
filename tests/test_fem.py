import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (affine_map, edge_matrix, export_values, galerkin_residual,
                      identity_failing_at, interpolate, symmetry_defect, to_csr, weighted)
from ellipstab.analytic import SourceTerm, annulus_solution, jump_solution, limit_solution
from ellipstab.coefficients import (
    constant_field,
    identity_field,
    pullback_field,
    radial_jump_field,
)
from ellipstab.error_norms import h1_error_vs_analytic
from ellipstab.coefficients import FieldEvaluationError
from ellipstab.fem import (
    ConvergenceFailure,
    FemSolution,
    _contains,
    _element_integrals,
    _ldl,
    _ldl_solve,
    _Locator,
    _separable_preconditioner,
    _sine_transform,
    assemble,
    evaluate_gradient_many,
    solve_cg,
)
from ellipstab.geometry import GraphDomain, SectorDomain, polar_angle, radial_shift_map
from ellipstab.meshing import (
    TriMesh,
    graded_radii,
    mesh_graph_domain,
    mesh_sector,
    mesh_sector_from_radii,
    refine_uniform,
)
from ellipstab.quadrature import BLOCK_POINTS, TRI6_BARY, TRI6_WEIGHTS, tri6_points

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


def loop_assembly(mesh, field, source):
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
            a, f = field.eval(x)[0], source.value(x)[0]
            for i in range(3):
                be[i] += TRI6_WEIGHTS[q] * f * TRI6_BARY[q, i]
                for j in range(3):
                    ke[i, j] += TRI6_WEIGHTS[q] * (grads[i] @ a @ grads[j])
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


def source_density(pts):
    pts = np.asarray(pts)
    return 2.0 + np.sin(3.0 * pts[..., 0]) * pts[..., 1]


def times_density(source):
    """The load f sw of a source f and ``source_density`` sw."""
    return lambda pts: source(pts) * source_density(pts)


def assembly_case(name):
    if name == "graded_sector":
        mesh = mesh_sector(SectorDomain(BETA), 24, 16, grading=3.0,
                           aligned_radii=[0.01, 0.02])
        return assemble(mesh, identity_field(), source=SourceTerm(BETA))
    if name == "jump_weighted":
        mesh = mesh_sector(SectorDomain(BETA), 12, 16, grading=3.0, aligned_radii=[0.3])
        return assemble(mesh, weighted(radial_jump_field(1e-2, 0.3), graded_weight),
                        source=times_density(SourceTerm(BETA)))
    if name == "refined_graph":
        dom = GraphDomain.from_height(lambda x: 0.6 + 0.3 * x**2, n_grid=9)
        mesh = refine_uniform(mesh_graph_domain(dom, 6, 5))
        field = constant_field(np.array([[2.0, 0.5], [0.5, 1.0]]))
        return assemble(mesh, field, source=lambda p: 1.0 + p[..., 0] * p[..., 1])
    if name == "refined_jump":
        # the fem_refine workload's finest system, 50 176 triangles
        mesh = mesh_sector(SectorDomain(BETA), 24, 64, grading=3.0, aligned_radii=(0.3,))
        for _ in range(2):
            mesh = refine_uniform(mesh)
        return assemble(mesh, radial_jump_field(2.0, 0.3), source=SourceTerm(BETA))
    if name == "domain_sector":
        # a fem_domain sector system: node circles at eps and 2 eps
        beta, eps = 1.9 * np.pi, 1e-3
        mesh = mesh_sector(SectorDomain(beta), 96, 64, grading=3.0,
                           aligned_radii=(eps, 2.0 * eps))
        return assemble(mesh, identity_field(), source=SourceTerm(beta))
    assert name == "weighted_graph"
    dom = GraphDomain.from_height(lambda x: 0.6 + 0.3 * x**2, n_grid=9)
    return assemble(mesh_graph_domain(dom, 40, 24),
                    weighted(radial_jump_field(0.1, 0.4), graded_weight),
                    source=times_density(lambda p: 1.0 + p[..., 0] * p[..., 1]))


def summed_in_element_order(mesh, field):
    """The reduced matrix's diagonal and edge values by a plain loop that
    adds each element's terms, formed as ``assemble`` forms them, to its
    vertices and edges in element order, each sum from 0.0; edges
    ascending in (lo, hi) in the unknowns' numbering."""
    abar, _ = _element_integrals(mesh, field)
    g = mesh.p1_gradients()
    ke = np.einsum("mix,mxy,mjy->mij", g, abar, g, optimize=True)
    diag = [0.0] * mesh.num_vertices
    coupled = {}
    for m, tri in enumerate(mesh.triangles.tolist()):
        for i in range(3):
            diag[tri[i]] += float(ke[m, i, i])
        for i, j in ((1, 2), (2, 0), (0, 1)):
            key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
            term = float(0.5 * (ke[m, i, j] + ke[m, j, i]))
            coupled[key] = coupled.get(key, 0.0) + term
    free = ~mesh.boundary_flags
    unknown = np.cumsum(free) - 1
    pairs = sorted((unknown[a], unknown[b], v) for (a, b), v in coupled.items()
                   if free[a] and free[b])
    return np.array(diag)[free], np.array([v for _, _, v in pairs])


def contract_case(name):
    """Mesh and field of a summation-contract check."""
    if name == "graded_sector":
        mesh = mesh_sector(SectorDomain(BETA), 24, 16, grading=3.0, aligned_radii=[0.01, 0.02])
        return mesh, identity_field()
    if name == "refined_jump_sector":
        mesh = mesh_sector(SectorDomain(BETA), 12, 16, grading=3.0, aligned_radii=[0.3])
        return refine_uniform(refine_uniform(mesh)), radial_jump_field(2.0, 0.3)
    assert name == "weighted_graph"
    dom = GraphDomain.from_height(lambda x: 0.6 + 0.3 * x**2, n_grid=9)
    return mesh_graph_domain(dom, 40, 24), weighted(radial_jump_field(0.1, 0.4), graded_weight)


# SHA-256 of the assembled arrays' bytes (x86-64, numpy 2.4), as the
# edge-list assembly writes them: each diagonal and edge entry summed over
# its elements in element order; a weighted case assembles the field g a
# (``weighted``) with the load f sw
ASSEMBLY_DIGESTS = {
    "graded_sector": {
        "diag": "fbffd2ffd2764e46644353120868bb722db8465ca078e1d04bcdbe16424ca078",
        "lo": "886d0fe9b241b9635d279d09a5ab7fce828efcbb3dba70a5218aad85e5b50b81",
        "hi": "4e9c5fa4b0c25a9e816855c45045a6d97c78eb1b5fb51b4da088cc5e64c6cac1",
        "values": "0bbd50c096b961a37bff8b6cecb246e196f65a06199d38e626880600b724c755",
        "rhs": "35a008ea8437521996f484e39988a3d7d7d4df6713edc3a66751c531de19b3e9",
    },
    "jump_weighted": {
        "diag": "8238e6d09b3c0e9a2d860aa7f32114689a7334d5138054eccdd02d6ee3d7d5ed",
        "lo": "44582242ef93dcfb5810bbd9de9670b138b17738f4da23bbe1a21bf4a9785e5d",
        "hi": "c1705f808b7aae061261ece21ef91272d76286d5a4fb293e3206aebe08c59ec7",
        "values": "703ae9210c7c85098251e79efc90ec360fd5bbdd22e6da358e877a2fc4c77f98",
        "rhs": "aaebfbcf3d75b11ad8f14fe43d5b6eb43cea620af439e4dcd333593761778a2b",
    },
    "refined_graph": {
        "diag": "f9a001e9d18f5b7525fd94f119c795dd651f5f1441ba8f9be4fcdb3e396ced0a",
        "lo": "c682efa81a5a8a06a547d4868bfbaef4b50e44cf98905bc6ec481d069e159096",
        "hi": "988aacf0881e2bbedce3656ec429338f4dabecef7ef7c530899e27c186043678",
        "values": "d658e5f49244207ba4927e4be632f8075433f2fc928854a177445f4f4d6b258a",
        "rhs": "45b13c0b260e5300c0dce3d6556924e3ec692f5211026cd69c0cc16979ce9d2a",
    },
    "refined_jump": {
        "diag": "6c5ee34b6d3c5d2620515bc4e6582bad09217f1c70867cc08eb21c4c5ba87e73",
        "lo": "cba12cf5f714bfdd156cafe5a52026abd2d0eea31f03e534d3ef1a2ab9be3f19",
        "hi": "c02ae2034312bd164377c8c01c77a67d418df63e4302f9e6b9140234754b173a",
        "values": "dc66db007b7df6cb45be39a58a960857aff01bff1880218a830d33e824c73e8d",
        "rhs": "3265a3b6be45aa6150380e1fec6a4f1befaef1bc44645309ee0eac7788b56ec1",
    },
    "domain_sector": {
        "diag": "80f03960db54ee002c796eb083b6f39028723117e2731414237f15c1f61c6b88",
        "lo": "0b44f9c6f69a6547f963ec5e7489c125664b450a0a91724840111f302c311547",
        "hi": "0e42761b00f4b3af85842aeddc7c496ffaba66b42708c597981a0397b0b1201d",
        "values": "51f2f5a899636c3badf388500ee00e244ef250d8f0d27ebd430cdc668ee59925",
        "rhs": "696e6dec630ced6d555a095ae51e9aade212e401e5027434aae3f468f7beca77",
    },
    "weighted_graph": {
        "diag": "1ff1be7fc19a1ef3191e52475ec86cd1b3259080acdcaf5739522a759867e59b",
        "lo": "1395133e72238ed9c75c6694e00dd4de3ede9257b0bcaf169f06908c7c4c9efc",
        "hi": "3fca3fdd350fb6d4557d9b3920fcce36452cb914f015b84e4f5a26c9eed0a60e",
        "values": "1799febe13723bc3409e9a22a69bac18b4b318fb8522270c3f7f2877ae1257e4",
        "rhs": "62fce32aae670157b97dca155045b5a3c9e58f51d0e398abdf964eac7d29427d",
    },
}
BLOCKED_CASES = ["graded_sector", "jump_weighted", "refined_graph"]


def system_arrays(system):
    m = system.matrix
    return {"diag": m.diag, "lo": m.lo, "hi": m.hi, "values": m.values, "rhs": system.rhs}


class TestAssemble:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_DIGESTS))
    def test_pinned_bits(self, name):
        arrays = system_arrays(assembly_case(name))
        digests = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in arrays.items()}
        assert digests == ASSEMBLY_DIGESTS[name]
        assert {k: v.dtype for k, v in arrays.items()} == {
            "diag": np.float64, "lo": np.int64, "hi": np.int64, "values": np.float64,
            "rhs": np.float64}

    @pytest.mark.parametrize("block", [6, 7, 366, 367, 1 << 20])
    @pytest.mark.parametrize("name", BLOCKED_CASES)
    def test_pinned_bits_in_any_block_size(self, name, block, block_points):
        block_points(block)
        arrays = system_arrays(assembly_case(name))
        digests = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in arrays.items()}
        assert digests == ASSEMBLY_DIGESTS[name]

    @pytest.mark.parametrize("name", ["graded_sector", "refined_jump_sector", "weighted_graph"])
    def test_entries_are_summed_in_element_order(self, name):
        mesh, field = contract_case(name)
        K = assemble(mesh, field).matrix
        diag, values = summed_in_element_order(mesh, field)
        assert K.diag.tobytes() == diag.tobytes()
        assert K.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", ["graded_sector", "weighted_graph"])
    def test_product_sums_each_row_in_edge_order(self, name, rng):
        K = assemble(*contract_case(name)).matrix
        x = rng.normal(size=K.diag.size)
        upper = [0.0] * x.size
        lower = [0.0] * x.size
        for lo, hi, v in zip(K.lo.tolist(), K.hi.tolist(), K.values.tolist()):
            upper[lo] += v * float(x[hi])
            lower[hi] += v * float(x[lo])
        expect = [(float(d * xi) + u) + w for d, xi, u, w in zip(K.diag, x, upper, lower)]
        assert (K @ x).tobytes() == np.array(expect).tobytes()

    def test_block_is_the_principal_submatrix(self, rng):
        K = assemble(*contract_case("weighted_graph")).matrix
        keep = rng.permutation(K.diag.size)[:K.diag.size // 2]
        block = K.block(keep)
        assert np.all(block.lo < block.hi)
        assert np.array_equal(to_csr(block).toarray(), to_csr(K)[keep][:, keep].toarray())

    def test_field_error_stops_assembly_at_its_block(self):
        # 3 800 triangles, three blocks; the bad rule point is in the last,
        # and its error reaches the caller as it was raised
        mesh = mesh_sector(SectorDomain(BETA), 48, 40, grading=3.0)
        per_block = BLOCK_POINTS // TRI6_WEIGHTS.size
        elem = mesh.num_triangles - 2
        assert elem >= 2 * per_block
        bad = tri6_points(mesh.corners())[elem, 4]
        calls = []
        with pytest.raises(FieldEvaluationError, match="bad point"):
            assemble(mesh, identity_failing_at(bad, calls))
        last = 6 * (mesh.num_triangles % per_block)
        assert calls == [6 * per_block] * (elem // per_block) + [last]
        sol = FemSolution(mesh, np.zeros(mesh.num_vertices), (0, 0.0))
        with pytest.raises(FieldEvaluationError, match="bad point"):
            sol.energy(identity_failing_at(bad))

    def test_memory_peak(self, refined_jump):
        # 10.7 MB measured (numpy 2.4); with scipy's COO -> CSR matrix
        # 14.9 MB, with full-size symmetrised copies and int64 COO indices
        # too 23.7 MB, and evaluating all rule points at once 31.0 MB
        sol, field, _ = refined_jump
        source = SourceTerm(1.5 * np.pi)
        assemble(sol.mesh, field, source=source)
        tracemalloc.start()
        try:
            assemble(sol.mesh, field, source=source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2**20

    def test_matches_loop_reference(self):
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 4, 6, grading=3.0,
                                          aligned_radii=[0.3]))
        field = weighted(radial_jump_field(1e-2, 0.3), graded_weight)
        system = assemble(mesh, field, source=SourceTerm(BETA))
        K, touched, b = loop_assembly(mesh, field, SourceTerm(BETA))
        free = system.free_vertices
        K_ff = K[np.ix_(free, free)]
        A = to_csr(system.matrix)
        assert np.max(np.abs(A.toarray() - K_ff)) <= 1e-14 * np.max(np.abs(K_ff))
        pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
        assert np.array_equal(pattern.toarray() == 1.0, touched[np.ix_(free, free)])
        assert np.array_equal(system.rhs, b[free])
        # the reference reads SourceTerm.value; assembly calls the SourceTerm
        # itself, and a plain function of position loads the same bits
        plain = assemble(mesh, field, source=SourceTerm(BETA).value)
        assert np.array_equal(plain.rhs, system.rhs)

    def test_energy_is_the_quadratic_form(self, rng):
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 4, 6, grading=3.0,
                                          aligned_radii=[0.3]))
        field = weighted(radial_jump_field(1e-2, 0.3), graded_weight)
        system = assemble(mesh, field)
        x = rng.normal(size=system.num_unknowns)
        values = np.zeros(mesh.num_vertices)
        values[system.free_vertices] = x
        energy = FemSolution(mesh, values, (0, 0.0)).energy(field)
        assert energy == pytest.approx(x @ (system.matrix @ x), rel=1e-14)

    @pytest.mark.parametrize("block", [None, 6, 7, 366, 367, 1 << 20])
    def test_energy_pinned_bits_in_any_block_size(self, block, block_points):
        # float.hex as the unblocked rule gave it; 3 136 triangles, 2.3 blocks
        block_points(block)
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 24, 16, grading=3.0,
                                          aligned_radii=[0.3]))
        field = weighted(radial_jump_field(1e-2, 0.3), graded_weight)
        sol = solve_cg(assemble(mesh, field, source=SourceTerm(BETA)))
        assert sol.energy(field).hex() == "0x1.bacf61ef4f6dep+0"

    def test_reference_element_stiffness(self):
        # hand-integrated P1 stiffness on the unit right triangle
        system = assemble(single_element_mesh(), identity_field())
        K = to_csr(system.matrix).toarray()
        expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(K, expect, atol=1e-14)

    def test_linearity_in_coefficient(self):
        mesh = mesh_sector(SectorDomain(BETA), 4, 6)
        k1 = to_csr(assemble(mesh, identity_field()).matrix)
        k2 = to_csr(assemble(mesh, constant_field(2.0 * np.eye(2))).matrix)
        assert abs(k2 - 2.0 * k1).max() < 1e-13

    def test_symmetry_exact(self):
        mesh = mesh_sector(SectorDomain(BETA), 8, 8, grading=3.0,
                           aligned_radii=[0.1])
        system = assemble(mesh, radial_jump_field(2.0, 0.1), source=SourceTerm(BETA))
        assert symmetry_defect(system) <= 1e-12

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
        a = assemble(mesh, ident, source=SourceTerm(BETA))
        b = assemble(mesh, copied, source=SourceTerm(BETA))
        for k, v in system_arrays(a).items():
            assert v.tobytes() == system_arrays(b)[k].tobytes(), k

    def test_deterministic(self):
        mesh = mesh_sector(SectorDomain(BETA), 8, 8, grading=3.0)
        s1 = assemble(mesh, identity_field(), source=SourceTerm(BETA))
        s2 = assemble(mesh, identity_field(), source=SourceTerm(BETA))
        for k, v in system_arrays(s1).items():
            assert np.array_equal(v, system_arrays(s2)[k]), k
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
        system = assemble(mesh, weighted(field, graded_weight))
        assert symmetry_defect(system) == 0
        np.linalg.cholesky(to_csr(system.matrix).toarray())

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


def force_jacobi(monkeypatch):
    monkeypatch.setattr("ellipstab.fem._separable_preconditioner", lambda K, xy: None)


class TestSolveCg:
    def test_zero_rhs(self):
        mesh = mesh_sector(SectorDomain(BETA), 4, 4)
        system = assemble(mesh, identity_field())
        sol = solve_cg(system)
        assert sol.solve_report == (0, 0.0)
        assert np.all(sol.nodal_values == 0.0)

    def test_small_tridiagonal(self):
        # the three interior vertices of a 4 x 2 grid of unit squares, each
        # cut by the same diagonal: the five-point stencil, tridiagonal with
        # 4 on the diagonal and -1 beside it; on no polar grid, so Jacobi
        x, y = np.meshgrid(np.arange(5.0), np.arange(3.0), indexing="ij")
        cells = [(3 * i + j, 3 * i + j + 3, 3 * i + j + 4, 3 * i + j + 1)
                 for i in range(4) for j in range(2)]
        mesh = TriMesh(np.column_stack([x.ravel(), y.ravel()]),
                       [t for a, b, c, d in cells for t in ((a, b, c), (a, c, d))],
                       (x.ravel() % 4 == 0) | (y.ravel() % 2 == 0))
        system = dataclasses.replace(assemble(mesh, identity_field()), rhs=np.ones(3))
        K = to_csr(system.matrix).toarray()
        assert np.allclose(K, [[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]],
                           rtol=0.0, atol=1e-14)
        sol = solve_cg(system, rel_tol=1e-14)
        assert np.allclose(sol.nodal_values[system.free_vertices], [5 / 14, 3 / 7, 5 / 14],
                           atol=1e-12)

    def test_galerkin_residual_bound(self):
        system, sol = solve_limit_problem(12, 12)
        assert galerkin_residual(system, sol) <= 1e-10

    def test_dirichlet_values_exactly_zero(self):
        system, sol = solve_limit_problem(8, 8)
        assert np.all(sol.nodal_values[sol.mesh.boundary_flags] == 0.0)

    def test_max_iter_failure_carries_history(self, monkeypatch):
        force_jacobi(monkeypatch)
        system, _ = solve_limit_problem(8, 8)
        with pytest.raises(ConvergenceFailure) as err:
            solve_cg(system, rel_tol=1e-14, max_iter=3)
        assert len(err.value.residual_history) == 3

    def test_max_iter_failure_carries_history_separable(self):
        # on an unrefined sector the separable preconditioner is K's inverse
        # up to rounding, so each iteration cuts the residual by about
        # rounding, and three cannot reach 1e-300
        system, _ = solve_limit_problem(8, 8)
        with pytest.raises(ConvergenceFailure) as err:
            solve_cg(system, rel_tol=1e-300, max_iter=3)
        assert len(err.value.residual_history) == 3

    def test_non_finite_residual_stops_at_once(self):
        # NaN never passes rel <= rel_tol: the first non-finite residual
        # ends the solve instead of running all max_iter iterations
        system, _ = solve_limit_problem(8, 8)
        rhs = system.rhs.copy()
        rhs[3] = np.nan
        with pytest.raises(ConvergenceFailure, match="not finite") as err:
            solve_cg(dataclasses.replace(system, rhs=rhs))
        assert len(err.value.residual_history) == 1
        assert np.isnan(err.value.residual_history[0])

    def test_ring_numbered_sector_solves_in_one_separable_step(self, monkeypatch):
        # the domain study's mesh: 96 x 64, grading 3, circles at eps and 2 eps
        sector = SectorDomain(BETA)
        radii = graded_radii(sector, 96, 3.0, aligned_radii=(1e-3, 2e-3))
        mesh = mesh_sector_from_radii(sector, radii, 64)
        system = assemble(mesh, identity_field(), source=SourceTerm(BETA))
        separable = solve_cg(system)
        iterations, residual = separable.solve_report
        assert iterations == 1
        assert residual <= 1e-12
        force_jacobi(monkeypatch)
        jacobi = solve_cg(system)
        assert jacobi.solve_report[0] > 100
        scale = np.max(np.abs(jacobi.nodal_values))
        assert np.max(np.abs(separable.nodal_values - jacobi.nodal_values)) <= 1e-9 * scale

    def test_refined_sector_takes_the_separable_path(self, monkeypatch):
        # uniform refinement numbers midpoints after every old vertex, so
        # the unknowns are not in ring order; the vertices stay on rings,
        # which the sweep labels by radius and angle: the corner's coarser
        # rings as tridiagonal blocks, the rest as the tensor grid
        mesh = refine_uniform(mesh_sector(SectorDomain(BETA), 24, 64, grading=3.0,
                                          aligned_radii=[0.2]))
        system = assemble(mesh, radial_jump_field(3.0, 0.2), source=SourceTerm(BETA))
        sol = solve_cg(system)
        assert sol.solve_report[0] <= 10
        force_jacobi(monkeypatch)
        forced = solve_cg(system)
        assert forced.solve_report[0] > 100
        scale = np.max(np.abs(forced.nodal_values))
        assert np.max(np.abs(sol.nodal_values - forced.nodal_values)) <= 1e-9 * scale

    def test_graph_domain_takes_jacobi(self):
        # height 0.85, identity field, unit source: the vertices lie on no
        # polar grid, so there are no rings to sweep and CG takes Jacobi;
        # 166 iterations measured
        dom = GraphDomain.from_height(lambda x: 0.85 + 0.0 * x, n_grid=2)
        system = assemble(mesh_graph_domain(dom, 64, 64), identity_field(),
                          source=lambda p: np.ones(p.shape[:-1]))
        direct = np.linalg.solve(to_csr(system.matrix).toarray(), system.rhs)
        sol = solve_cg(system)
        assert sol.solve_report[0] <= 200
        x = sol.nodal_values[system.free_vertices]
        assert np.max(np.abs(x - direct)) <= 1e-9 * np.max(np.abs(direct))

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


@pytest.fixture(scope="module")
def tensor_meshes():
    """A graded 24 x 64 sector refined twice, whose three innermost rings keep
    fewer angles (63 + 127 + 191 unknowns), and a graded annulus refined
    twice, whose rings all have one angle grid; both align r = 0.2.  "deep"
    is a graded 16 x 16 sector refined four times, whose corner keeps 15
    rings of 15, 31, ..., 239 unknowns, 1 905 in all."""
    sector = mesh_sector(SectorDomain(BETA), 24, 64, grading=3.0, aligned_radii=[0.2])
    annulus = mesh_sector(SectorDomain(BETA, r_inner=0.05), 16, 32, grading=3.0,
                          aligned_radii=[0.2])
    deep = mesh_sector(SectorDomain(BETA), 16, 16, grading=3.0)
    for _ in range(2):
        sector, annulus = refine_uniform(sector), refine_uniform(annulus)
    for _ in range(4):
        deep = refine_uniform(deep)
    return {"sector": sector, "annulus": annulus, "deep": deep}


def separable_case(mesh, field=None):
    system = assemble(mesh, field or identity_field(), source=SourceTerm(BETA))
    return system, mesh.vertices[system.free_vertices]


class TestSeparablePreconditioner:
    @pytest.mark.parametrize("alpha", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("name", ["sector", "annulus"])
    def test_agrees_with_a_direct_solve(self, tensor_meshes, name, alpha):
        system, xy = separable_case(tensor_meshes[name], radial_jump_field(alpha, 0.2))
        K = system.matrix
        assert _separable_preconditioner(K, xy) is not None
        sol = solve_cg(system)
        assert sol.solve_report[0] <= 10
        exact = spsolve(to_csr(K).tocsc(), system.rhs)
        x = sol.nodal_values[system.free_vertices]
        assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_anisotropic_field_keeps_the_diagonal_neighbours(self, tensor_meshes):
        # a constant anisotropic field couples each cell's diagonal
        # neighbours, which M keeps, symmetrised in angle: 20 iterations
        # measured, 434 without them
        field = constant_field(np.array([[2.0, 0.5], [0.5, 1.0]]))
        system, _ = separable_case(tensor_meshes["annulus"], field)
        sol = solve_cg(system)
        assert sol.solve_report[0] <= 40
        exact = spsolve(to_csr(system.matrix).tocsc(), system.rhs)
        x = sol.nodal_values[system.free_vertices]
        assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_refined_graph_domain_takes_jacobi_bit_for_bit(self, monkeypatch):
        dom = GraphDomain.from_height(lambda x: 0.6 + 0.3 * x**2, n_grid=9)
        mesh = refine_uniform(mesh_graph_domain(dom, 24, 20))
        system = assemble(mesh, identity_field(), source=lambda p: 1.0 + p[..., 0] * p[..., 1])
        assert _separable_preconditioner(system.matrix,
                                         mesh.vertices[system.free_vertices]) is None
        sol = solve_cg(system)
        force_jacobi(monkeypatch)
        forced = solve_cg(system)
        assert sol.solve_report == forced.solve_report
        assert np.array_equal(sol.nodal_values, forced.nodal_values)

    def test_non_positive_mode_pivot_falls_back(self, tensor_meshes):
        system, xy = separable_case(tensor_meshes["annulus"])
        K = system.matrix
        assert _separable_preconditioner(K, xy) is not None
        # the same pattern and a positive diagonal, but indefinite
        shifted = dataclasses.replace(K, diag=0.5 * K.diag)
        assert np.all(shifted.diag > 0.0)
        assert _separable_preconditioner(shifted, xy) is None

    def test_coupling_beyond_neighbours_falls_back(self, tensor_meshes):
        system, xy = separable_case(tensor_meshes["annulus"])
        # two unknowns of the outermost ring, two angles apart
        r = np.hypot(xy[:, 0], xy[:, 1])
        outer = np.flatnonzero(r > r.max() * (1.0 - 1e-9))
        i, _, j = outer[np.argsort(np.arctan2(xy[outer, 1], xy[outer, 0]))[:3]]
        n = system.num_unknowns
        far = sp.csr_matrix(([-1e-3, -1e-3], ([i, j], [j, i])), shape=(n, n))
        assert _separable_preconditioner(edge_matrix(to_csr(system.matrix) + far), xy) is None

    def test_coupling_across_two_corner_rings_falls_back(self, tensor_meshes):
        # rings 0 and 2 lie in one block, the even corner rings, where K may
        # couple only angular neighbours of one ring: the coupling does not
        # pass as one between blocks
        system, xy = separable_case(tensor_meshes["sector"])
        by_r = np.argsort(np.hypot(xy[:, 0], xy[:, 1]))
        i, j = by_r[0], by_r[63 + 127]
        n = system.num_unknowns
        far = sp.csr_matrix(([-1e-3, -1e-3], ([i, j], [j, i])), shape=(n, n))
        assert _separable_preconditioner(system.matrix, xy) is not None
        assert _separable_preconditioner(edge_matrix(to_csr(system.matrix) + far), xy) is None

    def test_non_positive_ring_pivot_falls_back(self, tensor_meshes):
        # positive diagonal, negative eigenvalue: the pivots are 1 and -3
        assert _ldl(np.array([1.0, 1.0]), np.array([2.0])) is None
        # the second ring's first unknown (in angle order) so light that
        # the next pivot of its block is negative; the diagonal stays positive
        system, xy = separable_case(tensor_meshes["sector"])
        K = system.matrix
        ring = np.argsort(np.hypot(xy[:, 0], xy[:, 1]))[63:63 + 127]
        light = ring[np.argmin(polar_angle(xy[ring]))]
        diag = K.diag.copy()
        diag[light] *= 1e-12
        assert _separable_preconditioner(K, xy) is not None
        assert _separable_preconditioner(dataclasses.replace(K, diag=diag), xy) is None

    def test_indefinite_inner_block_falls_back(self, tensor_meshes):
        # the tensor rings keep their couplings, so their mode pivots stay
        # positive; only the diagonal of the three inner rings is lowered
        system, xy = separable_case(tensor_meshes["sector"])
        K = system.matrix
        inner = np.argsort(np.hypot(xy[:, 0], xy[:, 1]))[:63 + 127 + 191]
        lowered = np.zeros(K.diag.size)
        lowered[inner] = 0.5 * K.diag[inner]
        shifted = dataclasses.replace(K, diag=K.diag - lowered)
        block = to_csr(shifted.block(inner)).toarray()
        assert np.all(np.diag(block) > 0.0)
        assert np.linalg.eigvalsh(block)[0] < 0.0
        assert _separable_preconditioner(K, xy) is not None
        assert _separable_preconditioner(shifted, xy) is None

    def test_deep_refinement_takes_the_separable_path(self, tensor_meshes):
        # the 15 corner rings form two tridiagonal blocks, the even rings and
        # the odd ones, swept forward and back around the tensor grid's
        # solve; 18 iterations measured, where Jacobi took 977
        system, xy = separable_case(tensor_meshes["deep"])
        assert _separable_preconditioner(system.matrix, xy) is not None
        assert solve_cg(system).solve_report[0] <= 20

    @pytest.mark.parametrize("name", ["sector", "deep"])
    def test_preconditioner_is_symmetric(self, tensor_meshes, name, rng):
        # <M^-1 a, b> = <a, M^-1 b> to rounding: the forward and backward
        # sweeps over the corner blocks, the tensor grid solved once between
        # them
        system, xy = separable_case(tensor_meshes[name], radial_jump_field(1e2, 0.2))
        precondition = _separable_preconditioner(system.matrix, xy)
        a, b = rng.normal(size=(2, system.num_unknowns))
        left, right = precondition(a) @ b, a @ precondition(b)
        assert left == pytest.approx(right, rel=1e-13, abs=0.0)

    def test_unrefined_mesh_has_no_ring_block(self, tensor_meshes, monkeypatch):
        # one factor, of the tensor grid's modes (rings, angles), and none of
        # the corner rings (1-D), which a refined sector adds once at any depth
        factored = []

        def recording(diag, off):
            factored.append(diag.ndim)
            return _ldl(diag, off)

        monkeypatch.setattr("ellipstab.fem._ldl", recording)
        for mesh, dims in ((mesh_sector(SectorDomain(BETA), 24, 64, grading=3.0), [2]),
                           (refine_uniform(mesh_sector(SectorDomain(BETA), 6, 8)), [2, 1]),
                           (tensor_meshes["deep"], [2, 1])):
            factored.clear()
            system, xy = separable_case(mesh)
            assert _separable_preconditioner(system.matrix, xy) is not None
            assert factored == dims


@pytest.mark.parametrize("shape", [(1,), (2,), (9,), (9, 4), (5, 3, 2)])
def test_ldl_solves_tridiagonal_systems(shape, rng):
    # diagonally dominant, so every pivot is positive; along axis 0, each
    # trailing index one system
    n = shape[0]
    off = rng.uniform(-1.0, 1.0, size=(n - 1,) + shape[1:])
    diag = 2.5 + rng.uniform(size=shape)
    f = rng.normal(size=shape)
    x = _ldl_solve(_ldl(diag, off), f.copy())
    systems = int(np.prod(shape[1:]))
    flat = [a.reshape(a.shape[0], systems) for a in (diag, off, f, x)]
    for j in range(systems):
        d, o, rhs, got = (a[:, j] for a in flat)
        exact = np.linalg.solve(np.diag(d) + np.diag(o, 1) + np.diag(o, -1), rhs)
        assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [1, 2, 63, 255])
def test_sine_transform_is_the_orthonormal_sine_matrix(n, rng):
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) * np.pi / (n + 1))
    x = rng.normal(size=(3, n))
    reference = x @ S
    assert np.max(np.abs(_sine_transform(x) - reference)) <= 1e-13 * np.max(np.abs(reference))


def domain_meshes(eps):
    """fem_domain's meshes at beta = 1.5 pi: the 96 x 64 sector mesh and
    the annulus mesh of its rings at r >= eps, circles at eps and 2 eps."""
    radii = graded_radii(SectorDomain(BETA), 96, 3.0, aligned_radii=(eps, 2.0 * eps))
    mesh0 = mesh_sector_from_radii(SectorDomain(BETA), radii, 64)
    mesh_eps = mesh_sector_from_radii(SectorDomain(BETA, r_inner=eps), radii[radii >= eps], 64)
    return mesh0, mesh_eps


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

    def test_memory_peak(self):
        # fem_domain's beta = 1.5 pi, eps = 1e-3 point: the annulus mesh
        # (11 264 triangles) queried at the sector mesh's grouped rule
        # points.  5.11 MB measured (numpy 2.4, 2^20 bytes to the MB), with
        # sqrt(M) buckets per axis and runs of groups guessed (3.97 MB with
        # the guesses tested in blocks of quadrature.BLOCK_POINTS points,
        # left out as no faster end to end); 6.59 MB with 2 sqrt(M) buckets
        # per axis and every group's first point located, 6.65 MB with the
        # int32 cells merge-sorted and the gradients scattered into a zero
        # array by mask, 13.9 MB with int64 pair arrays sorted by
        # np.lexsort, the pair cells kept and 2^17 pairs per chunk
        mesh0, mesh_eps = domain_meshes(1e-3)
        sol = FemSolution(mesh_eps, np.ones(mesh_eps.num_vertices), (0, 0.0))
        pts = tri6_points(mesh0.corners())
        evaluate_gradient_many(sol, pts)
        tracemalloc.start()
        try:
            evaluate_gradient_many(sol, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    @pytest.mark.parametrize("refine,radix_passes", [(0, 1), (2, 2)])
    def test_pairs_in_stable_cell_order(self, refine, radix_passes):
        # fem_domain's beta = 1.5 pi, eps = 1e-3 annulus mesh has 11 236
        # buckets, sorted in one 16-bit radix pass; refined twice, 179 776,
        # sorted by the low and then the high 16 bits (refined once, 44 944
        # take one pass).  Either way the pairs must be in the order of a
        # stable sort by cell
        mesh = domain_meshes(1e-3)[1]
        for _ in range(refine):
            mesh = refine_uniform(mesh)
        loc = _Locator(mesh)
        n_total = loc.ptr.size - 1
        assert (n_total > 2**16) == (radix_passes == 2)
        # the reference pairs: one per bucket of each triangle's box, cell
        # by divmod of its offset within the triangle
        corners = mesh.corners()
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        i0, i1 = loc._cell_idx(lo[:, 0], 0), loc._cell_idx(hi[:, 0], 0)
        j0, j1 = loc._cell_idx(lo[:, 1], 1), loc._cell_idx(hi[:, 1], 1)
        nj = j1 - j0 + 1
        cnt = (i1 - i0 + 1) * nj
        tris = np.repeat(np.arange(mesh.num_triangles), cnt)
        di, dj = np.divmod(np.arange(tris.size) - np.repeat(np.cumsum(cnt) - cnt, cnt),
                           nj[tris])
        cells = (i0[tris] + di) * loc.n_y + j0[tris] + dj
        assert np.array_equal(loc.pair_tris, tris[np.argsort(cells, kind="stable")])
        assert np.array_equal(loc.ptr, np.concatenate(
            [[0], np.cumsum(np.bincount(cells, minlength=n_total))]))

    def test_outside_points_read_zero_bits(self):
        # -1 reads an appended zero row; the bytes equal those of a zero
        # array with the inside points' gradients scattered in
        mesh = mesh_sector(SectorDomain(BETA, r_inner=0.05), 8, 10, grading=3.0)
        rng = np.random.default_rng(7)
        sol = FemSolution(mesh, rng.standard_normal(mesh.num_vertices), (0, 0.0))
        # rule points of a larger sector: some in the hole, the missing
        # quadrant and past the arc
        groups = tri6_points(1.1 * mesh_sector(SectorDomain(1.7 * np.pi), 6, 8).corners())
        loc = _Locator(mesh)
        for pts in (groups, groups.reshape(-1, 2)):
            got = evaluate_gradient_many(sol, pts)
            idx = loc.locate_groups(pts) if pts.ndim == 3 else loc.locate_many(pts)
            assert np.any(idx < 0) and np.any(idx >= 0)
            expected = np.zeros(idx.shape + (2,))
            inside = idx >= 0
            expected[inside] = sol.triangle_gradients()[idx[inside]]
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

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

        a = weighted(pullback_field(field, amap), amap.density)
        sys_src = assemble(mesh_src, a,
                           source=lambda pts: f(amap.forward(pts)) * amap.density(pts))
        sol_src = solve_cg(sys_src, rel_tol=1e-12)

        assert np.max(np.abs(sol_src.nodal_values - sol_tgt.nodal_values)) < 1e-10
        e_tgt = sol_tgt.energy(field)
        e_src = sol_src.energy(a)
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
        a = weighted(pullback_field(identity_field(), rmap), rmap.density)
        sol_src = solve_cg(assemble(
            mesh_src, a, source=lambda pts: src.value(rmap.forward(pts)) * rmap.density(pts)))
        e_src = sol_src.energy(a)
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

    def test_solution_equals_per_line_formatting(self):
        from ellipstab.fem import export_solution_text

        _, sol = solve_limit_problem(6, 8)
        values = sol.nodal_values.copy()
        # negative, both zeros and subnormal values among the solved ones
        values[:6] = [-1.5, 0.0, -0.0, 5e-324, -2.2e-310, -1e17]
        sol = FemSolution(sol.mesh, values, sol.solve_report)
        # the per-line f-string formatting that export_solution_text replaced
        expected = "".join([f"sol {i} {v:.17g}\n"
                            for i, v in enumerate(sol.nodal_values.tolist())])
        assert export_solution_text(sol) == expected

    # 2 * 7 - 1, 2 * 7 and 2 * 7 + 1 rows, in chunks of 1, 7 and all rows
    @pytest.mark.parametrize("rows", [13, 14, 15])
    @pytest.mark.parametrize("step", [1, 7, "all"])
    def test_solution_equals_per_line_formatting_in_any_chunk(self, rows, step, export_rows,
                                                               rng):
        from ellipstab.fem import export_solution_text

        mesh = TriMesh(rng.random((rows, 2)), np.array([[0, 1, 2]]), np.zeros(rows, bool))
        sol = FemSolution(mesh, export_values(rng, rows), (0, 0.0))
        export_rows(rows if step == "all" else step)
        expected = "".join([f"sol {i} {v:.17g}\n"
                            for i, v in enumerate(sol.nodal_values.tolist())])
        assert export_solution_text(sol) == expected

    def test_solution_memory_peak(self, refined_jump):
        # 1.69 MB measured (numpy 2.4); formatting all rows in one pass
        # peaked at 3.39 MB
        from ellipstab.fem import export_solution_text

        sol = refined_jump[0]
        export_solution_text(sol)
        tracemalloc.start()
        try:
            export_solution_text(sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 2**20
