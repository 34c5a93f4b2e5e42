import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import min_angle_deg, total_area
from ellipstab.geometry import GraphDomain, SectorDomain
from ellipstab.meshing import (
    TriMesh,
    graded_radii,
    mesh_graph_domain,
    mesh_sector,
    refine_uniform,
)

BETA = 1.5 * np.pi


def flat_domain(height_fn, n_grid=33):
    return GraphDomain.from_height(height_fn, n_grid=n_grid)


class TestMeshSector:
    def test_quarter_disc_smallest(self):
        # corner cells collapse to fans, so a 2x2 grid gives
        # n_angular * (2 n_radial - 1) = 6 positive-area triangles
        dom = SectorDomain(np.pi / 2)
        mesh = mesh_sector(dom, 2, 2, grading=1.0)
        mesh.validate()
        assert mesh.num_triangles == 6
        # area of the inscribed chord polygon, O(h^2) below pi/4
        dtheta = np.pi / 4
        chord_area = 0.5 * np.sin(dtheta) * 2
        assert total_area(mesh) == pytest.approx(chord_area, rel=1e-12)
        assert abs(total_area(mesh) - dom.area()) <= dom.area() * dtheta**2 / 5

    def test_triangle_count_general(self):
        mesh = mesh_sector(SectorDomain(BETA), 5, 7)
        assert mesh.num_triangles == 7 * (2 * 5 - 1)
        annulus = mesh_sector(SectorDomain(BETA, r_inner=0.1), 5, 7)
        assert annulus.num_triangles == 7 * 2 * 5

    def test_aligned_radius_inserted_exactly(self):
        mesh = mesh_sector(SectorDomain(BETA), 8, 8, aligned_radii=[0.1])
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        # node circle at the interface radius, up to 1 ulp from cos/sin rounding
        assert np.count_nonzero(np.abs(r - 0.1) < 1e-16) == 9
        assert 0.1 in graded_radii(SectorDomain(BETA), 8, aligned_radii=[0.1])

    def test_grading_smallest_element(self):
        n = 16
        mesh = mesh_sector(SectorDomain(BETA), n, 8, grading=3.0)
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        positive = np.unique(r[r > 0])
        assert positive[0] == pytest.approx((1.0 / n) ** 3, rel=1e-12)

    def test_dirichlet_flags_match_geometry(self):
        for r_inner in (0.0, 0.05):
            dom = SectorDomain(BETA, r_inner=r_inner)
            mesh = mesh_sector(dom, 6, 6)
            on = dom.on_boundary(mesh.vertices)
            assert np.array_equal(on, mesh.boundary_flags)

    def test_aligned_radius_out_of_range(self):
        with pytest.raises(ValueError):
            mesh_sector(SectorDomain(BETA, r_inner=0.2), 4, 4, aligned_radii=[0.1])

    def test_aligned_radii_one_ulp_apart_are_one_circle(self):
        aligned = [0.07, 0.07000000000000002]
        mesh = mesh_sector(SectorDomain(4.0), 2, 2, aligned_radii=aligned)
        assert graded_radii(SectorDomain(4.0), 2, aligned_radii=aligned).tolist() == [
            0.0, 0.07, 0.5, 1.0]
        assert mesh.validate()
        assert refine_uniform(mesh).validate()
        # distinct radii closer than 1e-12 stay distinct when they are small
        radii = graded_radii(SectorDomain(BETA), 4, aligned_radii=[2e-12, 2.5e-12])
        assert radii[:3].tolist() == [0.0, 2e-12, 2.5e-12]

    def test_aligned_radii_near_the_corner_keep_it(self):
        # an aligned radius closer to r = 0 than any absolute tolerance must
        # not replace the corner node
        dom = SectorDomain(BETA)
        assert graded_radii(dom, 4, aligned_radii=[1e-14, 2e-14])[:3].tolist() == [
            0.0, 1e-14, 2e-14]
        mesh = mesh_sector(dom, 4, 4, aligned_radii=[1e-14, 2e-14])
        assert np.array_equal(mesh.vertices[0], [0.0, 0.0]) and mesh.boundary_flags[0]
        assert mesh.validate()

    def test_counts_too_small(self):
        with pytest.raises(ValueError):
            mesh_sector(SectorDomain(BETA), 1, 4)
        with pytest.raises(ValueError):
            mesh_sector(SectorDomain(BETA), 4, 1)


def geometry_meshes():
    """A graded sector with an aligned circle, that sector refined, and a
    graph-domain mesh."""
    sector = mesh_sector(SectorDomain(BETA), 12, 16, grading=3.0, aligned_radii=[0.2])
    graph = mesh_graph_domain(flat_domain(lambda x: 0.6 + 0.3 * x**2), 9, 7)
    return {"sector": sector, "refined": refine_uniform(sector), "graph": graph}


def corners_reference(mesh):
    return mesh.vertices[mesh.triangles]


def signed_areas_reference(mesh):
    p = corners_reference(mesh)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def p1_gradients_reference(mesh):
    p = corners_reference(mesh)
    det = 2.0 * signed_areas_reference(mesh)
    g = np.empty((mesh.num_triangles, 3, 2))
    for i in range(3):
        a = p[:, (i + 1) % 3]
        b = p[:, (i + 2) % 3]
        g[:, i, 0] = (a[:, 1] - b[:, 1]) / det
        g[:, i, 1] = (b[:, 0] - a[:, 0]) / det
    return g


class TestCachedGeometry:
    @pytest.mark.parametrize("name", ["corners", "signed_areas", "p1_gradients"])
    def test_gathered_once_and_read_only(self, name):
        mesh = mesh_sector(SectorDomain(BETA), 4, 6)
        first = getattr(mesh, name)()
        assert getattr(mesh, name)() is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    @pytest.mark.parametrize("kind", ["sector", "refined", "graph"])
    @pytest.mark.parametrize("name,reference", [
        ("corners", corners_reference),
        ("signed_areas", signed_areas_reference),
        ("p1_gradients", p1_gradients_reference),
    ])
    def test_bits_of_the_fancy_indexed_formulas(self, kind, name, reference):
        # the gathers and the per-coordinate sums keep every bit
        mesh = geometry_meshes()[kind]
        assert np.array_equal(getattr(mesh, name)(), reference(mesh))


class TestMeshGraphDomain:
    def test_full_rectangle(self):
        dom = flat_domain(lambda x: np.ones_like(x))
        mesh = mesh_graph_domain(dom, 4, 3)
        mesh.validate()
        assert mesh.num_triangles == 2 * 4 * 3
        assert total_area(mesh) == pytest.approx(1.0, rel=1e-12)

    def test_top_row_follows_height(self):
        dom = flat_domain(lambda x: 0.8 + 0.1 * x)
        mesh = mesh_graph_domain(dom, 8, 4)
        mesh.validate()
        top = mesh.vertices[np.abs(mesh.vertices[:, 1]
                                   - dom.height(mesh.vertices[:, 0])) < 1e-14]
        assert top.shape[0] == 9

    def test_area_converges_to_subgraph_area(self):
        dom = flat_domain(lambda x: 0.7 + 0.15 * np.sin(np.pi * x), n_grid=257)
        defects = []
        for n in (8, 16, 32):
            mesh = mesh_graph_domain(dom, n, n)
            defects.append(abs(total_area(mesh) - dom.area()))
        # O(h^2): each halving of h divides the defect by about 4
        assert defects[1] < 0.3 * defects[0]
        assert defects[2] < 0.3 * defects[1]


class TestRefineUniform:
    def test_four_to_one(self):
        mesh = mesh_sector(SectorDomain(BETA), 6, 6)
        fine = refine_uniform(mesh)
        fine.validate()
        assert fine.num_triangles == 4 * mesh.num_triangles

    def test_flag_growth_equals_boundary_edges(self):
        mesh = mesh_sector(SectorDomain(BETA), 4, 6, aligned_radii=[0.3])
        fine = refine_uniform(mesh)
        grown = np.count_nonzero(fine.boundary_flags) - np.count_nonzero(mesh.boundary_flags)
        assert grown == mesh.boundary_edges().shape[0]

    def test_area_defect_shrinks_second_order(self):
        dom = SectorDomain(BETA)
        mesh = mesh_sector(dom, 8, 16)
        fine = refine_uniform(mesh)
        d0 = abs(total_area(mesh) - dom.area())
        d1 = abs(total_area(fine) - dom.area())
        assert d1 < 0.3 * d0  # chord error is O(h^2): halving h quarters it

    def test_interface_circle_preserved(self):
        mesh = mesh_sector(SectorDomain(BETA), 6, 6, aligned_radii=[0.25])
        fine = refine_uniform(mesh)
        r = np.hypot(fine.vertices[:, 0], fine.vertices[:, 1])
        on_circle = np.abs(r - 0.25) < 1e-12
        # the circle now has twice as many nodes and none drifted inward
        assert np.count_nonzero(on_circle) == 13
        near = (np.abs(r - 0.25) < 0.25 * (1 - np.cos(BETA / 12))) & ~on_circle
        assert not np.any(near)

    def test_nesting_on_polygonal_domain(self):
        dom = flat_domain(lambda x: 0.8 + 0.1 * x, n_grid=9)
        mesh = mesh_graph_domain(dom, 8, 4)
        fine = refine_uniform(mesh)
        fine.validate()
        # parent vertices are untouched, midpoints stay straight (h is linear)
        assert np.array_equal(fine.vertices[: mesh.num_vertices], mesh.vertices)

    def test_graph_top_projected(self):
        dom = flat_domain(lambda x: 0.7 + 0.15 * np.sin(np.pi * x), n_grid=257)
        mesh = mesh_graph_domain(dom, 8, 4)
        fine = refine_uniform(mesh)
        fine.validate()
        x = fine.vertices[:, 0]
        top = np.abs(fine.vertices[:, 1] - dom.height(x)) < 1e-12
        assert np.count_nonzero(top) == 17

    def test_min_angle_degrades_at_most_one_degree(self):
        for grading in (1.0, 3.0):
            mesh = mesh_sector(SectorDomain(BETA), 8, 8, grading=grading)
            fine = refine_uniform(mesh)
            assert min_angle_deg(fine) >= min_angle_deg(mesh) - 1.0


class TestNeighbors:
    @pytest.mark.parametrize("mesh", [
        mesh_sector(SectorDomain(BETA), 5, 7, grading=3.0),
        refine_uniform(mesh_sector(SectorDomain(BETA, r_inner=0.1), 4, 6,
                                   aligned_radii=[0.5])),
        mesh_graph_domain(flat_domain(lambda x: 0.8 + 0.1 * x), 4, 3),
    ])
    def test_symmetric_and_sharing_one_edge(self, mesh):
        nb = mesh.neighbors()
        t, loc = np.nonzero(nb >= 0)
        other = nb[t, loc]
        assert np.all(np.any(nb[other] == t[:, None], axis=1))
        # the two triangles share exactly the edge opposite local vertex loc
        tri = mesh.triangles
        common = np.any(tri[t][:, :, None] == tri[other][:, None, :], axis=2)
        assert np.all(np.count_nonzero(common, axis=1) == 2)
        assert not np.any(common[np.arange(t.size), loc])
        assert np.count_nonzero(nb < 0) == mesh.boundary_edges().shape[0]


@st.composite
def sector_meshes(draw):
    beta = draw(st.floats(1.05 * np.pi, 1.95 * np.pi))
    r_inner = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    n_radial = draw(st.integers(2, 8))
    grading = draw(st.floats(1.0, 4.0))
    n_angular = draw(st.integers(2, 48))
    aligned = draw(st.lists(st.floats(r_inner + 0.02, 0.98), max_size=2, unique=True))
    dom = SectorDomain(beta, r_inner=r_inner)
    return mesh_sector(dom, n_radial, n_angular, grading=grading, aligned_radii=aligned)


@st.composite
def polygonal_graph_meshes(draw):
    n_x = draw(st.integers(2, 10))
    n_y = draw(st.integers(2, 8))
    # one height node per mesh column keeps the top boundary a polyline
    # whose kinks are mesh vertices
    heights = draw(st.lists(st.floats(0.2, 1.0), min_size=n_x + 1, max_size=n_x + 1))
    dom = GraphDomain.from_height(np.array(heights))
    return mesh_graph_domain(dom, n_x, n_y)


def check_refinement(mesh, fine):
    assert fine.num_triangles == 4 * mesh.num_triangles
    assert fine.validate()
    grown = np.count_nonzero(fine.boundary_flags) - np.count_nonzero(mesh.boundary_flags)
    assert grown == mesh.boundary_edges().shape[0]


class TestRefineProperties:
    @settings(max_examples=40, deadline=None)
    @given(sector_meshes(), st.integers(1, 2))
    def test_sector(self, mesh, levels):
        for _ in range(levels):
            fine = refine_uniform(mesh)
            check_refinement(mesh, fine)
            mesh = fine

    @settings(max_examples=40, deadline=None)
    @given(polygonal_graph_meshes(), st.integers(1, 2))
    def test_polygonal_graph_keeps_area(self, mesh, levels):
        for _ in range(levels):
            fine = refine_uniform(mesh)
            check_refinement(mesh, fine)
            assert total_area(fine) == pytest.approx(total_area(mesh), rel=1e-13)
            mesh = fine


class TestValiditySuite:
    @pytest.mark.parametrize("beta", [1.2 * np.pi, BETA, 1.9 * np.pi])
    @pytest.mark.parametrize("r_inner", [0.0, 0.05])
    @pytest.mark.parametrize("grading", [1.0, 3.0])
    def test_sector_grid(self, beta, r_inner, grading):
        dom = SectorDomain(beta, r_inner=r_inner)
        aligned = (0.3,) if r_inner < 0.3 else ()
        mesh = mesh_sector(dom, 6, 16, grading=grading, aligned_radii=aligned)
        assert mesh.validate()
        assert refine_uniform(mesh).validate()

    @pytest.mark.parametrize("r_inner,grading,n_radial,n_angular", [
        (0.05, 3.0, 6, 8), (0.05, 3.0, 16, 16), (0.2, 2.0, 16, 16), (0.2, 3.0, 6, 16),
    ])
    def test_graded_annulus(self, r_inner, grading, n_radial, n_angular):
        # the first graded ring is thinner than the sagitta of the inner-arc
        # chords, so moving only arc midpoints onto their circle inverts children
        mesh = mesh_sector(SectorDomain(BETA, r_inner=r_inner), n_radial, n_angular,
                           grading=grading)
        for _ in range(2):
            mesh = refine_uniform(mesh)
            assert mesh.validate()

    @pytest.mark.parametrize("height", [lambda x: 0.8 * np.ones_like(x),
                                        lambda x: 0.8 + 0.1 * x,
                                        lambda x: 0.7 + 0.2 * x * (1 - x)])
    def test_graph_grid(self, height):
        mesh = mesh_graph_domain(flat_domain(height), 6, 5)
        assert mesh.validate()
        assert refine_uniform(mesh).validate()

    def test_broken_meshes_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cw = TriMesh(verts, np.array([[0, 2, 1]]), np.ones(3, bool))
        with pytest.raises(ValueError):
            cw.validate()
        hanging = TriMesh(np.vstack([verts, [2.0, 2.0]]), np.array([[0, 1, 2]]),
                          np.ones(4, bool))
        with pytest.raises(ValueError):
            hanging.validate()
        # edge shared by three triangles is not manifold
        verts3 = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [-1, 0.5]], dtype=float)
        bad = TriMesh(verts3, np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4]]),
                      np.ones(5, bool))
        tri = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 3]])
        nonmanifold = TriMesh(verts3[:4], tri, np.ones(4, bool))
        with pytest.raises(ValueError):
            nonmanifold.validate()


class TestExport:
    def test_text_format(self):
        mesh = mesh_sector(SectorDomain(BETA), 2, 2)
        lines = mesh.export_text().strip().split("\n")
        assert len(lines) == mesh.num_vertices + mesh.num_triangles
        assert lines[0].startswith("v ")
        parts = lines[0].split()
        assert len(parts) == 4 and parts[3] in ("0", "1")
        tline = lines[mesh.num_vertices]
        assert tline.startswith("t ")
        assert all(p.isdigit() for p in tline.split()[1:])

    def test_golden_text(self):
        # .17g round-trips every float: a repeating fraction, a signed
        # zero, tiny and huge magnitudes; both flag values
        verts = np.array([[1 / 3, -0.0], [1e-300, -2.5e17], [1.0, 2.0], [-0.0, 1 / 3]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]),
                       np.array([True, False, False, True]))
        assert mesh.export_text() == (
            "v 0.33333333333333331 -0 1\n"
            "v 1e-300 -2.5e+17 0\n"
            "v 1 2 0\n"
            "v -0 0.33333333333333331 1\n"
            "t 0 1 2\n"
            "t 0 2 3\n"
        )

    @staticmethod
    def per_line_text(mesh):
        # the per-line f-string formatting that export_text replaced
        lines = [f"v {x:.17g} {y:.17g} {flag:d}\n" for (x, y), flag
                 in zip(mesh.vertices.tolist(), mesh.boundary_flags.tolist())]
        lines += [f"t {i} {j} {k}\n" for i, j, k in mesh.triangles.tolist()]
        return "".join(lines)

    @pytest.mark.parametrize("case", ["graded_sector_refined", "graph", "extreme_values"])
    def test_equals_per_line_formatting(self, case):
        if case == "graded_sector_refined":
            mesh = mesh_sector(SectorDomain(BETA), 6, 8, grading=3.0, aligned_radii=(0.3,))
            mesh = refine_uniform(refine_uniform(mesh))
        elif case == "graph":
            mesh = mesh_graph_domain(flat_domain(lambda x: 0.7 + 0.2 * np.sin(3 * x)), 9, 7)
        else:
            verts = np.array([[-0.0, 1e-300], [1e17, -0.0], [-1e17, 5e-324],
                              [0.1, -1e-300], [2.0 / 3.0, 1e17]])
            mesh = TriMesh(verts, np.array([[0, 1, 2], [2, 3, 4], [4, 0, 1]]),
                           np.array([False, True, True, False, True]))
        assert mesh.export_text() == self.per_line_text(mesh)
