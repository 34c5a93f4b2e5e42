"""Conforming triangulations of sector and subgraph domains.

Sector meshes are structured polar grids with optional radial grading
toward the corner and exact insertion of interface radii, so quadrature
never straddles a coefficient discontinuity.  Curved arcs are approximated
by chords; uniform refinement projects new arc midpoints back to their
circle, keeping the O(h^2) geometric error and the interface alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import GraphDomain, SectorDomain


@dataclass(frozen=True)
class GenerationMeta:
    domain: object
    grading: float = 1.0
    level: int = 0
    aligned_radii: tuple = ()
    min_angle_deg: float = 0.0
    # ("polar", radii tuple, n_angular) on structured sector meshes; enables
    # O(1) point location.  Cleared by refinement, which breaks the structure.
    structure: tuple = ()


class TriMesh:
    """Triangulation with per-vertex Dirichlet flags.

    Immutable after construction; derived structures (the edge numbering
    and the point locator) are built lazily and cached.
    """

    def __init__(self, vertices, triangles, boundary_flags, meta=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.boundary_flags = np.asarray(boundary_flags, dtype=bool)
        if meta is None:
            meta = GenerationMeta(domain=None)
        if meta.min_angle_deg == 0.0:
            meta = replace(meta, min_angle_deg=self._compute_min_angle())
        self.meta = meta
        self._edge_cache = None
        self._locator = None

    # -- basic quantities ------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def corners(self):
        return self.vertices[self.triangles]

    def signed_areas(self):
        p = self.corners()
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def areas(self):
        return np.abs(self.signed_areas())

    def total_area(self):
        return float(np.sum(self.areas()))

    def p1_gradients(self):
        """Gradients of the three nodal basis functions, shape (M, 3, 2)."""
        p = self.corners()
        det = 2.0 * self.signed_areas()
        g = np.empty((self.num_triangles, 3, 2))
        for i in range(3):
            a = p[:, (i + 1) % 3]
            b = p[:, (i + 2) % 3]
            g[:, i, 0] = (a[:, 1] - b[:, 1]) / det
            g[:, i, 1] = (b[:, 0] - a[:, 0]) / det
        return g

    def _compute_min_angle(self):
        p = self.corners()
        angles = []
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosang = np.sum(u * v, axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(np.degrees(np.min(angles)))

    @property
    def min_angle_deg(self):
        return self.meta.min_angle_deg

    # -- connectivity ----------------------------------------------------

    def _edges(self):
        """Unique edges, their triangle counts and the triangle->edge map.

        Local edge e of a triangle is opposite its local vertex e; row t of
        the map holds the edge indices of triangle t in that order.
        """
        if self._edge_cache is None:
            tri = self.triangles
            raw = np.concatenate(
                [tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=0
            )
            key = np.sort(raw, axis=1)
            uniq, inverse, counts = np.unique(
                key, axis=0, return_inverse=True, return_counts=True
            )
            tri_edges = inverse.reshape(3, self.num_triangles).T
            self._edge_cache = (uniq, counts, tri_edges)
        return self._edge_cache

    def edges(self):
        return self._edges()[0]

    def edge_counts(self):
        return self._edges()[1]

    def neighbors(self):
        """Neighbor triangle across each local edge, -1 on the boundary."""
        _, counts, tri_edges = self._edges()
        m = self.num_triangles
        # slots k = local_edge * m + triangle, grouped by edge; an interior
        # edge's two owners are adjacent in that order
        slots = np.argsort(tri_edges.T.ravel(), kind="stable")
        first = (np.cumsum(counts) - counts)[counts == 2]
        a, b = slots[first], slots[first + 1]
        nb = -np.ones(3 * m, dtype=np.int64)
        nb[a] = b % m
        nb[b] = a % m
        return nb.reshape(3, m).T

    def boundary_edges(self):
        uniq, counts, _ = self._edges()
        return uniq[counts == 1]

    # -- validation and export --------------------------------------------

    def validate(self, tol=1e-10):
        """Raise ValueError on any violated mesh invariant."""
        if np.any(self.signed_areas() <= 0.0):
            bad = int(np.argmax(self.signed_areas() <= 0.0))
            raise ValueError(f"triangle {bad} has non-positive area")
        counts = self.edge_counts()
        if np.any((counts != 1) & (counts != 2)):
            raise ValueError("mesh is not edge-manifold")
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.triangles.ravel()] = True
        if not np.all(used):
            raise ValueError("mesh has unused (hanging) vertices")
        dom = self.meta.domain
        if dom is not None:
            on = dom.on_boundary(self.vertices, tol=tol)
            if np.any(on & ~self.boundary_flags):
                raise ValueError("boundary vertex not flagged Dirichlet")
            if np.any(self.boundary_flags & ~on):
                raise ValueError("interior vertex flagged Dirichlet")
        bedges = self.boundary_edges()
        if not np.all(self.boundary_flags[bedges.ravel()]):
            raise ValueError("boundary edge with unflagged endpoint")
        return True

    def export_text(self):
        """ASCII export: one `v x y flag` line per vertex, then `t i j k` lines."""
        lines = []
        for (x, y), flag in zip(self.vertices, self.boundary_flags):
            lines.append(f"v {x:.17g} {y:.17g} {int(flag)}")
        for i, j, k in self.triangles:
            lines.append(f"t {i} {j} {k}")
        return "\n".join(lines) + "\n"


def _grid(n_rows, n_cols, offset=0):
    """Triangulated grid of n_rows x n_cols vertices numbered row-major from offset.

    Returns the triangles (a, b, c), (a, c, d) of every cell, cell by cell,
    where a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1), and the
    (n_rows, n_cols) mask of the grid's border vertices.
    """
    a = offset + np.arange(n_rows - 1)[:, None] * n_cols + np.arange(n_cols - 1)
    b = a + n_cols
    triangles = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)
    border = np.ones((n_rows, n_cols), dtype=bool)
    border[1:-1, 1:-1] = False
    return triangles, border


def mesh_sector_from_radii(domain, radii, n_angular, grading=1.0, aligned_radii=()):
    """Structured sector mesh with an explicit radial node list.

    ``aligned_radii`` records which node circles are coefficient interfaces;
    only those (and the boundary arcs) are projected back onto their circle
    during refinement.
    """
    radii = np.asarray(sorted(radii), dtype=float)
    if abs(radii[0] - domain.r_inner) > 1e-14 or abs(radii[-1] - domain.r_outer) > 1e-14:
        raise ValueError("radii must span [r_inner, r_outer]")
    if n_angular < 1:
        raise ValueError("need at least one angular interval")
    thetas = np.linspace(0.0, domain.beta, n_angular + 1)
    has_corner = radii[0] == 0.0
    rings = radii[1:] if has_corner else radii
    ring_vertices = np.stack([rings[:, None] * np.cos(thetas),
                              rings[:, None] * np.sin(thetas)], axis=-1)
    vertices = ring_vertices.reshape(-1, 2)
    triangles, border = _grid(rings.size, thetas.size, offset=int(has_corner))
    if has_corner:
        # vertex 0 is the corner, joined to the innermost ring by a fan; that
        # ring is boundary only at its ends unless it is the outer arc
        if rings.size > 1:
            border[0, 1:-1] = False
        j = np.arange(1, n_angular + 1)
        fan = np.stack([np.zeros_like(j), j, j + 1], axis=1)
        vertices = np.concatenate([[[0.0, 0.0]], vertices])
        triangles = np.concatenate([fan, triangles])
        flags = np.concatenate([[True], border.ravel()])
    else:
        flags = border.ravel()

    interior = tuple(float(s) for s in sorted(set(aligned_radii))
                     if domain.r_inner + 1e-14 < s < domain.r_outer - 1e-14)
    meta = GenerationMeta(domain=domain, grading=grading, level=0,
                          aligned_radii=interior,
                          structure=("polar", tuple(float(r) for r in radii), n_angular))
    return TriMesh(vertices, triangles, flags, meta)


def graded_radii(domain, n_radial, grading=1.0, aligned_radii=()):
    """Radial nodes r_inner + (r_outer - r_inner) * (i/n)^mu, plus aligned radii."""
    if n_radial < 2:
        raise ValueError("need at least 2 radial intervals")
    if grading < 1.0:
        raise ValueError("grading exponent must be >= 1")
    t = (np.arange(n_radial + 1) / n_radial) ** grading
    radii = domain.r_inner + (domain.r_outer - domain.r_inner) * t
    aligned = np.asarray(sorted(set(float(s) for s in aligned_radii)), dtype=float)
    for s in aligned:
        if not domain.r_inner < s < domain.r_outer:
            raise ValueError(f"aligned radius {s} outside ({domain.r_inner}, {domain.r_outer})")
    if aligned.size:
        # drop generated nodes indistinguishable from an aligned radius so the
        # exact aligned value survives
        near = np.min(np.abs(radii[:, None] - aligned[None, :]), axis=1)
        radii = radii[near > 1e-12]
        radii = np.unique(np.concatenate([radii, aligned]))
    return radii


def mesh_sector(domain, n_radial, n_angular, grading=1.0, aligned_radii=()):
    """Structured polar mesh of a sector with grading and aligned interface circles.

    Radial nodes follow the power law (i/n)^grading, shifted when the
    domain has an inner radius; every radius in ``aligned_radii`` is
    inserted as an exact node circle.  All four boundary pieces are
    flagged Dirichlet.
    """
    if n_angular < 2:
        raise ValueError("need at least 2 angular intervals")
    radii = graded_radii(domain, n_radial, grading, aligned_radii)
    return mesh_sector_from_radii(domain, radii, n_angular, grading=grading,
                                  aligned_radii=aligned_radii)


def mesh_graph_domain(domain, n_x, n_y):
    """Tensor mesh of a subgraph domain; the top row follows the height function."""
    if n_x < 2 or n_y < 2:
        raise ValueError("need at least 2 intervals per direction")
    xs = np.linspace(domain.x_lo, domain.x_hi, n_x + 1)
    hs = domain.height(xs)
    ys = domain.floor + (hs[:, None] - domain.floor) * np.arange(n_y + 1) / n_y
    verts = np.stack([np.repeat(xs, n_y + 1), ys.ravel()], axis=1)
    triangles, border = _grid(n_x + 1, n_y + 1)
    meta = GenerationMeta(domain=domain)
    return TriMesh(verts, triangles, border.ravel(), meta)


def _project_midpoints(mesh, ends, mids):
    """Snap midpoints of edges on a curved boundary piece back onto it.

    ``ends`` holds the two endpoints of each edge, shape (E, 2, 2).  An edge
    is projected when both endpoints lie on the same circle (outer, inner
    or aligned interface) or on the top graph; the first matching circle
    in that order wins.
    """
    dom = mesh.meta.domain
    tol = 1e-10
    if isinstance(dom, SectorDomain):
        circles = [dom.r_outer] + list(mesh.meta.aligned_radii)
        if dom.r_inner > 0.0:
            circles.append(dom.r_inner)
        r_ends = np.hypot(ends[..., 0], ends[..., 1])
        rm = np.hypot(mids[:, 0], mids[:, 1])
        todo = rm > 0.0
        for rc in circles:
            on = todo & np.all(np.abs(r_ends - rc) <= tol, axis=1)
            mids[on] *= (rc / rm[on])[:, None]
            todo &= ~on
    elif isinstance(dom, GraphDomain):
        on = np.all(np.abs(ends[..., 1] - dom.height(ends[..., 0])) <= tol, axis=1)
        mids[on, 1] = dom.height(mids[on, 0])
    return mids


def refine_uniform(mesh):
    """Split every triangle into four via edge midpoints.

    Midpoints of edges lying on a circular arc (outer, inner or aligned
    interface circle) or on the top graph boundary are projected back onto
    the curve; interior midpoints are untouched so nested refinement stays
    nested on polygonal domains.  A new midpoint is flagged Dirichlet
    exactly when its parent edge is a boundary edge.

    The projection assumes the angular resolution is fine enough that the
    chord sagitta stays below the local radial spacing; otherwise children
    can invert, which ``validate`` reports.
    """
    edges = mesh.edges()
    counts = mesh.edge_counts()
    ends = mesh.vertices[edges]
    mids = _project_midpoints(mesh, ends, 0.5 * (ends[:, 0] + ends[:, 1]))
    vertices = np.concatenate([mesh.vertices, mids])
    bflags = np.concatenate([mesh.boundary_flags, counts == 1])

    v0, v1, v2 = mesh.triangles.T
    # local edge e is opposite local vertex e, so columns are m12, m20, m01
    m12, m20, m01 = (mesh.num_vertices + mesh._edges()[2]).T
    tris = np.stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1)
    meta = replace(mesh.meta, level=mesh.meta.level + 1, min_angle_deg=0.0,
                   structure=())
    return TriMesh(vertices, tris.reshape(-1, 3), bflags, meta)
