"""Conforming triangulations of sector and subgraph domains.

Sector meshes are structured polar grids with optional radial grading
toward the corner and exact insertion of interface radii, so quadrature
never straddles a coefficient discontinuity.  Curved arcs are approximated
by chords.  Uniform refinement splits sector edges at their polar
midpoints, so node circles, interface circles included, stay exact and
refined vertices lie on the parent's polar grid.  A mesh keeps only its
arrays and its domain; corner coordinates, signed areas, P1 gradients and
connectivity are derived from the triangles when first needed.
"""

from __future__ import annotations

import numpy as np

from .geometry import GraphDomain, SectorDomain

# rows per chunk of the text exports; 512 to 8 192 took the same time
EXPORT_ROWS = 4096

# local vertices joined by local edge e of a triangle, the edge opposite local
# vertex e; the edge of vertices i and j has the key min(i, j) * n + max(i, j)
# for n vertices, which sorts as the (min, max) pairs do
EDGE_ENDS = np.array([[1, 2, 0], [2, 0, 1]])

# smallest positive inner radius that mesh_sector_from_radii meshes: from about
# 1e-293 down, the P1 gradients or element matrices of two angular intervals at
# beta near 2 pi overflow
R_INNER_MIN = 1e-280


class TriMesh:
    """Triangulation with per-vertex Dirichlet flags.

    ``domain`` is the meshed domain (None for a bare triangulation).
    Immutable after construction; derived structures (the corner
    coordinates, the signed areas, the P1 gradients and the edge numbering)
    are built lazily and cached.
    """

    def __init__(self, vertices, triangles, boundary_flags, domain=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.boundary_flags = np.asarray(boundary_flags, dtype=bool)
        self.domain = domain
        self._corners = None
        self._signed_areas = None
        self._p1_gradients = None
        self._edge_cache = None

    # -- basic quantities ------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def corners(self):
        """Vertex coordinates per triangle, shape (M, 3, 2), read-only."""
        if self._corners is None:
            # np.take gathers rows about ten times faster than fancy indexing
            self._corners = np.take(self.vertices, self.triangles, axis=0)
            self._corners.flags.writeable = False
        return self._corners

    def signed_areas(self):
        """Signed triangle areas, shape (M,), read-only."""
        if self._signed_areas is None:
            # per coordinate, (3, M) views of the corners, with no (M, 2)
            # edge temporaries
            p = self.corners()
            (x0, x1, x2), (y0, y1, y2) = p[..., 0].T, p[..., 1].T
            self._signed_areas = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
            self._signed_areas.flags.writeable = False
        return self._signed_areas

    def areas(self):
        return np.abs(self.signed_areas())

    def p1_gradients(self):
        """Gradients of the three nodal basis functions, shape (M, 3, 2),
        read-only."""
        if self._p1_gradients is None:
            p = self.corners()
            x, y = p[..., 0].T, p[..., 1].T
            det = 2.0 * self.signed_areas()
            g = np.empty((self.num_triangles, 3, 2))
            for i in range(3):
                a, b = (i + 1) % 3, (i + 2) % 3
                np.divide(y[a] - y[b], det, out=g[:, i, 0])
                np.divide(x[b] - x[a], det, out=g[:, i, 1])
            g.flags.writeable = False
            self._p1_gradients = g
        return self._p1_gradients

    # -- connectivity ----------------------------------------------------

    def _edges(self):
        """Unique edges, their triangle counts and the triangle->edge map.

        Edges are keyed and their ends taken by ``EDGE_ENDS``; row t of the
        (M, 3) map holds the edge indices of triangle t's local edges.
        """
        if self._edge_cache is None:
            tri, n = self.triangles, self.num_vertices
            a, b = tri[:, EDGE_ENDS[0]], tri[:, EDGE_ENDS[1]]
            keys, inverse, counts = np.unique(
                (np.minimum(a, b) * n + np.maximum(a, b)).ravel(),
                return_inverse=True, return_counts=True)
            self._edge_cache = (np.column_stack(np.divmod(keys, n)), counts,
                                inverse.reshape(self.num_triangles, 3))
        return self._edge_cache

    def edges(self):
        return self._edges()[0]

    def edge_counts(self):
        return self._edges()[1]

    def neighbors(self):
        """Neighbor triangle across each local edge, -1 on the boundary."""
        _, counts, tri_edges = self._edges()
        # slots k = 3 * triangle + local_edge, grouped by edge; an interior
        # edge's two owners are adjacent in that order
        slots = np.argsort(tri_edges.ravel(), kind="stable")
        first = (np.cumsum(counts) - counts)[counts == 2]
        a, b = slots[first], slots[first + 1]
        nb = -np.ones(tri_edges.size, dtype=np.int64)
        nb[a] = b // 3
        nb[b] = a // 3
        return nb.reshape(tri_edges.shape)

    def boundary_edges(self):
        uniq, counts, _ = self._edges()
        return uniq[counts == 1]

    # -- validation and export --------------------------------------------

    def validate(self):
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
        dom = self.domain
        if dom is not None:
            on = dom.on_boundary(self.vertices)
            if np.any(on & ~self.boundary_flags):
                raise ValueError("boundary vertex not flagged Dirichlet")
            if np.any(self.boundary_flags & ~on):
                raise ValueError("interior vertex flagged Dirichlet")
        bedges = self.boundary_edges()
        if not np.all(self.boundary_flags[bedges.ravel()]):
            raise ValueError("boundary edge with unflagged endpoint")
        return True

    def export_text(self):
        """ASCII export: one `v x y flag` line per vertex, then `t i j k` lines
        (``_format_rows``)."""
        return (_format_rows("v %.17g %.17g %d\n", (*self.vertices.T, self.boundary_flags))
                + _format_rows("t %d %d %d\n", self.triangles.T))


def _format_rows(line, columns):
    """``line`` % row for every row of the 1-D ``columns``, joined; one pass over
    each EXPORT_ROWS rows, so one chunk's Python objects live at a time."""
    n, k, pieces = len(columns[0]), len(columns), []
    for start in range(0, n, EXPORT_ROWS):
        rows = min(EXPORT_ROWS, n - start)
        values = [None] * (k * rows)
        for j, c in enumerate(columns):
            values[j::k] = c[start:start + rows].tolist()
        pieces.append((line * rows) % tuple(values))
    return "".join(pieces)


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


def mesh_sector_from_radii(domain, radii, n_angular):
    """Structured sector mesh with an explicit radial node list."""
    if 0.0 < domain.r_inner < R_INNER_MIN:
        raise ValueError(f"inner radius {domain.r_inner:g} is below {R_INNER_MIN:g}")
    radii = np.asarray(sorted(radii), dtype=float)
    if abs(radii[0] - domain.r_inner) > 1e-14 or abs(radii[-1] - 1.0) > 1e-14:
        raise ValueError("radii must span [r_inner, 1]")
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
    return TriMesh(vertices, triangles, flags, domain=domain)


def graded_radii(domain, n_radial, grading=1.0, aligned_radii=()):
    """Radial nodes r_inner + (1 - r_inner) * (i/n)^mu, plus aligned radii."""
    if n_radial < 2:
        raise ValueError("need at least 2 radial intervals")
    if grading < 1.0:
        raise ValueError("grading exponent must be >= 1")
    t = (np.arange(n_radial + 1) / n_radial) ** grading
    radii = domain.r_inner + (1.0 - domain.r_inner) * t
    aligned = []
    for s in sorted(set(float(s) for s in aligned_radii)):
        if not domain.r_inner < s < 1.0:
            raise ValueError(f"aligned radius {s} outside ({domain.r_inner}, 1)")
        # radii that differ only by rounding are one circle; keeping both
        # would leave a ring of zero-area triangles
        if not aligned or s - aligned[-1] > 1e-12 * s:
            aligned.append(s)
    aligned = np.asarray(aligned, dtype=float)
    if aligned.size:
        # drop generated inner nodes that are one circle with an aligned
        # radius, by the rule above, so the exact aligned value survives
        near = np.any(np.abs(radii[:, None] - aligned) <= 1e-12 * aligned, axis=1)
        near[[0, -1]] = False
        radii = np.unique(np.concatenate([radii[~near], aligned]))
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
    return mesh_sector_from_radii(domain, radii, n_angular)


def mesh_graph_domain(domain, n_x, n_y):
    """Tensor mesh of a subgraph domain; the top row follows the height function."""
    if n_x < 2 or n_y < 2:
        raise ValueError("need at least 2 intervals per direction")
    xs = np.linspace(0.0, 1.0, n_x + 1)
    hs = domain.height(xs)
    ys = hs[:, None] * np.arange(n_y + 1) / n_y
    verts = np.stack([np.repeat(xs, n_y + 1), ys.ravel()], axis=1)
    triangles, border = _grid(n_x + 1, n_y + 1)
    return TriMesh(verts, triangles, border.ravel(), domain=domain)


def _midpoints(domain, ends):
    """New vertices for the edges with endpoints ``ends``, shape (E, 2, 2).

    On a sector, an edge with both ends off the corner gets its polar
    midpoint: the mean radius along the bisector of the two end directions.
    Arcs of node circles then stay on their circle, and every new vertex
    lies on the parent's polar grid with interleaved radii and angles, so
    children cannot invert.  An edge from the corner lies on a ray, where
    the Cartesian midpoint is already polar.  On a graph domain, midpoints
    of edges on the top graph are moved onto it; other midpoints stay
    Cartesian, so refinement of a polygonal domain is nested.
    """
    mids = 0.5 * (ends[:, 0] + ends[:, 1])
    if isinstance(domain, SectorDomain):
        r = np.hypot(ends[..., 0], ends[..., 1])
        off = np.all(r > 0.0, axis=1)
        r = r[off]
        bisector = np.sum(ends[off] / r[..., None], axis=1)
        bisector /= np.hypot(bisector[:, 0], bisector[:, 1])[:, None]
        mids[off] = 0.5 * (r[:, 0] + r[:, 1])[:, None] * bisector
    elif isinstance(domain, GraphDomain):
        tol = 1e-10
        on = np.all(np.abs(ends[..., 1] - domain.height(ends[..., 0])) <= tol, axis=1)
        mids[on, 1] = domain.height(mids[on, 0])
    return mids


def refine_uniform(mesh):
    """Split every triangle into four via edge midpoints (see ``_midpoints``).

    A new midpoint is flagged Dirichlet exactly when its parent edge is a
    boundary edge.
    """
    edges = mesh.edges()
    counts = mesh.edge_counts()
    mids = _midpoints(mesh.domain, np.take(mesh.vertices, edges, axis=0))
    vertices = np.concatenate([mesh.vertices, mids])
    bflags = np.concatenate([mesh.boundary_flags, counts == 1])

    v0, v1, v2 = mesh.triangles.T
    # local edge e is opposite local vertex e, so columns are m12, m20, m01
    m12, m20, m01 = (mesh.num_vertices + mesh._edges()[2]).T
    tris = np.stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1)
    return TriMesh(vertices, tris.reshape(-1, 3), bflags, domain=mesh.domain)
