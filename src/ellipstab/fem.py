"""P1 Galerkin discretization of weighted elliptic forms, with a CG solver.

The assembled form is  Q(u, v) = int a_ij u_xi v_xj g dx  with an optional
positive density g (defaults to 1), and the load is  int f * sw * v dx with
an optional source weight sw.  Dirichlet rows and columns are eliminated
symmetrically so the reduced system stays symmetric positive definite and
a Jacobi-preconditioned conjugate gradient applies.

Assembly accumulates per-element contributions in a fixed element order,
so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficients import FieldEvaluationError
from .quadrature import TRI6_BARY, TRI6_WEIGHTS, tri6_points

# (point, candidate triangle) pairs tested at once by the bucket locator,
# about 200 bytes of temporaries each
LOCATE_PAIRS = 1 << 20


class AssemblyError(RuntimeError):
    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class ConvergenceFailure(RuntimeError):
    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


@dataclass(frozen=True)
class SparseSystem:
    """Reduced SPD system on the free (non-Dirichlet) unknowns."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free_index_map: np.ndarray  # vertex -> unknown index, -1 at Dirichlet vertices
    free_vertices: np.ndarray  # unknown index -> vertex
    mesh: object = None

    @property
    def num_unknowns(self):
        return self.rhs.size

    def symmetry_defect(self):
        d = self.matrix - self.matrix.T
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0


@dataclass(frozen=True)
class FemSolution:
    """Nodal values on a mesh; Dirichlet vertices hold exactly zero."""

    mesh: object
    nodal_values: np.ndarray
    solve_report: tuple  # (iterations, final relative residual)

    def triangle_gradients(self):
        g = self.mesh.p1_gradients()
        vals = self.nodal_values[self.mesh.triangles]
        return np.einsum("mi,mix->mx", vals, g)

    def energy(self, field, weight=None):
        """int a grad u . grad u g dx over the mesh, by the assembly rule."""
        pts = tri6_points(self.mesh.corners())
        abar = _element_coefficients(pts, self.mesh.areas(), field, weight)
        grads = self.triangle_gradients()
        return float(np.einsum("mx,mxy,my->", grads, abar, grads))


def _element_coefficients(pts, areas, field, weight):
    """area * sum_q w_q g(x_q) a(x_q) per element, (M, 2, 2), from the rule points
    (M, 6, 2): P1 gradients are constant per element, so the rule acts on a alone."""
    a = field.eval(pts.reshape(-1, 2)).reshape(pts.shape[:2] + (2, 2))
    g = _eval_scalar(weight, pts)
    abar = np.einsum("q,mq,mqxy->mxy", TRI6_WEIGHTS, g, a)
    abar *= areas[:, None, None]
    return abar


def _eval_scalar(fn, pts):
    if fn is None:
        return np.ones(pts.shape[:2])
    flat = pts.reshape(-1, 2)
    vals = fn.value(flat) if hasattr(fn, "value") else fn(flat)
    return np.asarray(vals, dtype=float).reshape(pts.shape[:2])


def assemble(mesh, field, weight=None, source=None, source_weight=None):
    """Assemble the weighted stiffness matrix and load vector.

    ``field`` is a CoefficientField; ``weight`` (density g) and
    ``source_weight`` are optional scalar functions of position; ``source``
    is a SourceTerm, a callable, or None for a zero load.  Uses the
    degree-4 six-point triangle rule; interfaces are assumed mesh-aligned
    so integrands are smooth per element.
    """
    areas = mesh.areas()
    grads = mesh.p1_gradients()
    pts = tri6_points(mesh.corners())
    try:
        abar = _element_coefficients(pts, areas, field, weight)
    except FieldEvaluationError as exc:
        elem = None if exc.index is None else int(exc.index) // TRI6_BARY.shape[0]
        raise AssemblyError(f"element {elem}: {exc}", element=elem) from exc
    ke = np.einsum("mix,mxy,mjy->mij", grads, abar, grads, optimize=True)
    ke = 0.5 * (ke + np.swapaxes(ke, 1, 2))

    if source is None:
        be = np.zeros((mesh.num_triangles, 3))
    else:
        f = _eval_scalar(source, pts)
        fsw = f * _eval_scalar(source_weight, pts)
        be = np.einsum("q,mq,qi->mi", TRI6_WEIGHTS, fsw, TRI6_BARY)
        be *= areas[:, None]

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.coo_matrix((ke.ravel(), (rows, cols)),
                      shape=(mesh.num_vertices, mesh.num_vertices)).tocsr()
    b = np.zeros(mesh.num_vertices)
    np.add.at(b, tri.ravel(), be.ravel())

    free = ~mesh.boundary_flags
    free_vertices = np.flatnonzero(free)
    free_index_map = -np.ones(mesh.num_vertices, dtype=np.int64)
    free_index_map[free_vertices] = np.arange(free_vertices.size)
    K_ff = K[free_vertices][:, free_vertices].tocsr()
    K_ff.sum_duplicates()
    return SparseSystem(K_ff, b[free_vertices], free_index_map, free_vertices, mesh)


def solve_cg(system, rel_tol=1e-10, max_iter=50_000):
    """Jacobi-preconditioned conjugate gradients on the reduced system.

    Stops when ||b - K x|| <= rel_tol * ||b||; raises ConvergenceFailure
    with the residual history when the iteration cap is hit.
    """
    K = system.matrix
    b = system.rhs
    n = b.size
    norm_b = float(np.linalg.norm(b))
    x = np.zeros(n)
    if norm_b == 0.0:
        return _expand(system, x, (0, 0.0))
    diag = K.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("system diagonal is not positive")
    inv_diag = 1.0 / diag
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    history = []
    iterations = 0
    for iterations in range(1, int(max_iter) + 1):
        Kp = K @ p
        alpha = rz / float(p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        rel = float(np.linalg.norm(r)) / norm_b
        history.append(rel)
        if rel <= rel_tol:
            break
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise ConvergenceFailure(
            f"CG did not reach {rel_tol:g} in {max_iter} iterations "
            f"(residual {history[-1]:.3e})",
            residual_history=history,
        )
    return _expand(system, x, (iterations, history[-1]))


def _expand(system, x_free, report):
    mesh = system.mesh
    if mesh is None:
        return FemSolution(None, x_free, report)
    values = np.zeros(mesh.num_vertices)
    values[system.free_vertices] = x_free
    return FemSolution(mesh, values, report)


def interpolate(fn, mesh, zero_dirichlet=True):
    """Nodal interpolant of a function (or .value object) on a mesh."""
    vals = fn.value(mesh.vertices) if hasattr(fn, "value") else fn(mesh.vertices)
    vals = np.array(vals, dtype=float)
    if zero_dirichlet:
        vals[mesh.boundary_flags] = 0.0
    return FemSolution(mesh, vals, (0, 0.0))


# -- point location ---------------------------------------------------------


class _Locator:
    """Bucket index over triangle bounding boxes.

    Bucket edges sit at quantiles of the triangle centroids along each axis,
    so every row and column of buckets holds about as many centroids, and
    buckets shrink where triangles do (at a graded corner).  Candidate
    triangles per bucket are stored in ascending index order and the first
    containing triangle wins, so location is deterministic with the lowest
    triangle index breaking ties on shared edges.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        corners = mesh.corners()
        centroids = corners.mean(axis=1)
        # 2 sqrt(M) buckets per axis: of the counts measured on graded sector
        # meshes, sqrt(M/2) to 4 sqrt(M), as fast to build and query as any,
        # with fewer (bucket, triangle) pairs than the larger ones
        n_cells = max(int(2.0 * np.sqrt(mesh.num_triangles)), 1)
        q = np.arange(1, n_cells) / n_cells
        self.edges = [np.unique(np.quantile(centroids[:, a], q)) for a in (0, 1)]
        self.n_y = self.edges[1].size + 1
        tlo = corners.min(axis=1)
        thi = corners.max(axis=1)
        i0 = self._cell_idx(tlo[:, 0], 0)
        i1 = self._cell_idx(thi[:, 0], 0)
        j0 = self._cell_idx(tlo[:, 1], 1)
        j1 = self._cell_idx(thi[:, 1], 1)
        # one (cell, triangle) pair per bucket a triangle's box overlaps
        nj = j1 - j0 + 1
        cnt = (i1 - i0 + 1) * nj
        tris = np.repeat(np.arange(mesh.num_triangles), cnt)
        k = np.arange(tris.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        cells = (i0[tris] + k // nj[tris]) * self.n_y + j0[tris] + k % nj[tris]
        order = np.lexsort((tris, cells))
        self.pair_cells = cells[order]
        self.pair_tris = tris[order]
        n_total = (self.edges[0].size + 1) * self.n_y
        self.ptr = np.searchsorted(self.pair_cells, np.arange(n_total + 1))

    def _cell_idx(self, coords, axis):
        return np.searchsorted(self.edges[axis], coords, side="right")

    def locate_many(self, points, tol=1e-12):
        """Triangle index per point, -1 when outside the mesh.

        Points go in consecutive chunks of at most ``LOCATE_PAIRS``
        (point, candidate) pairs (a point with more candidates alone).
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = self._cell_idx(pts[:, 0], 0) * self.n_y + self._cell_idx(pts[:, 1], 1)
        start = self.ptr[cells]
        cnt = self.ptr[cells + 1] - start
        ends = np.cumsum(cnt)
        result = -np.ones(pts.shape[0], dtype=np.int64)
        i = 0
        while i < pts.shape[0]:
            base = ends[i - 1] if i else 0
            j = max(int(np.searchsorted(ends, base + LOCATE_PAIRS, side="right")), i + 1)
            result[i:j] = self._locate_chunk(pts[i:j], start[i:j], cnt[i:j], tol)
            i = j
        return result

    def _locate_chunk(self, pts, start, cnt, tol):
        total = int(np.sum(cnt))
        result = -np.ones(pts.shape[0], dtype=np.int64)
        if total == 0:
            return result
        p_rep = np.repeat(np.arange(pts.shape[0]), cnt)
        offs = np.concatenate([[0], np.cumsum(cnt)])
        flat = np.arange(total) - np.repeat(offs[:-1], cnt) + np.repeat(start, cnt)
        t_cand = self.pair_tris[flat]

        corners = self.mesh.vertices[self.mesh.triangles[t_cand]]
        inside = _contains(corners, pts[p_rep], tol)
        # pairs are ordered by (point, ascending triangle); first hit wins
        hit_p = p_rep[inside]
        hit_t = t_cand[inside]
        if hit_p.size:
            first = np.unique(hit_p, return_index=True)[1]
            result[hit_p[first]] = hit_t[first]
        return result


def _contains(corners, pts, tol):
    """Whether each point lies in its triangle, corners of shape (..., 3, 2)."""
    v0 = corners[..., 0, :]
    d1 = corners[..., 1, :] - v0
    d2 = corners[..., 2, :] - v0
    dp = pts - v0
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    l1 = (dp[..., 0] * d2[..., 1] - dp[..., 1] * d2[..., 0]) / det
    l2 = (d1[..., 0] * dp[..., 1] - d1[..., 1] * dp[..., 0]) / det
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)


def _locator(mesh):
    if mesh._locator is None:
        mesh._locator = _Locator(mesh)
    return mesh._locator


def locate_point(mesh, point, tol=1e-12):
    """Containing triangle index of one point, -1 when it lies outside the mesh."""
    pts = np.asarray(point, dtype=float).reshape(1, 2)
    return int(_locator(mesh).locate_many(pts, tol=tol)[0])


def evaluate_gradient(sol, point):
    """P1 gradient at one point; zero vector outside the mesh by convention."""
    t = locate_point(sol.mesh, point)
    if t < 0:
        return np.zeros(2)
    return sol.triangle_gradients()[t].copy()


def evaluate_gradient_many(sol, points, tri_grads=None):
    """Vectorized gradient evaluation; rows are zero outside the mesh."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    idx = _locator(sol.mesh).locate_many(pts)
    if tri_grads is None:
        tri_grads = sol.triangle_gradients()
    out = np.zeros((pts.shape[0], 2))
    inside = idx >= 0
    out[inside] = tri_grads[idx[inside]]
    return out


def galerkin_residual(system, sol):
    """Relative residual ||K x - b|| / ||b|| of a solved system."""
    x = sol.nodal_values[system.free_vertices]
    norm_b = float(np.linalg.norm(system.rhs))
    if norm_b == 0.0:
        return 0.0
    return float(np.linalg.norm(system.matrix @ x - system.rhs)) / norm_b


def export_solution_text(sol):
    """ASCII export: one `sol vertex_index value` line per vertex."""
    return "".join([f"sol {i} {v:.17g}\n"
                    for i, v in enumerate(sol.nodal_values.tolist())])
