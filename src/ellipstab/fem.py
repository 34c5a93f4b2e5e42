"""P1 Galerkin discretization of weighted elliptic forms, with a CG solver.

The assembled form is  Q(u, v) = int a_ij u_xi v_xj g dx  with an optional
positive density g (defaults to 1), and the load is  int f * sw * v dx with
an optional source weight sw.  Dirichlet rows and columns are eliminated
symmetrically so the reduced system stays symmetric positive definite and
a preconditioned conjugate gradient applies.  The preconditioner is the
banded Cholesky factor of the reduced matrix when its band, in the mesh's
own vertex numbering, fits ``BAND_ENTRIES`` stored entries (a ring-by-ring
sector mesh: CG then stops after one iteration), and Jacobi otherwise (a
larger uniformly refined mesh, whose numbering is not banded).

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
# about 140 bytes of temporaries each (18 MB a chunk); on a graded 96 x 64
# sector, 2^16 and 2^17 located fastest (70-73 ms, 92 ms at 2^20), and each
# doubling raised the peak memory
LOCATE_PAIRS = 1 << 17

# largest banded Cholesky factor, (bandwidth + 1) * unknowns entries (8 MB),
# taken as the CG preconditioner: a 96 x 64 sector needs 0.39 M, a once
# refined 24 x 64 one 28.6 M and keeps Jacobi
BAND_ENTRIES = 1 << 20


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
    free_vertices: np.ndarray  # unknown index -> vertex
    mesh: object

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
    return np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])


def assemble(mesh, field, weight=None, source=None, source_weight=None):
    """Assemble the weighted stiffness matrix and load vector.

    ``field`` is a CoefficientField; ``weight`` (density g) and
    ``source_weight`` are optional scalar functions of position; ``source``
    is one too (a SourceTerm, say), or None for a zero load.  Uses the
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
    K_ff = K[free_vertices][:, free_vertices].tocsr()
    K_ff.sum_duplicates()
    return SparseSystem(K_ff, b[free_vertices], free_vertices, mesh)


def solve_cg(system, rel_tol=1e-10, max_iter=50_000):
    """Preconditioned conjugate gradients on the reduced system.

    The preconditioner is the banded Cholesky factor of the matrix when
    (bandwidth + 1) * unknowns <= ``BAND_ENTRIES``, and Jacobi otherwise.
    Stops when ||b - K x|| <= rel_tol * ||b||; raises ConvergenceFailure
    with the residual history when the iteration cap is hit (with an empty
    history when the factorization fails), and ValueError for a cap below 1
    or a tolerance that is not finite and positive.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not (np.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
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
    precondition = _band_preconditioner(K)
    if precondition is None:
        inv_diag = 1.0 / diag

        def precondition(r):
            return inv_diag * r
    r = b.copy()
    z = precondition(r)
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
        z = precondition(r)
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


def _band_preconditioner(K):
    """r -> K^-1 r through K's banded Cholesky factor, or None when the band
    needs more than ``BAND_ENTRIES`` entries.  K is a symmetric CSR matrix
    with a stored diagonal; with sorted indices, the last stored column of
    row i is its rightmost."""
    if not K.has_sorted_indices:
        K = K.sorted_indices()
    n = K.shape[0]
    bw = int(np.max(K.indices[K.indptr[1:] - 1] - np.arange(n)))
    if (bw + 1) * n > BAND_ENTRIES:
        return None
    # imported here: scipy.linalg would add about 7 MB and 40 ms to every
    # import of the package, and most callers never solve
    from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

    # upper band storage, ab[bw + i - j, j] = K[i, j] for i <= j
    rows = np.repeat(np.arange(n), np.diff(K.indptr))
    upper = K.indices >= rows
    cols = K.indices[upper]
    ab = np.zeros((bw + 1, n), order="F")
    ab[bw + rows[upper] - cols, cols] = K.data[upper]
    try:
        factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except LinAlgError as exc:
        raise ConvergenceFailure(f"banded Cholesky factorization failed: {exc}") from exc

    def precondition(r):
        return cho_solve_banded((factor, False), r, check_finite=False)
    return precondition


def _expand(system, x_free, report):
    mesh = system.mesh
    if mesh is None:
        return FemSolution(None, x_free, report)
    values = np.zeros(mesh.num_vertices)
    values[system.free_vertices] = x_free
    return FemSolution(mesh, values, report)


def interpolate(fn, mesh, zero_dirichlet=True):
    """Nodal interpolant of a function of position on a mesh."""
    vals = np.array(fn(mesh.vertices), dtype=float)
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
        corners = mesh.corners()
        # containment frame per triangle, one row (v0, d1, d2, det) with
        # d1 = v1 - v0, d2 = v2 - v0 and det = d1 x d2
        v0 = corners[:, 0]
        d1 = corners[:, 1] - v0
        d2 = corners[:, 2] - v0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.frames = np.column_stack([v0, d1, d2, det])
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
        flat = np.arange(total) + np.repeat(start - (np.cumsum(cnt) - cnt), cnt)
        t_cand = self.pair_tris[flat]
        inside = _contains(self.frames[t_cand], pts[p_rep], tol)
        # pairs are ordered by (point, ascending triangle); first hit wins
        hit_p = p_rep[inside]
        hit_t = t_cand[inside]
        first = np.diff(hit_p, prepend=-1) != 0
        result[hit_p[first]] = hit_t[first]
        return result


def _contains(frames, pts, tol):
    """Whether each point (..., 2) lies in its triangle, given by its frame
    row (..., 7) of ``_Locator.frames``: both barycentric coordinates l1, l2
    and 1 - l1 - l2 are at least -tol."""
    dpx = pts[..., 0] - frames[..., 0]
    dpy = pts[..., 1] - frames[..., 1]
    det = frames[..., 6]
    l1 = (dpx * frames[..., 5] - dpy * frames[..., 4]) / det
    l2 = (frames[..., 2] * dpy - frames[..., 3] * dpx) / det
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)


def _locator(mesh):
    if mesh._locator is None:
        mesh._locator = _Locator(mesh)
    return mesh._locator


def evaluate_gradient_many(sol, points):
    """Vectorized gradient evaluation; rows are zero outside the mesh."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    idx = _locator(sol.mesh).locate_many(pts)
    out = np.zeros((pts.shape[0], 2))
    inside = idx >= 0
    out[inside] = sol.triangle_gradients()[idx[inside]]
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
