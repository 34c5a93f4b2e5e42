"""P1 Galerkin discretization of elliptic forms, with a CG solver.

The assembled form is  Q(u, v) = int a_ij u_xi v_xj dx  and the load is
int f v dx.  A weighted form, such as a problem on phi(Omega) moved back to
Omega with coefficient |det Dphi| Dphi^-1 (A o phi) Dphi^-T and load
(f o phi) |det Dphi|, is stated through its field and its source.
Dirichlet rows and columns are eliminated symmetrically so the reduced
system stays symmetric positive definite and a preconditioned conjugate
gradient applies.  The preconditioner is a fast-diagonalization solve when
the unknowns lie on a polar tensor grid (a sector or annulus mesh; with a
radial coefficient field, CG stops after one iteration unrefined, where the
solve inverts the matrix up to rounding, and after a few uniformly
refined, where the corner's coarser rings, even and odd, join it as two
blocks by block Gauss-Seidel), and Jacobi otherwise (a graph-domain mesh).

Assembly accumulates per-element contributions in a fixed element order,
so repeated runs are bit-identical.  Within an element, the six-point rule
is summed in fixed point order as sum_q w_q a(x_q), one array product
per point (``_rule_sum``), not by ``np.einsum``.  Einsum's three-operand
form runs a slow generic loop, and its two-operand form picks a vectorised
inner loop by the operands' strides: a read-only broadcast coefficient
view (a constant field) and a writable copy of it then sum to different
last bits.  The rule points are formed and evaluated for
``BLOCK_POINTS // 6`` elements at a time (``_element_integrals``), into
per-element arrays that the sums over elements (the matrix, the load, the
energy) then read whole, so the blocks change no bit and the whole-mesh
arrays of rule point values are never built.

The reduced matrix is an ``EdgeMatrix``: the diagonal over the free
vertices and one value per mesh edge between two free vertices, which is
every entry a P1 stiffness matrix can hold.  Each part is one
``np.bincount`` over the elements' terms in element order, so a diagonal
entry is ((0 + t_1) + t_2) + ... over the elements at its vertex in
ascending element index, and an edge entry the same over its one or two
elements, each term the element's symmetrised 0.5 (k_ij + k_ji).  The
edges are numbered (``_edge_numbering``) before the element arrays are
formed, so their sort's temporaries are freed by then.  ``EdgeMatrix @ x``
sums in an order it documents too, so CG's iterates depend on no library's
storage order.

The solve sums in orders the code fixes, so its bits do not depend on the
BLAS thread count: CG's inner products and norms are numpy's pairwise
sums (``_dot``), not BLAS ``ddot``/``dnrm2``; the separable
preconditioner's sine transform is numpy's FFT, not a dense product; and
its tridiagonal factors, of the tensor grid's modes and of the corner
rings, are one elementwise recurrence (``_ldl``).  The package imports
numpy alone; ``tests/test_import_cost.py`` guards this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import quadrature
from .geometry import polar_angle
from .quadrature import TRI6_BARY, TRI6_WEIGHTS, tri6_points

# (point, candidate triangle) pairs tested at once by the bucket locator,
# about 140 bytes of temporaries each (2.3 MB a chunk).  On fem_domain's
# beta = 1.5 pi, eps = 1e-3 annulus mesh (11 264 triangles) queried at the
# sector mesh's rule points (12 480 cells, 74 880 points), grouped
# location took about 3 ms at 2^13 to 2^16, and 2^13 and 2^14 were the
# fastest otherwise: 33-43 ms with the cells shuffled (no guess holds, so
# every point is searched) and 27-35 ms for all points ungrouped, against
# 44-78 and 35-67 ms at 2^15 and 76-112 and 73-74 ms at 2^16; ungrouped,
# evaluate_gradient_many peaked at 5.0, 6.1, 8.3 and 12.2 MB at 2^13 to
# 2^16
LOCATE_PAIRS = 1 << 14

# local vertices joined by each element's local edge e, the one opposite
# local vertex e
_EDGE_ENDS = np.array([[1, 2, 0], [2, 0, 1]])

# smallest barycentric coordinate of a grouped point kept without a bucket
# search in its group's guessed triangle: it then lies GROUP_MARGIN of that
# triangle's heights inside it, which another triangle's 1e-12 containment
# band reaches only if that triangle is over 1000 times taller
GROUP_MARGIN = 1e-9

# groups per run in grouped location (``_Locator.locate_groups``): one
# bucket search per run, for its first group's first point
GUESS_RUN = 32


class ConvergenceFailure(RuntimeError):
    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = tuple(residual_history)


@dataclass(frozen=True)
class EdgeMatrix:
    """A symmetric n x n matrix held as its diagonal and one value per
    coupled pair: entries (lo[e], hi[e]) and (hi[e], lo[e]) are values[e],
    with lo[e] < hi[e] and no pair twice; every other entry is zero.

    ``K @ x`` sums row i as (diag[i] x[i] + sum_{e: lo[e] = i} values[e]
    x[hi[e]]) + sum_{e: hi[e] = i} values[e] x[lo[e]], each inner sum from
    0 in edge order (``np.bincount``).
    """

    diag: np.ndarray  # (n,)
    lo: np.ndarray  # (E,) int
    hi: np.ndarray  # (E,) int
    values: np.ndarray  # (E,)

    @property
    def nnz(self):
        """Stored entries of the same matrix in a general sparse format."""
        return self.diag.size + 2 * self.values.size

    def __matmul__(self, x):
        n = self.diag.size
        y = self.diag * x
        y += np.bincount(self.lo, weights=self.values * x[self.hi], minlength=n)
        y += np.bincount(self.hi, weights=self.values * x[self.lo], minlength=n)
        return y

    def block(self, keep):
        """The principal block over the distinct indices ``keep``, in their
        order: its index i is this matrix's keep[i].  Its edges keep their
        order in this matrix, so with ascending ``keep`` every row of the
        block sums as that row does here."""
        pos = np.full(self.diag.size, -1)
        pos[keep] = np.arange(len(keep))
        a, b = pos[self.lo], pos[self.hi]
        inside = (a >= 0) & (b >= 0)
        a, b = a[inside], b[inside]
        return EdgeMatrix(self.diag[keep], np.minimum(a, b), np.maximum(a, b),
                          self.values[inside])


@dataclass(frozen=True)
class SparseSystem:
    """Reduced SPD system on the free (non-Dirichlet) unknowns of ``mesh``,
    which is required: unknown i is vertex free_vertices[i], in ascending
    vertex order."""

    matrix: EdgeMatrix
    rhs: np.ndarray
    free_vertices: np.ndarray  # unknown index -> vertex
    mesh: object

    @property
    def num_unknowns(self):
        return self.rhs.size


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

    def energy(self, field):
        """int a grad u . grad u dx over the mesh, by the assembly rule."""
        abar, _ = _element_integrals(self.mesh, field)
        grads = self.triangle_gradients()
        return float(np.einsum("mx,mxy,my->", grads, abar, grads))


def _element_integrals(mesh, field, source=None):
    """Per element, area * sum_q w_q a(x_q), (M, 2, 2), and the load
    area * sum_q w_q f(x_q) B_q, (M, 3), zero without a source.

    P1 gradients are constant per element, so the rule acts on a alone.  The
    rule points are formed and evaluated for ``BLOCK_POINTS // 6`` elements
    at a time; every value is per element, so the blocks do not change its
    bits.
    """
    corners, areas = mesh.corners(), mesh.areas()
    abar = np.empty((mesh.num_triangles, 2, 2))
    be = np.zeros((mesh.num_triangles, 3))
    step = max(quadrature.BLOCK_POINTS // TRI6_WEIGHTS.size, 1)
    for lo in range(0, mesh.num_triangles, step):
        s = slice(lo, lo + step)
        pts = tri6_points(corners[s])
        a = field.eval(pts.reshape(-1, 2)).reshape(pts.shape[:2] + (2, 2))
        np.multiply(_rule_sum(TRI6_WEIGHTS[None], a), areas[s, None, None], out=abar[s])
        if source is not None:
            f = _eval_scalar(source, pts)
            np.multiply(_rule_sum(TRI6_WEIGHTS * f, TRI6_BARY[None]), areas[s, None],
                        out=be[s])
    return abar, be


def _rule_sum(w, values):
    """sum_q w[:, q] * values[:, q] per element, added in rule point order q;
    w is (M, 6) or (1, 6), values (M, 6, ...) or (1, 6, ...)."""
    w = w.reshape(w.shape + (1,) * (values.ndim - 2))
    total = w[:, 0] * values[:, 0]
    for q in range(1, w.shape[1]):
        total += w[:, q] * values[:, q]
    return total


def _eval_scalar(fn, pts):
    return np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])


def assemble(mesh, field, source=None):
    """Assemble the stiffness matrix and load vector.

    ``field`` is a CoefficientField, and a weighted form's density belongs
    in it; assembly reads only its ``eval`` and is linear in it, so any
    object with an ``eval`` will do, such as the difference of two fields
    (whose matrix is then not definite in general).  ``source`` is a scalar
    function of position (a SourceTerm, say), or None for a zero load.
    Uses the degree-4 six-point triangle rule; interfaces are assumed
    mesh-aligned so integrands are smooth per element.
    """
    # the edges first, so np.unique's temporaries are gone before the
    # element arrays exist
    lo, hi, edge_of = _edge_numbering(mesh.triangles, mesh.num_vertices)
    grads = mesh.p1_gradients()
    abar, be = _element_integrals(mesh, field, source)
    ke = np.einsum("mix,mxy,mjy->mij", grads, abar, grads, optimize=True)
    del abar
    n = mesh.num_vertices
    tri = mesh.triangles.ravel()
    b = np.bincount(tri, weights=be.ravel(), minlength=n)
    del be
    diag = np.bincount(tri, weights=np.diagonal(ke, axis1=1, axis2=2).ravel(), minlength=n)
    i, j = _EDGE_ENDS
    off = 0.5 * (ke[:, i, j] + ke[:, j, i])
    del ke
    coupled = np.bincount(edge_of, weights=off.ravel(), minlength=lo.size)

    free = ~mesh.boundary_flags
    free_vertices = np.flatnonzero(free)
    unknown = np.cumsum(free) - 1  # vertex -> unknown, ascending like vertices
    keep = free[lo] & free[hi]
    matrix = EdgeMatrix(diag[free_vertices], unknown[lo[keep]], unknown[hi[keep]],
                        coupled[keep])
    return SparseSystem(matrix, b[free_vertices], free_vertices, mesh)


def _edge_numbering(triangles, n):
    """The mesh's edges, ascending in (lo, hi) (arrays lo, hi), and the edge
    index of each element's local edges (M * 3, element-major); local edge e
    joins local vertices ``_EDGE_ENDS[:, e]``.

    Numbered here rather than by ``TriMesh._edges``, whose counts and
    triangle map assembly does not need: one np.unique of a key per
    (lo, hi) pair, which sorts as the pairs do.
    """
    a, b = triangles[:, _EDGE_ENDS[0]], triangles[:, _EDGE_ENDS[1]]
    keys, edge_of = np.unique((np.minimum(a, b) * n + np.maximum(a, b)).ravel(),
                              return_inverse=True)
    lo, hi = np.divmod(keys, n)
    return lo, hi, edge_of


def solve_cg(system, rel_tol=1e-10, max_iter=50_000):
    """Preconditioned conjugate gradients on the reduced system.

    The preconditioner is ``_separable_preconditioner``'s sweep, a
    fast-diagonalization solve on a polar tensor grid and exact tridiagonal
    solves on the coarser rings inside it (even and odd, one block each),
    for a system from a mesh whose free vertices lie on such rings, and
    Jacobi otherwise.  Stops when
    ||b - K x|| <= rel_tol * ||b||; raises ConvergenceFailure with the
    residual history when the iteration cap is hit or the relative residual
    is not finite (NaN would never pass the test), and ValueError for a
    cap below 1 or a tolerance that is not finite and positive.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not (np.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    K = system.matrix
    b = system.rhs
    n = b.size
    norm_b = math.sqrt(_dot(b, b))
    x = np.zeros(n)
    if norm_b == 0.0:
        return _expand(system, x, (0, 0.0))
    diag = K.diag
    if np.any(diag <= 0.0):
        raise ValueError("system diagonal is not positive")
    precondition = _separable_preconditioner(K, system.mesh.vertices[system.free_vertices])
    if precondition is None:
        inv_diag = 1.0 / diag

        def precondition(r):
            return inv_diag * r
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    history = []
    iterations = 0
    for iterations in range(1, int(max_iter) + 1):
        Kp = K @ p
        alpha = rz / _dot(p, Kp)
        x += alpha * p
        r -= alpha * Kp
        rel = math.sqrt(_dot(r, r)) / norm_b
        history.append(rel)
        if rel <= rel_tol:
            break
        if not math.isfinite(rel):
            raise ConvergenceFailure(
                f"CG residual {rel:.3e} is not finite at iteration {iterations}",
                residual_history=history,
            )
        z = precondition(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise ConvergenceFailure(
            f"CG did not reach {rel_tol:g} in {max_iter} iterations "
            f"(residual {history[-1]:.3e})",
            residual_history=history,
        )
    return _expand(system, x, (iterations, history[-1]))


def _dot(a, b):
    """a . b by numpy's pairwise sum, whose order, unlike BLAS ddot's, does
    not depend on the thread count."""
    return float(np.add.reduce(a * b))


def _separable_preconditioner(K, xy):
    """r -> M^-1 r for a block symmetric Gauss-Seidel approximation M of K,
    or None when the unknowns, at points ``xy``, are not on a polar grid.

    Unknowns are labelled by ring (radii equal to 1e-9 relative) and by
    angle within their ring.  The tensor rings are the outermost run of the
    rings with the most unknowns, n_t; their sorted angles must agree to
    1e-9, and K may couple two of their unknowns only one ring and one
    angle apart.  On them the block solve averages K per ring (diagonal D,
    angular Th, radial R, diagonal-neighbour G) and is diagonalised by the
    orthonormal sine transform of size n_t (``_sine_transform``): angular
    mode m, with eigenvalue lam_m = 2 cos(m pi / (n_t + 1)) of the angular
    shift pair, is one tridiagonal system over the rings with diagonal
    D + Th lam_m and off-diagonal R + G lam_m / 2 (G symmetrised in angle),
    factored for all modes at once (Lynch, Rice & Thomas, Numer. Math. 6,
    1964).  The rings inside, such as the coarser ones ``refine_uniform``
    leaves at a corner (an unrefined mesh has none), form two blocks, the
    even rings and the odd ones: inside either, K may couple only angular
    neighbours of one ring, so it is exactly tridiagonal in (ring, angle)
    order, and one ``_ldl`` over every corner unknown factors both.

    M = (D~ + L) D~^-1 (D~ + U) over the blocks [even, odd, grid], with D~
    the block solves and L, U K's couplings between blocks: the sweep
    [even, odd, grid, odd, even], empty blocks dropped, at any depth.  A
    non-positive pivot, or an edge inside a block that joins no such
    neighbours, gives None, so M is symmetric positive definite.  The sweep
    sums by ``np.bincount``, the FFT and elementwise arithmetic, with no
    BLAS call.
    """
    n = K.diag.size
    r = np.hypot(xy[:, 0], xy[:, 1])
    by_r = np.argsort(r, kind="stable")
    rs = r[by_r]
    ring = np.empty(n, dtype=np.int64)
    ring[by_r] = np.concatenate([[0], np.cumsum(np.diff(rs) > 1e-9 * rs[1:])])
    counts = np.bincount(ring)
    n_t = int(counts.max())
    short = np.flatnonzero(counts != n_t)
    first = short[-1] + 1 if short.size else 0
    if first == counts.size:  # the outermost ring is not a full one
        return None
    # even corner rings, odd ones, grid; bytes, which the edges gather fastest
    block = np.where(ring < first, ring & 1, 2).astype(np.int8)
    theta = polar_angle(xy)
    order = np.lexsort((theta, ring, block))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    c_even, g0 = np.cumsum(np.bincount(block, minlength=3))[:2]
    grid = order[g0:].reshape(-1, n_t)  # unknown at (tensor ring, angle)
    th = theta[grid]
    if np.max(np.abs(th - th[-1])) > 1e-9:
        return None

    # every edge once: along a corner ring, inside the grid, or between blocks
    a, b = pos[K.lo], pos[K.hi]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    kind = block[K.lo]
    cross = kind != block[K.hi]
    along = ~cross & (kind < 2)
    if np.any(hi[along] - lo[along] != 1) or np.any(ring[K.lo[along]] != ring[K.hi[along]]):
        return None
    inside = ~cross & (kind == 2)
    rows, cols = lo[inside] - g0, hi[inside] - g0  # index ring * n_t + angle
    d_ring = cols // n_t - rows // n_t
    d_angle = np.abs(cols % n_t - rows % n_t)
    if np.any(d_ring > 1) or np.any(d_angle > 1):
        return None
    # per tensor ring, the mean coupling of kind 2 d_ring + d_angle (1 to 3;
    # 0 is the diagonal), over n_t, n_t - 1, n_t and n_t - 1 pairs; the sums
    # run scaled exactly by 2^-e, the largest diagonal entry's exponent, so a
    # ring of entries near the float maximum sums without overflow
    n_r = grid.shape[0]
    e = math.frexp(float(np.max(K.diag)))[1]
    sums = np.bincount(4 * (rows // n_t) + 2 * d_ring + d_angle,
                       weights=np.ldexp(K.values[inside], -e),
                       minlength=4 * n_r).reshape(n_r, 4)
    sums[:, 0] = np.sum(np.ldexp(K.diag[grid], -e), axis=1)
    D, Th, R, G = np.ldexp(sums / [n_t, max(n_t - 1, 1), n_t, max(n_t - 1, 1)], e).T
    lam = 2.0 * np.cos(np.arange(1, n_t + 1) * np.pi / (n_t + 1))
    grid_factor = _ldl(D[:, None] + Th[:, None] * lam,
                       R[:-1, None] + 0.5 * G[:-1, None] * lam)
    if grid_factor is None:
        return None

    def grid_solve(f):
        return _sine_transform(_ldl_solve(grid_factor, _sine_transform(f)))

    sweep = [(grid, grid_solve)]
    if g0:
        off = np.zeros(g0 - 1)
        off[lo[along]] = K.values[along]
        factor = _ldl(K.diag[order[:g0]], off)
        if factor is None:
            return None
        pivots, ell = factor
        even = (order[:c_even], partial(_ldl_solve, (pivots[:c_even], ell[:c_even - 1])))
        odd = (order[c_even:g0], partial(_ldl_solve, (pivots[c_even:], ell[c_even:])))
        sweep = [s for s in (even, odd, *sweep, odd, even) if s[0].size]
    between = EdgeMatrix(np.zeros(n), K.lo[cross], K.hi[cross], K.values[cross])

    def precondition(res):
        (idx, solve), *rest = sweep
        z = np.zeros(n)
        z[idx] = solve(res[idx])
        for idx, solve in rest:
            z[idx] = solve((res - between @ z)[idx])
        return z
    return precondition


def _ldl(diag, off):
    """The LDL^T factor (pivots, ell) of symmetric tridiagonal matrices along
    axis 0, with diagonal ``diag`` (n, ...) and off-diagonal ``off``
    (n - 1, ...), or None unless every pivot is positive.

    A single chain (1-D, the corner rings) steps on Python floats, about
    twice as fast as on numpy scalars and rounded alike; the grid's modes
    step a row at a time."""
    if diag.ndim == 1:
        pivots, ell, off = diag.tolist(), off.tolist(), off.tolist()
    else:
        pivots, ell = diag.copy(), np.empty_like(off)
    for i in range(1, len(pivots)):
        ell[i - 1] = off[i - 1] / pivots[i - 1]
        pivots[i] -= ell[i - 1] * off[i - 1]
    pivots, ell = np.asarray(pivots, dtype=float), np.asarray(ell, dtype=float)
    if not np.all(pivots > 0.0):
        return None
    return pivots, ell


def _ldl_solve(factor, f):
    """The solution of the systems ``_ldl`` factored for right-hand sides f
    (n, ...), written over f; a single chain on Python floats, as there."""
    pivots, ell = factor
    chain = f.ndim == 1
    x, ell = (f.tolist(), ell.tolist()) if chain else (f, ell)
    n = pivots.shape[0]
    for i in range(1, n):
        x[i] -= ell[i - 1] * x[i - 1]
    if chain:
        x = [a / p for a, p in zip(x, pivots.tolist())]
    else:
        x /= pivots
    for i in range(n - 2, -1, -1):
        x[i] -= ell[i] * x[i + 1]
    if chain:
        f[:] = x
    return f


def _sine_transform(x):
    """The orthonormal DST-I of each row of x, (rows, n), as x @ S with
    S_jk = sqrt(2 / (n + 1)) sin((j + 1)(k + 1) pi / (n + 1)): minus the
    imaginary part of the real FFT of the odd extension [0, x, 0, -x
    reversed], which numpy computes in a fixed order without BLAS."""
    n = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.fft.rfft(odd)[..., 1:n + 1].imag * -np.sqrt(0.5 / (n + 1))


def _expand(system, x_free, report):
    mesh = system.mesh
    values = np.zeros(mesh.num_vertices)
    values[system.free_vertices] = x_free
    return FemSolution(mesh, values, report)


# -- point location ---------------------------------------------------------


class _Locator:
    """Bucket index over triangle bounding boxes.

    Bucket edges sit at evenly spaced ranks of the sorted triangle
    centroids along each axis, so every row and column of buckets holds
    about as many centroids, and buckets shrink where triangles do (at a
    graded corner).  They decide which triangles a point is tested against,
    but not which one is located for a point in or on a triangle, since the
    triangle's bounding box overlaps that point's bucket; a point in the
    1e-12 containment band just outside a box can fall in a bucket the box
    does not overlap.  Candidate triangles per bucket are stored in
    ascending index order and the first containing triangle wins, so
    location is deterministic with the lowest triangle index breaking ties
    on shared edges.
    """

    def __init__(self, mesh):
        corners = mesh.corners()
        c0, c1, c2 = corners[:, 0], corners[:, 1], corners[:, 2]
        # containment frame per triangle, one row (v0, d1, d2, det) with
        # d1 = v1 - v0, d2 = v2 - v0 and det = d1 x d2
        d1 = c1 - c0
        d2 = c2 - c0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.frames = np.column_stack([c0, d1, d2, det])
        # the bits of corners.mean(axis=1) at a quarter of its cost
        centroids = (c0 + c1 + c2) / 3.0
        # sqrt(M) buckets per axis, at evenly spaced ranks of the sorted
        # centroids: with grouped location (``locate_groups``) the anchors
        # and unguessed groups are the only bucket queries, and fewer
        # buckets build faster
        n_cells = max(int(np.sqrt(mesh.num_triangles)), 1)
        ranks = np.arange(1, n_cells) * mesh.num_triangles // n_cells
        self.edges = [np.unique(np.sort(centroids[:, a])[ranks]) for a in (0, 1)]
        self.n_y = self.edges[1].size + 1
        n_total = (self.edges[0].size + 1) * self.n_y
        # each triangle's bucket box [i0, i1] x [j0, j1], from its corners'
        # extremes taken pairwise (a reduction over the length-3 axis is
        # several times slower).  Triangle and bucket indices are int32:
        # n_total <= (sqrt(M))^2 = M, under 2^31 for any mesh below 2^31
        # (2.1 * 10^9) triangles, whose frames alone would take 120 GB;
        # positions in the pair arrays, which can exceed both, stay int64.
        tlo = np.minimum(np.minimum(c0, c1), c2)
        thi = np.maximum(np.maximum(c0, c1), c2)
        i0, i1 = (self._cell_idx(t[:, 0], 0).astype(np.int32) for t in (tlo, thi))
        j0, j1 = (self._cell_idx(t[:, 1], 1).astype(np.int32) for t in (tlo, thi))
        del tlo, thi
        # one (cell, triangle) pair per bucket a triangle's box overlaps, in
        # ascending triangle order.  Pair k of triangle t, k < cnt_t, is
        # bucket (i0 + k // nj, j0 + k % nj), i.e. cell
        # base + k + (k // nj) (n_y - nj) with base = i0 n_y + j0; only the
        # offset k within one triangle fits in int32
        nj = j1 - j0 + 1
        cnt = (i1 - i0 + 1) * nj
        tris = np.repeat(np.arange(mesh.num_triangles, dtype=np.int32), cnt)
        k = (np.arange(tris.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)).astype(np.int32)
        cells = np.repeat(i0 * self.n_y + j0, cnt) + k
        cells += k // np.repeat(nj, cnt) * np.repeat(self.n_y - nj, cnt)
        del k
        # a stable sort by cell keeps each bucket's triangles ascending.
        # numpy sorts 16-bit keys stably by radix and wider ones by merge
        # sort, so the cells are sorted as uint16: at once below 2^16
        # buckets (fem_domain's meshes have at most 12 321), else by the low
        # 16 bits and then stably by the high ones, which is the same order
        order = np.argsort(cells.astype(np.uint16), kind="stable")
        if n_total > 2**16:
            order = order[np.argsort((cells[order] >> 16).astype(np.uint16), kind="stable")]
        self.pair_tris = tris[order]
        del tris, order
        self.ptr = np.zeros(n_total + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=n_total), out=self.ptr[1:])

    def _cell_idx(self, coords, axis):
        return np.searchsorted(self.edges[axis], coords, side="right")

    def locate_groups(self, groups):
        """Triangle index per point of groups (G, n, 2), shaped (G, n), equal
        to ``locate_many`` of the same points.

        Groups go in runs of ``GUESS_RUN``, and of each run only the first
        point of its first group (the anchor) is located.  Group g is
        guessed to lie in triangle t + g - a, clipped to the last triangle,
        where a is its run's first group and t the anchor's triangle: right
        wherever the groups are the rule points of cells numbered like the
        triangles.  An anchor outside the mesh guesses nothing.  A group
        whose points all lie ``GROUP_MARGIN`` inside its guess is kept there
        whole, and every point of every other group is located.
        """
        n_groups, n = groups.shape[:2]
        anchor = self.locate_many(groups[::GUESS_RUN, 0])
        guess = np.repeat(anchor, GUESS_RUN)[:n_groups] + np.arange(n_groups) % GUESS_RUN
        np.minimum(guess, self.frames.shape[0] - 1, out=guess)
        # an anchor outside the mesh (-1) guesses -1 (the last frame) to
        # GUESS_RUN - 2; the mask drops its run
        kept = np.repeat(anchor >= 0, GUESS_RUN)[:n_groups]
        l1, l2 = _barycentric(np.take(self.frames, guess, axis=0)[:, None], groups)
        kept &= np.all((l1 > GROUP_MARGIN) & (l2 > GROUP_MARGIN)
                       & (l1 + l2 < 1.0 - GROUP_MARGIN), axis=1)
        result = np.repeat(guess[:, None], n, axis=1)
        result[~kept] = self.locate_many(groups[~kept]).reshape(-1, n)
        return result

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
        inside = _contains(np.take(self.frames, t_cand, axis=0),
                           np.take(pts, p_rep, axis=0), tol)
        # pairs are ordered by (point, ascending triangle); first hit wins
        hit_p = p_rep[inside]
        hit_t = t_cand[inside]
        first = np.diff(hit_p, prepend=-1) != 0
        result[hit_p[first]] = hit_t[first]
        return result


def _barycentric(frames, pts):
    """Barycentric coordinates l1, l2 of each point (..., 2) in its triangle,
    given by its frame row (..., 7) of ``_Locator.frames``."""
    dpx = pts[..., 0] - frames[..., 0]
    dpy = pts[..., 1] - frames[..., 1]
    det = frames[..., 6]
    l1 = (dpx * frames[..., 5] - dpy * frames[..., 4]) / det
    l2 = (frames[..., 2] * dpy - frames[..., 3] * dpx) / det
    return l1, l2


def _contains(frames, pts, tol):
    """Whether each point lies in its triangle, as in ``_barycentric``: both
    coordinates l1, l2 and 1 - l1 - l2 are at least -tol."""
    l1, l2 = _barycentric(frames, pts)
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)


def evaluate_gradient_many(sol, points):
    """Gradient of ``sol`` at each point, the zero vector outside its mesh.

    Points (N, 2), or any shape that flattens to rows of 2, give rows
    (N, 2).  Points grouped (G, n, 2), such as the rule points of G cells,
    give (G, n, 2): a run of groups is kept in the triangles guessed from
    its first point, each group whole where all its points lie well inside
    its guess, and the points of every other group are located
    (``_Locator.locate_groups``).  Both forms give the same gradient per
    point.  Each call builds its own locator; the mesh keeps none.
    """
    pts = np.asarray(points, dtype=float)
    locator = _Locator(sol.mesh)
    if pts.ndim == 3:
        idx = locator.locate_groups(pts)
    else:
        idx = locator.locate_many(pts.reshape(-1, 2))
    # one zero row after the last triangle's gradient, which index -1 reads
    grads = np.concatenate([sol.triangle_gradients(), np.zeros((1, 2))])
    return np.take(grads, idx, axis=0)


def export_solution_text(sol):
    """ASCII export: one `sol vertex_index value` line per vertex, formatted
    in one pass over the interleaved (index, value) pairs."""
    values = sol.nodal_values.tolist()
    pairs = [None] * (2 * len(values))
    pairs[0::2] = range(len(values))
    pairs[1::2] = values
    return ("sol %d %.17g\n" * len(values)) % tuple(pairs)
