import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from ellipstab import fem, quadrature
from ellipstab.analytic import SourceTerm, jump_solution
from ellipstab.coefficients import (CoefficientField, EllipticityBounds, FieldEvaluationError,
                                    identity_field, radial_jump_field)
from ellipstab.experiments import bound_check
from ellipstab.geometry import BiLipschitzMap, SectorDomain
from ellipstab.meshing import graded_radii, mesh_sector, mesh_sector_from_radii, refine_uniform

# the convergence check of the fem_domain error, which README states: the
# joint refinements, the bounds on the order at which the relative gap to
# the closed form shrinks between consecutive ones, and the (beta / pi, eps)
# points where the bounds hold and where they do not, with what was measured
FEM_ORDER_MESHES = ((48, 32), (96, 64), (192, 128))
FEM_ORDER_BOUNDS = (1.2, 2.5)
FEM_ORDER_CLEAN = ((1.1, 1e-2), (1.1, 1e-3), (1.5, 1e-2), (1.9, 1e-2), (1.9, 1e-3))
FEM_ORDER_UNCLEAN = {
    (1.1, 1e-4): "gaps +3.9e-2 / +1.0e-2 / +6.9e-3, orders 1.94 and 0.56",
    (1.5, 1e-3): "gaps -1.6e-4 / +9.0e-5 / +1.4e-4",
    (1.5, 1e-4): "gaps -4.6e-4 / -4.4e-4 / +2.1e-3",
    (1.9, 1e-4): "orders 1.65 and 3.40",
}


def affine_map(matrix, offset=(0.0, 0.0), e_set_measure=float("nan")):
    """Affine map x -> M x + b with exact inverse and operator-norm bounds."""
    M = np.asarray(matrix, dtype=float).reshape(2, 2)
    b = np.asarray(offset, dtype=float).reshape(2)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-14:
        raise ValueError("affine matrix is singular")
    Minv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det

    def fwd(points):
        return np.asarray(points, dtype=float) @ M.T + b

    def inv(points):
        return (np.asarray(points, dtype=float) - b) @ Minv.T

    def jac(points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(M, pts.shape[:-1] + (2, 2)).copy()

    op = float(np.linalg.norm(M, 2))
    op_inv = float(np.linalg.norm(Minv, 2))
    return BiLipschitzMap(fwd, jac, inv, (op, op_inv), e_set_measure)


def annulus_meshes(beta, eps, n_radial, n_angular, aligned=None):
    """Sector and annulus meshes on shared radii, as the FEM domain study
    builds them (grading 3, node circles at eps and 2 eps); ``aligned``
    replaces the sector mesh's node circles."""
    eps_radii = graded_radii(SectorDomain(beta), n_radial, 3.0, aligned_radii=(eps, 2.0 * eps))
    radii = eps_radii if aligned is None else graded_radii(
        SectorDomain(beta), n_radial, 3.0, aligned_radii=aligned)
    return (mesh_sector_from_radii(SectorDomain(beta), radii, n_angular),
            mesh_sector_from_radii(SectorDomain(beta, r_inner=eps), eps_radii[eps_radii >= eps],
                                   n_angular))


def raised_majorant_check(study, beta, eps_exponent):
    """``bound_check`` of a domain study's errors against its majorant with
    the eps-exponent (q-2)/q raised to ``eps_exponent``:
    (2 beta)^((q-2)/(2q)) eps^eps_exponent, with the study's q and constant."""
    bound = study.bound
    q, m_const = bound.hypothesis_params
    rhs = [(2.0 * beta) ** ((q - 2.0) / (2.0 * q)) * eps**eps_exponent for eps in bound.eps]
    return bound_check(bound.eps, bound.lhs_series, rhs, q, m_const)


def weighted(field, g):
    """The field g a: each matrix of ``field`` times the scalar function g of
    position, with ``field``'s interface radii.  A weighted form is
    assembled as this field; its ellipticity certificate is ``field``'s,
    which assembly does not read."""
    def ev(points):
        pts = np.asarray(points, dtype=float)
        return np.asarray(g(pts), dtype=float)[..., None, None] * field.eval(pts)

    return dataclasses.replace(field, eval=ev)


def galerkin_residual(system, sol):
    """Relative residual ||K x - b|| / ||b|| of a solved system."""
    x = sol.nodal_values[system.free_vertices]
    norm_b = float(np.linalg.norm(system.rhs))
    if norm_b == 0.0:
        return 0.0
    return float(np.linalg.norm(system.matrix @ x - system.rhs)) / norm_b


def interpolate(fn, mesh, zero_dirichlet=True):
    """Nodal interpolant of a function of position on a mesh."""
    vals = np.array(fn(mesh.vertices), dtype=float)
    if zero_dirichlet:
        vals[mesh.boundary_flags] = 0.0
    return fem.FemSolution(mesh, vals, (0, 0.0))


def to_csr(matrix):
    """An ``fem.EdgeMatrix`` as a scipy CSR matrix with sorted indices, for
    tests that need scipy's matrix API (toarray, spsolve, sums)."""
    n = matrix.diag.size
    idx = np.arange(n)
    rows = np.concatenate([idx, matrix.lo, matrix.hi])
    cols = np.concatenate([idx, matrix.hi, matrix.lo])
    data = np.concatenate([matrix.diag, matrix.values, matrix.values])
    csr = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    csr.sort_indices()
    return csr


def edge_matrix(a):
    """An ``fem.EdgeMatrix`` from a symmetric matrix, dense or scipy sparse:
    its diagonal and its nonzero upper entries, ascending in (row, col)."""
    upper = sp.triu(sp.csr_matrix(a), k=1).tocsr()
    upper.sort_indices()
    upper.eliminate_zeros()
    rows = np.repeat(np.arange(upper.shape[0]), np.diff(upper.indptr))
    return fem.EdgeMatrix(sp.csr_matrix(a).diagonal(), rows, upper.indices.astype(np.int64),
                          upper.data)


def symmetry_defect(system):
    """Largest |K - K^T| entry of a system's matrix, which must be a valid
    edge list: lo < hi and no pair twice."""
    K = system.matrix
    assert np.all(K.lo < K.hi)
    assert np.unique(K.lo * K.diag.size + K.hi).size == K.lo.size
    d = to_csr(K) - to_csr(K).T
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0


def total_area(mesh):
    return float(np.sum(mesh.areas()))


def min_angle_deg(mesh):
    """Smallest interior angle of a mesh's triangles, in degrees."""
    p = mesh.corners()
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.degrees(np.min(angles)))


def smooth_bump_gradient(center, radius, cutoff=1e-3):
    """Gradient of a C-infinity bump supported in the disc around ``center``.

    The bump is exp(1 - rho^2/(rho^2 - |y-c|^2)) inside the disc and 0
    outside; all derivatives vanish at the support boundary, so composite
    Gauss quadrature converges fast through the seam.
    """
    c = np.asarray(center, dtype=float)
    rho2 = float(radius) ** 2

    def grad(pts):
        pts = np.asarray(pts, dtype=float)
        d = pts - c
        s = np.sum(d**2, axis=-1)
        out = np.zeros(pts.shape)
        ok = s < rho2 * (1.0 - cutoff)
        w = np.exp(1.0 - rho2 / (rho2 - s[ok])) * (-2.0 * rho2 / (rho2 - s[ok]) ** 2)
        out[ok] = w[..., None] * d[ok]
        return out

    return grad


def identity_failing_at(point, calls=None):
    """The identity field, except that evaluating it at ``point`` raises
    FieldEvaluationError; each call's point count is appended to ``calls``."""
    ident = identity_field()

    def ev(pts):
        if calls is not None:
            calls.append(len(pts))
        if np.any(np.all(pts == point, axis=-1)):
            raise FieldEvaluationError("bad point")
        return ident.eval(pts)

    return CoefficientField(ev, EllipticityBounds(1.0, 1.0))


@pytest.fixture
def block_points(monkeypatch):
    """Sets ``quadrature.BLOCK_POINTS``, which every blocked evaluation
    reads when it runs; None keeps it."""
    def set_to(n):
        if n is not None:
            monkeypatch.setattr(quadrature, "BLOCK_POINTS", n)
    return set_to


@pytest.fixture(scope="session")
def refined_jump():
    """The ``fem_refine`` workload's finest solve: a graded 24 x 64 sector (beta =
    1.5 pi, jump radius 0.3, alpha = 2) refined twice, 50 176 triangles, and
    its exact solution."""
    beta = 1.5 * np.pi
    mesh = mesh_sector(SectorDomain(beta), 24, 64, grading=3.0, aligned_radii=(0.3,))
    for _ in range(2):
        mesh = refine_uniform(mesh)
    field = radial_jump_field(2.0, 0.3)
    sol = fem.solve_cg(fem.assemble(mesh, field, source=SourceTerm(beta)))
    return sol, field, jump_solution(beta, 2.0, 0.3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
