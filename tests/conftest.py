import numpy as np
import pytest

from ellipstab.geometry import BiLipschitzMap


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
