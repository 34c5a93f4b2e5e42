"""Symmetric 2x2 coefficient fields and operations on them.

Fields are closed-form evaluable functions of position (not grids), carry a
certified two-sided ellipticity estimate and remember their discontinuity
radii so meshing and quadrature can align with interfaces.  On an interface
circle the outer branch is evaluated; this measure-zero convention keeps
evaluation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import SectorDomain
from .quadrature import integrate_polar, integrate_rect


class FieldEvaluationError(ValueError):
    """Raised when a field cannot be evaluated at a point (e.g. singular Jacobian)."""

    def __init__(self, message, point=None, index=None):
        super().__init__(message)
        self.point = point
        self.index = index


@dataclass(frozen=True)
class EllipticityBounds:
    """Certified spectral bounds 0 < lower <= eig(A(x)) <= upper."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper:
            raise ValueError("need 0 < lower <= upper")


@dataclass(frozen=True)
class CoefficientField:
    """Evaluable symmetric 2x2 matrix field with an ellipticity certificate.

    ``eval`` maps an (..., 2) array of points to (..., 2, 2) matrices.
    The result may be a read-only view (a constant field broadcasts its one
    matrix), so callers copy it before writing into it.
    ``interface_radii`` lists radii of known discontinuity circles.
    """

    eval: Callable
    ellipticity: EllipticityBounds
    interface_radii: tuple = ()


def sym_eigvals(mats):
    """Eigenvalues (ascending) of symmetric 2x2 matrices, closed form."""
    m = np.asarray(mats, dtype=float)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    return np.stack([mean - disc, mean + disc], axis=-1)


def matrix_positive_part(mat):
    """Spectral positive part of a symmetric 2x2 matrix.

    Truncates negative eigenvalues to zero while keeping the eigenvectors,
    so the result is positive semidefinite and equals the input whenever
    the input already is.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices")
    if np.max(np.abs(m[..., 0, 1] - m[..., 1, 0])) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not symmetric")
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    lam1, lam2 = mean - disc, mean + disc
    # eigenvector for lam2; degenerate (b = 0, a = c) handled via axis vector
    ex = np.where(np.abs(b) > 0.0, b, np.where(a >= c, 1.0, 0.0))
    ey = np.where(np.abs(b) > 0.0, lam2 - a, np.where(a >= c, 0.0, 1.0))
    norm = np.hypot(ex, ey)
    ex, ey = ex / norm, ey / norm
    p1, p2 = np.maximum(lam1, 0.0), np.maximum(lam2, 0.0)
    out = np.empty_like(m)
    out[..., 0, 0] = p2 * ex**2 + p1 * ey**2
    out[..., 0, 1] = (p2 - p1) * ex * ey
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 1] = p2 * ey**2 + p1 * ex**2
    return out


def constant_field(matrix):
    """Field equal to one constant symmetric 2x2 matrix."""
    M = np.asarray(matrix, dtype=float).reshape(2, 2)
    if abs(M[0, 1] - M[1, 0]) > 1e-14 * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not symmetric")
    lam = sym_eigvals(M)
    if lam[0] <= 0.0:
        raise ValueError("matrix is not positive definite")

    def ev(points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(M, pts.shape[:-1] + (2, 2))

    return CoefficientField(ev, EllipticityBounds(float(lam[0]), float(lam[1])))


def identity_field():
    return constant_field(np.eye(2))


def radial_jump_field(alpha, eps):
    """Scalar conductivity ``alpha`` inside radius ``eps`` and 1 outside, times I.

    Points exactly on |x| = eps evaluate the outer branch.
    """
    alpha = float(alpha)
    eps = float(eps)
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"conductivity must be positive and finite, got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"jump radius must lie in (0, 1), got {eps}")

    def ev(points):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        scal = np.where(r < eps, alpha, 1.0)
        out = np.zeros(pts.shape[:-1] + (2, 2))
        out[..., 0, 0] = scal
        out[..., 1, 1] = scal
        return out

    return CoefficientField(
        ev,
        EllipticityBounds(min(alpha, 1.0), max(alpha, 1.0)),
        interface_radii=(eps,),
    )


def _inv_2x2(J, points):
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    bad = np.abs(det) < 1e-14
    if np.any(bad):
        idx = int(np.argmax(bad.ravel()))
        pt = np.asarray(points, dtype=float).reshape(-1, 2)[idx]
        raise FieldEvaluationError(
            f"singular Jacobian at point ({pt[0]:.6g}, {pt[1]:.6g})",
            point=tuple(pt), index=idx,
        )
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    return inv / det[..., None, None]


def pullback_field(field, bilip):
    """Pull a field back through a bi-Lipschitz map.

    Returns the field a(x) = Dphi(x)^{-1} A(phi(x)) Dphi(x)^{-T}, which
    together with the density g = |det Dphi| transports the energy of the
    original field on phi(Omega) to the reference domain.  The ellipticity
    certificate (A.lower / |Dphi|^2, A.upper * |Dphi^{-1}|^2) holds where
    the map's Lipschitz bounds are certified (r >= bilip.cert_radius).
    """
    Lf, Li = bilip.lip_bounds

    def ev(points):
        pts = np.asarray(points, dtype=float)
        J = bilip.jacobian(pts)
        Jinv = _inv_2x2(J, pts)
        A = field.eval(bilip.forward(pts))
        a = Jinv @ A @ np.swapaxes(Jinv, -1, -2)
        return 0.5 * (a + np.swapaxes(a, -1, -2))

    bounds = EllipticityBounds(field.ellipticity.lower / Lf**2,
                               field.ellipticity.upper * Li**2)
    return CoefficientField(ev, bounds, interface_radii=field.interface_radii)


def lp_distance(field_a, field_b, p, domain):
    """Entrywise-sup L^p distance, finite p >= 1, between two fields over a sector.

    The integral uses polar quadrature with radial breakpoints at both
    fields' interface radii.  The entries are divided by the largest sampled
    |a - b| before the p-th power, and the root multiplied by it, so that a
    large p neither underflows nor overflows.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"need a finite p >= 1, got {p}")
    scale = 0.0

    def entry_powers(pts):
        nonlocal scale
        d = np.subtract(field_a.eval(pts), field_b.eval(pts))
        np.abs(d, out=d)
        scale = float(np.max(d))
        if 0.0 < scale < np.inf:
            np.divide(d, scale, out=d)
        np.power(d, p, out=d)
        return d

    entry_integrals = integrate_polar(
        entry_powers, domain.beta, domain.r_inner,
        (*field_a.interface_radii, *field_b.interface_radii))
    return scale * float(np.max(entry_integrals) ** (1.0 / p))


def _quadform(mats, vecs):
    return np.einsum("...i,...ij,...j->...", vecs, mats, vecs)


def pullback_energy_gap(field, bilip, grad_v, source_region, target_region,
                        radial_breaks_source=(), radial_breaks_target=(),
                        n_panels=16):
    """Gap in the change-of-variables energy identity for a test gradient.

    Computes the energy of ``grad_v`` against ``field`` over the target
    region and the energy of the transported gradient against the pulled
    back field (weighted by g = |det Dphi|) over the source region, and
    returns (|direct - pulled|, direct, pulled).  Regions are either
    SectorDomain instances (polar quadrature) or ((x0, x1), (y0, y1))
    rectangles (tensor quadrature).
    """
    a_field = pullback_field(field, bilip)

    def direct_integrand(pts):
        return _quadform(field.eval(pts), grad_v(pts))

    def pulled_integrand(pts):
        J = bilip.jacobian(pts)
        g = bilip.density(pts)
        gv = np.einsum("...ji,...j->...i", J, grad_v(bilip.forward(pts)))
        return _quadform(a_field.eval(pts), gv) * g

    def run(region, integrand, breaks):
        if isinstance(region, SectorDomain):
            return integrate_polar(integrand, region.beta, region.r_inner, breaks,
                                   n_panels)
        (xlim, ylim) = region
        return integrate_rect(integrand, xlim, ylim, n_panels)

    direct = run(target_region, direct_integrand, radial_breaks_target)
    pulled = run(source_region, pulled_integrand, radial_breaks_source)
    return abs(direct - pulled), direct, pulled
