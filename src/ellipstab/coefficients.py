"""Symmetric 2x2 coefficient fields and operations on them.

Fields are closed-form evaluable functions of position (not grids), carry a
certified two-sided ellipticity estimate and remember their discontinuity
radii so meshing and quadrature can align with interfaces.  On an interface
circle a field takes the branch ``np.hypot(x, y) < eps`` picks, the outer one
where the rounded radius equals eps; this measure-zero convention keeps
evaluation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .geometry import SectorDomain
from .quadrature import integrate_polar, integrate_rect


class FieldEvaluationError(ValueError):
    """Raised when a field cannot be evaluated at a point (e.g. singular Jacobian)."""


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
    disc = np.hypot(0.5 * (a - c), b)  # no squares to underflow or overflow
    return np.stack([mean - disc, mean + disc], axis=-1)


def matrix_positive_part(mat):
    """Spectral positive part of a symmetric 2x2 matrix.

    Truncates negative eigenvalues to zero while keeping the eigenvectors,
    so the result is positive semidefinite and equals the input whenever
    the input already is.  With eigenvalues lam1 <= lam2 that is A for
    lam1 >= 0, 0 for lam2 <= 0, and otherwise lam2 times the projector
    (A - lam1 I) / (lam2 - lam1) onto the eigenvector of lam2, symmetrised.
    """
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices")
    if np.max(np.abs(m[..., 0, 1] - m[..., 1, 0])) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not symmetric")
    lam1, lam2 = np.moveaxis(sym_eigvals(m), -1, 0)
    mixed = (lam1 < 0.0) & (lam2 > 0.0)
    scale = np.where(mixed, lam2 / np.where(mixed, lam2 - lam1, 1.0), lam1 >= 0.0)
    out = m - np.where(mixed, lam1, 0.0)[..., None, None] * np.eye(2)
    out[..., 0, 1] = out[..., 1, 0] = 0.5 * (out[..., 0, 1] + out[..., 1, 0])
    return out * scale[..., None, None]


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

    A point takes the branch ``np.hypot(x, y) < eps`` picks, so one whose
    rounded radius is eps evaluates the outer branch.  Outside a relative
    band of 1e-14 around eps^2, x^2 + y^2 decides, since there it agrees
    with ``np.hypot``.  Inside the band ``np.hypot`` decides, and it decides
    every point when eps^2 is not a normal double (eps below about 1.5e-154).
    Each point's matrix is then taken from a two-row table, outer and inner.
    """
    alpha = float(alpha)
    eps = float(eps)
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"conductivity must be positive and finite, got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"jump radius must lie in (0, 1), got {eps}")

    eps_sq = eps * eps
    # x^2 + y^2 is within a few ulps of r^2 when eps^2 is normal, so outside
    # this relative band around eps^2 it decides as np.hypot(x, y) < eps does
    band = (eps_sq * (1.0 - 1e-14), eps_sq * (1.0 + 1e-14))
    squares_decide = eps_sq >= np.finfo(float).tiny
    branches = np.zeros((2, 2, 2))  # the outer matrix, then the inner one
    branches[:, 0, 0] = branches[:, 1, 1] = (1.0, alpha)

    def ev(points):
        pts = np.asarray(points, dtype=float)
        xy = pts.reshape(-1, 2)
        if squares_decide:
            sq = xy * xy
            r_sq = sq[:, 0] + sq[:, 1]
            inside = r_sq < eps_sq
            near = (r_sq > band[0]) & (r_sq < band[1])
            if near.any():
                inside[near] = np.hypot(xy[near, 0], xy[near, 1]) < eps
        else:
            inside = np.hypot(xy[:, 0], xy[:, 1]) < eps
        out = np.take(branches, inside.astype(np.intp), axis=0)
        return out.reshape(pts.shape[:-1] + (2, 2))

    return CoefficientField(
        ev,
        EllipticityBounds(min(alpha, 1.0), max(alpha, 1.0)),
        interface_radii=(eps,),
    )


def _inv_2x2(J, points):
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    bad = np.abs(det) < 1e-14
    if np.any(bad):
        pt = np.asarray(points, dtype=float).reshape(-1, 2)[np.argmax(bad.ravel())]
        raise FieldEvaluationError(f"singular Jacobian at point ({pt[0]:.6g}, {pt[1]:.6g})")
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
    """Entrywise-sup L^p distance, finite p >= 1, between two fields over a sector;
    an infinite or NaN p is a ValueError.

    The integral uses polar quadrature with radial breakpoints at both
    fields' interface radii.  The entries are divided by the largest sampled
    |a - b| before the p-th power, and the root multiplied by it, so that a
    large p neither underflows nor overflows.

    |a - b| is evaluated ``BLOCK_POINTS`` points at a time into one array,
    and the scale and the quadrature sum are taken over all of it, so the
    blocks do not change the result's bits.  The whole array is divided by
    the scale in one pass, which takes the scale to exactly 1 and every
    smaller entry below 1.  Only the entries other than 0 and 1 are then
    raised to the p-th power (0^p = 0 and 1^p = 1), and ``pow`` is skipped
    when there are none: a piecewise-constant field such as
    ``radial_jump_field`` has no others, and ``pow`` is slow, on zeros most
    of all.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"need a finite p >= 1, got {p}")
    scale = 0.0

    def entry_powers(pts):
        nonlocal scale
        d = np.empty(pts.shape[:-1] + (2, 2))
        block_max = []
        step = quadrature.BLOCK_POINTS
        for lo in range(0, pts.shape[0], step):
            block, out = pts[lo:lo + step], d[lo:lo + step]
            np.subtract(field_a.eval(block), field_b.eval(block), out=out)
            np.abs(out, out=out)
            block_max.append(np.max(out))
        scale = float(np.max(block_max))  # a NaN propagates
        flat = d.reshape(-1)
        if 0.0 < scale < np.inf:
            # the scale divides to exactly 1, and an entry below it to below 1
            flat /= scale
        rest = (flat != 0.0) & (flat != 1.0)  # 0^p = 0 and 1^p = 1
        if rest.any():
            flat[rest] = np.power(flat[rest], p)
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
