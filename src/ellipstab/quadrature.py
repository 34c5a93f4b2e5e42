"""Quadrature helpers shared across the package.

Composite Gauss-Legendre rules on intervals, radial rules with geometric
refinement toward a corner, tensor-product rules on polar rectangles and
Cartesian boxes, the degree-4 six-point triangle rule, and a Halton
sequence for deterministic low-discrepancy sampling.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

# Degree-4 symmetric 6-point rule on the reference triangle.
# Barycentric coordinates and weights (weights sum to 1, scale by area).
TRI6_BARY = np.array(
    [
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
    ]
)
TRI6_WEIGHTS = np.array(
    [
        0.109951743655322,
        0.109951743655322,
        0.109951743655322,
        0.223381589678011,
        0.223381589678011,
        0.223381589678011,
    ]
)


def tri6_points(corners):
    """Physical points of the six-point rule, corners (..., 3, 2) -> (..., 6, 2)."""
    return np.einsum("qi,...ix->...qx", TRI6_BARY, corners)


def gauss_on_panels(edges, n_gauss=16):
    """Composite Gauss-Legendre nodes and weights over consecutive panels.

    ``edges`` is an increasing 1D array of panel boundaries; each panel
    gets an ``n_gauss``-point rule.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    x, w = leggauss(n_gauss)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def radial_edges(a, b, breakpoints=(), n_panels=8, r_floor=1e-12,
                 cluster_levels=26):
    """Panel edges on (a, b) honoring interior breakpoints.

    Every interval between breakpoints is split into ``n_panels`` equal
    panels plus panels shrinking geometrically (ratio 1/2,
    ``cluster_levels`` deep) toward both interval ends, which resolves
    boundary layers at interfaces.  When ``a == 0`` the first interval is
    instead refined toward the corner in absolute scale down to
    ``r_floor``, for integrands behaving like a power of r there; the
    remaining sliver (0, r_floor) is dropped.
    """
    if not b > a >= 0:
        raise ValueError("invalid radial interval")
    if a == 0.0 and r_floor <= 0.0:
        raise ValueError("corner refinement needs a positive r_floor")
    knots = [a]
    for s in sorted(set(float(x) for x in breakpoints)):
        if a < s < b and s - knots[-1] > 1e-14:
            knots.append(s)
    knots.append(b)
    edges = []
    two_sided = 0.5 ** np.arange(1, cluster_levels + 1)
    for i, (lo, hi) in enumerate(zip(knots[:-1], knots[1:])):
        half = 0.5 * (hi - lo)
        if i == 0 and a == 0.0:
            geo = [hi]
            r = hi
            while r > r_floor:
                r *= 0.5
                geo.append(max(r, r_floor))
            edges.extend(geo)
        else:
            edges.extend(np.linspace(lo, hi, n_panels + 1))
            edges.extend(lo + half * two_sided)
        edges.extend(hi - half * two_sided)
    edges = np.unique(np.asarray(edges, dtype=float))
    return edges[np.concatenate([[True], np.diff(edges) > 1e-300])]


def integrate_radial(f, a, b, breakpoints=(), n_gauss=16, n_panels=8, r_floor=1e-12):
    """Integrate ``f(r)`` over (a, b) with breakpoint-aligned panels.

    The caller includes any Jacobian factor (such as the polar weight r)
    in ``f`` itself.
    """
    edges = radial_edges(a, b, breakpoints, n_panels=n_panels, r_floor=r_floor)
    nodes, weights = gauss_on_panels(edges, n_gauss)
    return float(np.dot(weights, f(nodes)))


def integrate_polar(f_xy, beta, r_inner, r_outer, radial_breaks=(),
                    n_gauss=12, n_radial_panels=8, n_angular_panels=8,
                    r_floor=1e-12):
    """Integrate a Cartesian-argument function over a (possibly annular) sector.

    ``f_xy`` maps an (N, 2) array of points to N values; the polar area
    weight r is applied here.
    """
    r_edges = radial_edges(r_inner, r_outer, radial_breaks,
                           n_panels=n_radial_panels, r_floor=r_floor)
    rn, rw = gauss_on_panels(r_edges, n_gauss)
    tn, tw = gauss_on_panels(np.linspace(0.0, beta, n_angular_panels + 1), n_gauss)
    R, T = np.meshgrid(rn, tn, indexing="ij")
    pts = np.stack([R * np.cos(T), R * np.sin(T)], axis=-1).reshape(-1, 2)
    vals = np.asarray(f_xy(pts), dtype=float).reshape(R.shape)
    w2 = rw[:, None] * tw[None, :] * R
    return float(np.sum(w2 * vals))


def integrate_rect(f_xy, xlim, ylim, n_gauss=12, nx_panels=8, ny_panels=8):
    """Integrate a Cartesian-argument function over an axis-aligned box."""
    xn, xw = gauss_on_panels(np.linspace(xlim[0], xlim[1], nx_panels + 1), n_gauss)
    yn, yw = gauss_on_panels(np.linspace(ylim[0], ylim[1], ny_panels + 1), n_gauss)
    X, Y = np.meshgrid(xn, yn, indexing="ij")
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    vals = np.asarray(f_xy(pts), dtype=float).reshape(X.shape)
    return float(np.sum(xw[:, None] * yw[None, :] * vals))


def _van_der_corput(n, base, start=1):
    idx = np.arange(start, start + n, dtype=np.int64)
    out = np.zeros(n)
    f = 1.0 / base
    while np.any(idx > 0):
        out += f * (idx % base)
        idx //= base
        f /= base
    return out


def halton(n, dim=2, start=1):
    """First ``n`` points of the Halton sequence in [0, 1)^dim (deterministic)."""
    bases = (2, 3, 5, 7)[:dim]
    return np.stack([_van_der_corput(n, b, start) for b in bases], axis=1)
