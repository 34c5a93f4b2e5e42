"""Quadrature helpers shared across the package.

Composite Gauss-Legendre rules on intervals, radial rules graded by octaves
of r between knots and toward a corner, tensor-product rules on polar
rectangles and Cartesian boxes, the degree-4 six-point triangle rule, and a
2-D Halton sequence for deterministic low-discrepancy sampling.
"""

from __future__ import annotations

import functools

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
    return np.matmul(TRI6_BARY, corners)


@functools.lru_cache(maxsize=None)
def _reference_rule(n):
    """The ``n``-point Gauss-Legendre rule on [-1, 1], built once per ``n``.

    ``leggauss`` solves an eigenvalue problem on every call; the cached
    node and weight arrays are read-only because every caller shares them.
    """
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
    x, w = _reference_rule(n_gauss)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# Corner panels stop at 2^-40 of the first knot hi.  An energy density
# ~ r^(2k-1), k = pi/beta > 1/2, loses a fraction 2^(-80k) < 2^-40 ~ 9e-13
# of its integral over (0, hi) there.  Deeper grading gains nothing and
# breaks Cartesian integrands: at 56 octaves the radial shift map's Jacobian
# loses its determinant to cancellation.
CORNER_DEPTH = 2.0**-40


def corner_cut(b, breakpoints):
    """Where the radial rule on (0, b) stops: ``CORNER_DEPTH`` times the first knot."""
    return CORNER_DEPTH * min([s for s in breakpoints if 0.0 < s < b] + [b])


def radial_edges(a, b, breakpoints=(), n_panels=8):
    """Panel edges on (a, b) honoring interior breakpoints.

    Every interval (lo, hi) between knots gets ``n_panels`` equal panels
    plus one panel per octave of r (edges hi * 2^-j above lo), which
    resolves power laws c * r^p at either end on their own scale.  On
    (0, b) the rule starts at ``corner_cut(b, breakpoints)`` and the sliver
    below is dropped.
    """
    if not b > a >= 0:
        raise ValueError("invalid radial interval")
    knots = np.unique([a, b, *(s for s in breakpoints if a < s < b)])
    if a == 0.0:
        knots[0] = corner_cut(b, breakpoints)
    edges = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        edges.extend(np.linspace(lo, hi, n_panels + 1))
        edges.extend(hi * 0.5 ** np.arange(1, np.log2(hi / lo)))
    return np.unique(edges)


def integrate_radial(f, a, b, breakpoints=()):
    """Integrate ``f(r)`` over (a, b) with breakpoint-aligned panels.

    The caller includes any Jacobian factor (such as the polar weight r)
    in ``f`` itself.
    """
    nodes, weights = gauss_on_panels(radial_edges(a, b, breakpoints))
    return float(np.dot(weights, f(nodes)))


# Gauss points per panel and direction of the 2D tensor rules
TENSOR_GAUSS = 12


def integrate_polar(f_xy, beta, r_inner, radial_breaks=(), n_panels=8):
    """Integrate a Cartesian-argument function over a (possibly annular) unit sector.

    ``f_xy`` maps an (N, 2) array of points to N values, or to an (N, ...)
    array integrated entrywise; the polar area weight r is applied here.
    ``n_panels`` is the radial rule's equal panels per knot interval and
    the number of angular panels.
    """
    rn, rw = gauss_on_panels(
        radial_edges(r_inner, 1.0, radial_breaks, n_panels), TENSOR_GAUSS)
    tn, tw = gauss_on_panels(np.linspace(0.0, beta, n_panels + 1), TENSOR_GAUSS)
    r = rn[:, None]
    pts = np.stack([r * np.cos(tn), r * np.sin(tn)], axis=-1).reshape(-1, 2)
    vals = np.asarray(f_xy(pts), dtype=float)
    total = np.tensordot((rw[:, None] * tw[None, :] * r).ravel(), vals, axes=1)
    return float(total) if total.ndim == 0 else total


def integrate_rect(f_xy, xlim, ylim, n_panels):
    """Integrate a Cartesian-argument function over an axis-aligned box,
    ``n_panels`` panels per side."""
    xn, xw = gauss_on_panels(np.linspace(xlim[0], xlim[1], n_panels + 1), TENSOR_GAUSS)
    yn, yw = gauss_on_panels(np.linspace(ylim[0], ylim[1], n_panels + 1), TENSOR_GAUSS)
    X, Y = np.meshgrid(xn, yn, indexing="ij")
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    vals = np.asarray(f_xy(pts), dtype=float).reshape(X.shape)
    return float(np.sum(xw[:, None] * yw[None, :] * vals))


def _van_der_corput(n, base):
    idx = np.arange(1, n + 1, dtype=np.int64)
    out = np.zeros(n)
    f = 1.0 / base
    while np.any(idx > 0):
        out += f * (idx % base)
        idx //= base
        f /= base
    return out


def halton(n):
    """First ``n`` points of the 2D Halton sequence (bases 2 and 3) in [0, 1)^2."""
    return np.stack([_van_der_corput(n, 2), _van_der_corput(n, 3)], axis=1)
