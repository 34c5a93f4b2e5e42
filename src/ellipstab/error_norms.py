"""Gradient error functionals across meshes, domains and analytic solutions.

Errors between solutions on different domains follow the extension-by-zero
convention: a gradient is the zero vector outside its own mesh, so the L2
distance is taken over a quadrature mesh of the union region, independent
of either solution mesh.
"""

from __future__ import annotations

import numpy as np

from .analytic import SeparableSolution
from .fem import FemSolution, evaluate_gradient_many
from .geometry import polar_angle
from .quadrature import (BLOCK_POINTS, TRI6_BARY, TRI6_WEIGHTS, _reference_rule, corner_cut,
                         corner_rule, gauss_on_panels, integrate_radial, tri6_points)


class DivergentNormError(ArithmeticError):
    """The gradient norm is infinite: q is at or above the threshold q*."""


def h1_error_vs_analytic(sol, exact):
    """L2 norm of grad(u_h) - grad(u_exact) over the solution mesh.

    Regular cells take the six-point rule.  A cell touching the corner
    r = 0 is integrated exactly in r (``_corner_cell_errors``) when
    ``exact`` is a ``SeparableSolution`` whose corner terms c r^p all have
    p > 0 and the cell lies in its first piece; any other corner cell takes
    ``quadrature.corner_rule``, graded toward that vertex to resolve the
    r^(k-1) gradient singularity.  Each rule takes its cells in blocks of
    about ``BLOCK_POINTS`` points, with one ``exact.gradient`` call per
    block, and writes area * w * |grad u_h - grad u|^2 into one (cells,
    points) array, summed once: the blocks do not change the result's bits.
    """
    mesh = sol.mesh
    tri_grads = sol.triangle_gradients()
    areas = mesh.areas()
    tris = mesh.triangles

    on_corner = (np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]) <= 1e-12)[tris]
    touches = np.any(on_corner, axis=1)
    regular, corner_tris = np.flatnonzero(~touches), np.flatnonzero(touches)
    # each corner cell's vertices in order, starting at the apex
    loc = np.argmax(on_corner[corner_tris], axis=1)
    apex_first = np.take_along_axis(tris[corner_tris], (loc[:, None] + np.arange(3)) % 3, 1)
    in_r = np.zeros(corner_tris.size, dtype=bool)
    if isinstance(exact, SeparableSolution) and all(p > 0.0 for _, p in exact.pieces[0][1]):
        far = mesh.vertices[apex_first[:, 1:]]
        in_r = np.max(np.hypot(far[..., 0], far[..., 1]), axis=1) <= exact.pieces[0][0]

    total = 0.0
    for (bary, weights), cells, corners in (
            ((TRI6_BARY, TRI6_WEIGHTS), regular, mesh.corners()[regular]),
            (corner_rule(), corner_tris[~in_r], mesh.vertices[apex_first[~in_r]])):
        terms = np.empty((cells.size, weights.size))
        step = max(BLOCK_POINTS // weights.size, 1)
        for lo in range(0, cells.size, step):
            s = slice(lo, lo + step)
            pts = np.matmul(bary, corners[s])
            grad = exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
            dx = tri_grads[cells[s], None, 0] - grad[..., 0]
            dy = tri_grads[cells[s], None, 1] - grad[..., 1]
            np.multiply(areas[cells[s], None] * weights, dx * dx + dy * dy, out=terms[s])
        total += float(np.sum(terms))
    if np.any(in_r):
        cells = corner_tris[in_r]
        total += float(np.sum(_corner_cell_errors(
            exact, mesh.vertices[apex_first[in_r]], tri_grads[cells], areas[cells])))
    return float(np.sqrt(max(total, 0.0)))


def _corner_cell_errors(exact, corners, grads, areas):
    """Integral of |g - grad u|^2 over each corner cell, exactly in r.

    ``corners`` (m, 3, 2) hold each cell's apex, at the origin, then its far
    corners P and Q, which lie in the first piece of ``exact``, where
    u = sum c r^p sin(k theta) with every p > 0; ``grads`` (m, 2) hold g and
    ``areas`` (m,) the cell areas A.  About the apex the cell is
    0 <= r <= R(theta) = (n . P) / (n . e_r(theta)), n normal to PQ, for
    theta between the polar angles of P and Q in [0, 2 pi) (a cell at
    theta = beta near 2 pi is not split at 0).  The value is
    |g|^2 A - 2 g . int grad u + int |grad u|^2, where integrating in r gives

        int grad u = int e_r sin(k theta) sum c p R^(p+1) / (p+1)
                         + e_theta k cos(k theta) sum c R^(p+1) / (p+1) dtheta,
        int |grad u|^2 = int sum_ij c_i c_j (p_i p_j sin^2(k theta)
                         + k^2 cos^2(k theta)) R^(p_i+p_j) / (p_i+p_j) dtheta,

    both smooth in theta, which takes a 16-point Gauss rule.
    """
    k = exact.angular_wavenumber
    c, p = np.array(exact.pieces[0][1], dtype=float).reshape(-1, 2).T
    far = corners[:, 1:]
    t_p, t_q = polar_angle(far).T
    x, w = _reference_rule(16)
    half = 0.5 * (t_q - t_p)
    theta = (0.5 * (t_p + t_q))[:, None] + half[:, None] * x
    weights = np.abs(half)[:, None] * w
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    edge = far[:, 1] - far[:, 0]  # Q - P; n = (edge_y, -edge_x) up to scale
    dist = edge[:, 1] * far[:, 0, 0] - edge[:, 0] * far[:, 0, 1]
    R = dist[:, None] / (edge[:, 1, None] * cos_t - edge[:, 0, None] * sin_t)
    sin_k, cos_k = np.sin(k * theta), np.cos(k * theta)

    r_p = R[..., None] ** (p + 1.0)
    radial = sin_k * (r_p @ (c * p / (p + 1.0)))
    angular = k * cos_k * (r_p @ (c / (p + 1.0)))
    mean_x = np.sum(weights * (radial * cos_t - angular * sin_t), axis=1)
    mean_y = np.sum(weights * (radial * sin_t + angular * cos_t), axis=1)

    pp = p[:, None] + p
    cc = np.outer(c, c) / pp
    r_pp = (R[..., None, None] ** pp).reshape(R.shape + (-1,))
    energy = np.sum(weights * (sin_k**2 * (r_pp @ (cc * np.outer(p, p)).ravel())
                               + k * k * cos_k**2 * (r_pp @ cc.ravel())), axis=1)
    g_x, g_y = grads.T
    return (g_x * g_x + g_y * g_y) * areas - 2.0 * (g_x * mean_x + g_y * mean_y) + energy


def cross_domain_gradient_error(sol_a, sol_b, quad_mesh):
    """L2 distance of two discrete gradients over ``quad_mesh``.

    Each solution's gradient is taken at the six rule points of every
    ``quad_mesh`` cell and is zero outside the solution's own mesh.  A
    solution whose mesh is ``quad_mesh`` itself takes its own cell's
    gradient at each of the cell's rule points, which lie inside that cell;
    any other solution's gradients are looked up by point location in its
    mesh, the six points of a cell as one group: where the meshes align,
    the points after a cell's first are kept in its first point's triangle
    without a search.  A quadrature mesh covering the union of both
    solution meshes whose cells align with both makes the
    piecewise-constant integrand exact per cell.
    """
    pts = tri6_points(quad_mesh.corners())

    def rule_gradients(sol):
        if sol.mesh is quad_mesh:
            return np.repeat(sol.triangle_gradients()[:, None], TRI6_WEIGHTS.size, axis=1)
        return evaluate_gradient_many(sol, pts)

    f2 = np.sum((rule_gradients(sol_a) - rule_gradients(sol_b)) ** 2, axis=-1)
    total = np.sum(quad_mesh.areas()[:, None] * TRI6_WEIGHTS * f2)
    return float(np.sqrt(max(total, 0.0)))


def lq_gradient_norm(sol, q):
    """L^q norm of the gradient, q > 2.

    For a discrete solution the piecewise-constant gradient integrates
    exactly.  A separable solution's gradient lies in L^q exactly for
    q < ``sol.q_star``; at or above it DivergentNormError is raised.  Below
    it, |grad u|^q is summed over an angular Gauss rule at the radial nodes.
    Near the corner that sum f(r) behaves like r^(s-1), s = 2 - 2q/q*, so
    the sliver (0, cut) the radial rule drops adds exactly cut * f(cut) / s.
    """
    if q <= 2.0:
        raise ValueError("exponent must exceed 2")
    if isinstance(sol, FemSolution):
        g = sol.triangle_gradients()
        mag = np.sqrt(np.sum(g**2, axis=1))
        return float(np.sum(sol.mesh.areas() * mag**q) ** (1.0 / q))
    if q >= sol.q_star:
        raise DivergentNormError(
            f"L^{q:g} gradient norm is infinite: the gradient lies in L^q "
            f"only for q < {sol.q_star:g}")

    k = sol.angular_wavenumber
    dom = sol.domain
    t_nodes, t_weights = gauss_on_panels(np.linspace(0.0, dom.beta, 9), 16)
    sin2 = np.sin(k * t_nodes) ** 2
    cos2 = np.cos(k * t_nodes) ** 2

    def integrand(r):
        w, dw = sol._profile(r)
        grad2 = dw[:, None] ** 2 * sin2 + (k * w / r)[:, None] ** 2 * cos2
        return grad2 ** (0.5 * q) @ t_weights * r

    total = integrate_radial(integrand, dom.r_inner, 1.0, sol.breakpoints)
    if dom.r_inner == 0.0:
        cut = corner_cut(1.0, sol.breakpoints)
        total += cut * integrand(np.array([cut]))[0] / (2.0 - 2.0 * q / sol.q_star)
    return float(total ** (1.0 / q))
