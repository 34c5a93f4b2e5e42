"""Gradient error functionals across meshes, domains and analytic solutions.

Errors between solutions on different domains follow the extension-by-zero
convention: a gradient is the zero vector outside its own mesh, so the L2
distance is taken over a quadrature mesh of the union region, independent
of either solution mesh.
"""

from __future__ import annotations

import numpy as np

from .fem import FemSolution, evaluate_gradient_many
from .quadrature import (BLOCK_POINTS, TRI6_BARY, TRI6_WEIGHTS, corner_cut, corner_rule,
                         gauss_on_panels, integrate_radial, tri6_points)


class DivergentNormError(ArithmeticError):
    """The gradient norm is infinite: q is at or above the threshold q*."""


def h1_error_vs_analytic(sol, exact):
    """L2 norm of grad(u_h) - grad(u_exact) over the solution mesh.

    Regular cells take the six-point rule and cells touching the corner
    r = 0 ``quadrature.corner_rule``, graded toward that vertex to resolve
    the r^(k-1) gradient singularity.  Each rule takes its cells in blocks
    of about ``BLOCK_POINTS`` points, with one ``exact.gradient`` call per
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

    total = 0.0
    for (bary, weights), cells, cell_tris in (
            ((TRI6_BARY, TRI6_WEIGHTS), regular, tris[regular]),
            (corner_rule(), corner_tris, apex_first)):
        terms = np.empty((cells.size, weights.size))
        step = max(BLOCK_POINTS // weights.size, 1)
        for lo in range(0, cells.size, step):
            s = slice(lo, lo + step)
            pts = np.matmul(bary, mesh.vertices[cell_tris[s]])
            d = tri_grads[cells[s], None] - exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
            np.multiply(areas[cells[s], None] * weights, np.sum(d**2, axis=-1), out=terms[s])
        total += float(np.sum(terms))
    return float(np.sqrt(max(total, 0.0)))


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
    w, dw = sol.radial_profile, sol.radial_derivative
    t_nodes, t_weights = gauss_on_panels(np.linspace(0.0, dom.beta, 9), 16)
    sin2 = np.sin(k * t_nodes) ** 2
    cos2 = np.cos(k * t_nodes) ** 2

    def integrand(r):
        grad2 = dw(r)[:, None] ** 2 * sin2 + (k * w(r) / r)[:, None] ** 2 * cos2
        return grad2 ** (0.5 * q) @ t_weights * r

    total = integrate_radial(integrand, dom.r_inner, 1.0, sol.breakpoints)
    if dom.r_inner == 0.0:
        cut = corner_cut(1.0, sol.breakpoints)
        total += cut * integrand(np.array([cut]))[0] / (2.0 - 2.0 * q / sol.q_star)
    return float(total ** (1.0 / q))
