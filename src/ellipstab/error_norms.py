"""Gradient error functionals across meshes, domains and analytic solutions.

Errors between solutions on different domains follow the extension-by-zero
convention: a gradient is the zero vector outside its own mesh, so the L2
distance is taken over a quadrature mesh of the union region, independent
of either solution mesh.
"""

from __future__ import annotations

import numpy as np

from .fem import FemSolution, evaluate_gradient_many
from .quadrature import (TRI6_WEIGHTS, corner_cut, gauss_on_panels, integrate_radial,
                         tri6_points)


class DivergentNormError(ArithmeticError):
    """The gradient norm is infinite: q is at or above the threshold q*."""


def _integrate_f2_on_triangle(f2, corners):
    """Apply the 6-point rule to f2 (squared-difference integrand) per triangle.

    ``corners`` has shape (T, ..., 3, 2); f2 maps points of shape (T, n, 2)
    to values of shape (T, n), so it can tell which of the T groups a point
    belongs to.
    """
    pts = tri6_points(corners)
    per_group = int(np.prod(pts.shape[1:-1]))
    vals = np.asarray(f2(pts.reshape(len(pts), per_group, 2))).reshape(pts.shape[:-1])
    e1 = corners[..., 1, :] - corners[..., 0, :]
    e2 = corners[..., 2, :] - corners[..., 0, :]
    area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    return np.sum(area[..., None] * TRI6_WEIGHTS * vals, axis=-1)


# halvings toward the apex; 2^-30 leaves a negligible innermost triangle
CORNER_LEVELS = 30


def integrate_corner_triangles(f2, apex, p, q):
    """Integrate toward singular apexes by geometric triangle subdivision.

    ``apex``, ``p`` and ``q`` are (T, 2) arrays, one triangle per row, and
    f2 is as in ``_integrate_f2_on_triangle``.  Each of ``CORNER_LEVELS``
    levels splits off similar triangles scaled by 1/2 toward the apex; each
    ring (a trapezoid, two triangles) uses the standard rule, and the
    innermost triangle is added with the plain rule once its scale is
    negligible.
    Returns the (T,) integrals.
    """
    apex = np.asarray(apex, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = np.zeros(len(apex))
    for _ in range(CORNER_LEVELS):
        p_half = apex + 0.5 * (p - apex)
        q_half = apex + 0.5 * (q - apex)
        ring = np.stack([np.stack([p_half, p, q], axis=1),
                         np.stack([p_half, q, q_half], axis=1)], axis=1)
        total += np.sum(_integrate_f2_on_triangle(f2, ring), axis=1)
        p, q = p_half, q_half
    total += _integrate_f2_on_triangle(f2, np.stack([apex, p, q], axis=1))
    return total


def h1_error_vs_analytic(sol, exact):
    """L2 norm of grad(u_h) - grad(u_exact) over the solution mesh.

    Triangles touching the corner r = 0 are integrated by graded
    subdivision toward the apex, which resolves the r^(k-1) gradient
    singularity of the analytic solutions.
    """
    mesh = sol.mesh
    tri_grads = sol.triangle_gradients()
    corners = mesh.corners()

    on_corner = (np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]) <= 1e-12)[mesh.triangles]
    touches = np.any(on_corner, axis=1)
    regular, corner_tris = np.flatnonzero(~touches), np.flatnonzero(touches)

    def f2_on(cells):
        # the squared gradient error, one row of points per cell of ``cells``
        gh = tri_grads[cells]

        def f2(x):
            d = gh[:, None, :] - exact.gradient(x.reshape(-1, 2)).reshape(x.shape)
            return np.sum(d**2, axis=-1)

        return f2

    total = float(np.sum(_integrate_f2_on_triangle(f2_on(regular), corners[regular])))
    # each corner triangle's vertices in order, starting at the apex
    loc = np.argmax(on_corner[corner_tris], axis=1)
    a, p, q = (corners[corner_tris, (loc + i) % 3] for i in range(3))
    total += float(np.sum(integrate_corner_triangles(f2_on(corner_tris), a, p, q)))
    return float(np.sqrt(max(total, 0.0)))


def cross_domain_gradient_error(sol_a, sol_b, quad_mesh):
    """L2 distance of two discrete gradients over ``quad_mesh``.

    Each solution's gradient is taken at the six rule points of every
    ``quad_mesh`` cell and is zero outside the solution's own mesh.  A
    solution whose mesh is ``quad_mesh`` itself takes its own cell's
    gradient at each of the cell's rule points, which lie inside that cell;
    any other solution's gradients are looked up by point location in its
    mesh.  A quadrature mesh covering the union of both solution meshes
    whose cells align with both makes the piecewise-constant integrand
    exact per cell.
    """
    pts = tri6_points(quad_mesh.corners()).reshape(-1, 2)

    def rule_gradients(sol):
        if sol.mesh is quad_mesh:
            return np.repeat(sol.triangle_gradients(), TRI6_WEIGHTS.size, axis=0)
        return evaluate_gradient_many(sol, pts)

    f2 = np.sum((rule_gradients(sol_a) - rule_gradients(sol_b)) ** 2, axis=-1)
    f2 = f2.reshape(quad_mesh.num_triangles, -1)
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
