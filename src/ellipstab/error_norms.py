"""Gradient error functionals across meshes, domains and analytic solutions.

Errors between solutions on different domains follow the extension-by-zero
convention: a gradient is the zero vector outside its own mesh, so the L2
distance is taken over a quadrature mesh of the union region, independent
of either solution mesh.
"""

from __future__ import annotations

import numpy as np

from .fem import FemSolution, evaluate_gradient_many
from .meshing import mesh_sector
from .quadrature import TRI6_WEIGHTS, gauss_on_panels, radial_edges, tri6_points


class DivergentNormError(ArithmeticError):
    """Norm kept growing under quadrature refinement toward the corner."""

    def __init__(self, message, levels=()):
        super().__init__(message)
        self.levels = tuple(levels)


def _integrate_f2_on_triangle(f2, corners):
    """Apply the 6-point rule to f2 (squared-difference integrand) per triangle."""
    pts = tri6_points(corners)
    vals = np.asarray(f2(pts.reshape(-1, 2))).reshape(pts.shape[:-1])
    e1 = corners[..., 1, :] - corners[..., 0, :]
    e2 = corners[..., 2, :] - corners[..., 0, :]
    area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    return np.sum(area[..., None] * TRI6_WEIGHTS * vals, axis=-1)


def integrate_corner_triangle(f2, apex, p, q, levels=30):
    """Integrate toward a singular apex by geometric triangle subdivision.

    Splits off similar triangles scaled by 1/2 toward the apex; each ring
    (a trapezoid, two triangles) uses the standard rule, and the innermost
    triangle is added with the plain rule once its scale is negligible.
    """
    apex = np.asarray(apex, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for _ in range(levels):
        p_half = apex + 0.5 * (p - apex)
        q_half = apex + 0.5 * (q - apex)
        ring = np.stack(
            [np.stack([p_half, p, q]), np.stack([p_half, q, q_half])], axis=0
        )
        total += float(np.sum(_integrate_f2_on_triangle(f2, ring)))
        p, q = p_half, q_half
    total += float(_integrate_f2_on_triangle(f2, np.stack([apex, p, q])[None])[0])
    return total


def h1_error_vs_analytic(sol, exact, corner_levels=30):
    """L2 norm of grad(u_h) - grad(u_exact) over the solution mesh.

    Triangles touching the corner r = 0 are integrated by graded
    subdivision toward the apex, which resolves the r^(k-1) gradient
    singularity of the analytic solutions.
    """
    mesh = sol.mesh
    tri_grads = sol.triangle_gradients()
    corners = mesh.corners()

    radius = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    at_apex = radius <= 1e-12
    corner_tris = np.flatnonzero(np.any(at_apex[mesh.triangles], axis=1))
    regular = np.ones(mesh.num_triangles, dtype=bool)
    regular[corner_tris] = False

    pts = tri6_points(corners[regular])
    diff = tri_grads[regular][:, None, :] - exact.gradient(pts.reshape(-1, 2)).reshape(
        pts.shape
    )
    f2 = np.sum(diff**2, axis=-1)
    areas = mesh.areas()[regular]
    total = float(np.sum(areas[:, None] * TRI6_WEIGHTS * f2))

    for t in corner_tris:
        gh = tri_grads[t]
        loc = np.flatnonzero(at_apex[mesh.triangles[t]])[0]
        order = [loc, (loc + 1) % 3, (loc + 2) % 3]
        a, p, q = corners[t][order]

        def f2_corner(x):
            d = gh[None, :] - exact.gradient(x)
            return np.sum(d**2, axis=-1)

        total += integrate_corner_triangle(f2_corner, a, p, q, levels=corner_levels)
    return float(np.sqrt(max(total, 0.0)))


def cross_domain_gradient_error(sol_a, sol_b, quad_region=None, quad_mesh=None,
                                n_radial=96, n_angular=72, grading=3.0):
    """L2 distance of two discrete gradients over a union-region mesh.

    Gradients are looked up by point location in each solution's own mesh
    and are zero outside it.  ``quad_mesh`` overrides the internally built
    union mesh; passing a mesh whose cells align with both solution meshes
    makes the piecewise-constant integrand exact per cell.
    """
    if quad_mesh is None:
        if quad_region is None:
            raise ValueError("need quad_region or quad_mesh")
        aligned = set()
        for s in (sol_a, sol_b):
            dom = s.mesh.meta.domain
            aligned.update(s.mesh.meta.aligned_radii)
            if dom is not None and getattr(dom, "r_inner", 0.0) > quad_region.r_inner:
                aligned.add(dom.r_inner)
        aligned = tuple(sorted(a for a in aligned
                               if quad_region.r_inner < a < quad_region.r_outer))
        quad_mesh = mesh_sector(quad_region, n_radial, n_angular,
                                grading=grading, aligned_radii=aligned)
    pts = tri6_points(quad_mesh.corners()).reshape(-1, 2)
    ga = evaluate_gradient_many(sol_a, pts)
    gb = evaluate_gradient_many(sol_b, pts)
    f2 = np.sum((ga - gb) ** 2, axis=-1).reshape(quad_mesh.num_triangles, -1)
    total = np.sum(quad_mesh.areas()[:, None] * TRI6_WEIGHTS * f2)
    return float(np.sqrt(max(total, 0.0)))


def _separable_lq_power(sol, q, r_floor, n_gauss=16, n_panels=8):
    """int |grad u|^q over the sector, radial floor given, q-th power (not root)."""
    k = sol.angular_wavenumber
    dom = sol.domain
    w, dw = sol.radial_profile, sol.radial_derivative
    t_nodes, t_weights = gauss_on_panels(np.linspace(0.0, dom.beta, 9), n_gauss)
    sin2 = np.sin(k * t_nodes) ** 2
    cos2 = np.cos(k * t_nodes) ** 2

    lo = dom.r_inner if dom.r_inner > 0.0 else r_floor
    edges = radial_edges(0.0, dom.r_outer, tuple(sol.breakpoints), n_panels=n_panels,
                         r_floor=lo) if dom.r_inner == 0.0 else \
        radial_edges(dom.r_inner, dom.r_outer, tuple(sol.breakpoints), n_panels=n_panels)
    r_nodes, r_weights = gauss_on_panels(edges, n_gauss)
    rad2 = dw(r_nodes) ** 2
    ang2 = (k * w(r_nodes) / r_nodes) ** 2
    grad2 = rad2[:, None] * sin2[None, :] + ang2[:, None] * cos2[None, :]
    vals = grad2 ** (0.5 * q)
    return float(np.einsum("r,t,rt->", r_weights * r_nodes, t_weights, vals))


def lq_gradient_norm(sol, q, growth_tol=0.05, n_levels=6):
    """L^q norm of the gradient, q > 2.

    For a discrete solution the piecewise-constant gradient integrates
    exactly.  For a separable solution the radial quadrature is refined
    geometrically toward the corner on nested levels; if the value keeps
    growing by more than ``growth_tol`` per level over three consecutive
    levels the norm is deemed unbounded and DivergentNormError is raised
    with the level values attached.
    """
    if q <= 2.0:
        raise ValueError("exponent must exceed 2")
    if isinstance(sol, FemSolution):
        g = sol.triangle_gradients()
        mag = np.sqrt(np.sum(g**2, axis=1))
        return float(np.sum(sol.mesh.areas() * mag**q) ** (1.0 / q))

    if sol.domain.r_inner > 0.0:
        return float(_separable_lq_power(sol, q, r_floor=0.0) ** (1.0 / q))

    floors = [10.0 ** (-3 - 2 * j) for j in range(n_levels)]
    norms = [(_separable_lq_power(sol, q, r_floor=f)) ** (1.0 / q) for f in floors]
    growth = [b / a - 1.0 for a, b in zip(norms[:-1], norms[1:])]
    consec = 0
    for gr in growth:
        consec = consec + 1 if gr > growth_tol else 0
        if consec >= 3:
            raise DivergentNormError(
                f"L^{q:g} gradient norm grows without bound under corner refinement",
                levels=norms,
            )
    return float(norms[-1])
