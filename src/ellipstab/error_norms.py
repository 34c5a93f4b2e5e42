"""Gradient error functionals across meshes, domains and analytic solutions.

Errors between solutions on different domains follow the extension-by-zero
convention: a gradient is the zero vector outside its own mesh, so the L2
distance is taken over a quadrature mesh of the union region, independent
of either solution mesh.
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .analytic import DivergentNormError, SeparableSolution
from .fem import evaluate_gradient_many
from .geometry import polar_angle
from .quadrature import (TRI6_WEIGHTS, _reference_rule, corner_cut, gauss_on_panels,
                         integrate_radial, tri6_points)


def h1_error_vs_analytic(sol, exact):
    """L2 norm of grad(u_h) - grad(u_exact) over the solution mesh.

    When ``exact`` is a ``SeparableSolution``, each cell touching the corner
    r = 0 is integrated exactly in r over every piece of the solution
    (``_corner_cell_errors``); a corner term c r^p with p <= 0 makes the
    error infinite, and a mesh with corner cells then raises
    DivergentNormError.  Every other cell, and every cell for any other
    exact solution, takes the six-point rule, in blocks of about
    ``BLOCK_POINTS`` points with one ``exact.gradient`` call per block,
    which write area * w * |grad u_h - grad u|^2 into one (cells, points)
    array, summed once: the blocks do not change the result's bits.
    """
    mesh = sol.mesh
    tri_grads = sol.triangle_gradients()
    areas = mesh.areas()
    cells = np.arange(mesh.num_triangles)
    total = 0.0
    if isinstance(exact, SeparableSolution):
        tris = mesh.triangles
        on_corner = (np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]) <= 1e-12)[tris]
        touches = np.any(on_corner, axis=1)
        cells, corner_tris = np.flatnonzero(~touches), np.flatnonzero(touches)
        if corner_tris.size and any(p <= 0.0 for _, p in exact.pieces[0][1]):
            raise DivergentNormError(
                "H1 error is infinite: the exact solution has a corner term r^p with p <= 0")
        # each corner cell's vertices in order, starting at the apex
        loc = np.argmax(on_corner[corner_tris], axis=1)
        apex_first = np.take_along_axis(tris[corner_tris], (loc[:, None] + np.arange(3)) % 3, 1)
        total = float(np.sum(_corner_cell_errors(
            exact, mesh.vertices[apex_first], tri_grads[corner_tris], areas[corner_tris])))

    corners = mesh.corners()
    terms = np.empty((cells.size, TRI6_WEIGHTS.size))
    step = max(quadrature.BLOCK_POINTS // TRI6_WEIGHTS.size, 1)
    for lo in range(0, cells.size, step):
        s = slice(lo, lo + step)
        block = cells[s]
        pts = tri6_points(corners[block])
        grad = exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
        dx = tri_grads[block, None, 0] - grad[..., 0]
        dy = tri_grads[block, None, 1] - grad[..., 1]
        np.multiply(areas[block, None] * TRI6_WEIGHTS, dx * dx + dy * dy, out=terms[s])
    total += float(np.sum(terms))
    return float(np.sqrt(max(total, 0.0)))


def _power_spans(lo, hi, s):
    """hi^s - lo^s for each exponent in ``s`` (a new last axis), log(hi / lo)
    where s = 0, and the divisors s, 1 where s = 0: span / divisor is the
    integral of r^(s-1) from lo to hi."""
    span = hi[..., None] ** s - lo[..., None] ** s
    zero = s == 0.0
    if np.any(zero):
        span[..., zero] = np.log(hi / lo)[..., None]
    return span, np.where(zero, 1.0, s)


def _corner_cell_errors(exact, corners, grads, areas):
    """Integral of |g - grad u|^2 over each corner cell, exactly in r.

    ``corners`` (m, 3, 2) hold each cell's apex, at the origin, then its far
    corners P and Q; ``grads`` (m, 2) hold g and ``areas`` (m,) the cell
    areas A.  On each piece start <= r < end of ``exact``,
    u = sum c r^p sin(k theta), with every p > 0 on the first piece.  About
    the apex the cell is 0 <= r <= R(theta) = (n . P) / (n . e_r(theta)),
    n normal to PQ, for theta between the polar angles of P and Q in
    [0, 2 pi) (a cell at theta = beta near 2 pi is not split at 0).  The
    value is |g|^2 A - 2 g . int grad u + int |grad u|^2, where integrating
    in r over each piece, from lo = min(start, R) to hi = min(end, R), gives

        int grad u = int e_r sin(k theta) sum c p [r^(p+1) / (p+1)]
                         + e_theta k cos(k theta) sum c [r^(p+1) / (p+1)] dtheta,
        int |grad u|^2 = int sum_ij c_i c_j (p_i p_j sin^2(k theta)
                         + k^2 cos^2(k theta)) [r^(p_i+p_j) / (p_i+p_j)] dtheta,

    [r^s / s] = (hi^s - lo^s) / s, or log(hi / lo) where s = 0, summed over
    the pieces; the first piece has lo = 0.  The theta integrands have a
    kink where PQ crosses a breakpoint circle, R(theta) = start, so each
    cell's theta range is split there (``_theta_parts``), and a 16-point
    Gauss rule takes each part; the parts of a cell are added before the
    three terms are formed.
    """
    k = exact.angular_wavenumber
    far = corners[:, 1:]
    cell, t_a, t_b = _theta_parts(far, exact.breakpoints)
    x, w = _reference_rule(16)
    half = 0.5 * (t_b - t_a)
    theta = (0.5 * (t_a + t_b))[:, None] + half[:, None] * x
    weights = np.abs(half)[:, None] * w
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    edge = (far[:, 1] - far[:, 0])[cell]  # Q - P; n = (edge_y, -edge_x) up to scale
    dist = edge[:, 1] * far[cell, 0, 0] - edge[:, 0] * far[cell, 0, 1]
    R = dist[:, None] / (edge[:, 1, None] * cos_t - edge[:, 0, None] * sin_t)
    sin_k, cos_k = np.sin(k * theta), np.cos(k * theta)

    radial = angular = energy_sin = energy_cos = 0.0
    for start, (end, terms) in zip((0.0, *exact.breakpoints), exact.pieces):
        c, p = np.array(terms, dtype=float).reshape(-1, 2).T
        lo, hi = np.minimum(start, R), np.minimum(end, R)
        span, s = _power_spans(lo, hi, p + 1.0)
        radial = radial + span @ (c * p / s)
        angular = angular + span @ (c / s)
        span, s = _power_spans(lo, hi, (p[:, None] + p).ravel())
        cc = np.outer(c, c).ravel() / s
        energy_sin = energy_sin + span @ (cc * np.outer(p, p).ravel())
        energy_cos = energy_cos + span @ cc
    radial = sin_k * radial
    angular = k * cos_k * angular
    m = len(far)

    def per_cell(integrand):
        parts = np.sum(weights * integrand, axis=1)
        total = parts[:m]  # each cell's first part, then the further ones added
        np.add.at(total, cell[m:], parts[m:])
        return total

    mean_x = per_cell(radial * cos_t - angular * sin_t)
    mean_y = per_cell(radial * sin_t + angular * cos_t)
    energy = per_cell(sin_k**2 * energy_sin + k * k * cos_k**2 * energy_cos)
    g_x, g_y = grads.T
    return (g_x * g_x + g_y * g_y) * areas - 2.0 * (g_x * mean_x + g_y * mean_y) + energy


def _theta_parts(far, radii):
    """Each corner cell's range of polar angles, from its far corner P to Q,
    split where PQ crosses a circle r = b of ``radii``: at the roots t in
    (0, 1) of |P + t (Q - P)| = b.  Returns (cell, start, end) per part: the
    first part of every cell in cell order, then the further parts.  A cell
    that crosses no circle keeps the one part (angle of P, angle of Q)."""
    t_p, t_q = polar_angle(far).T
    p, d = far[:, 0], far[:, 1] - far[:, 0]
    dd, pd, pp = np.sum(d * d, axis=1), np.sum(p * d, axis=1), np.sum(p * p, axis=1)
    b = np.asarray(radii, dtype=float)
    disc = (pd * pd)[:, None] - dd[:, None] * (pp[:, None] - b * b)
    sq = np.sqrt(np.where(disc > 0.0, disc, np.nan))  # NaN: the line misses the circle
    t = np.concatenate([-pd[:, None] - sq, sq - pd[:, None]], axis=1) / dd[:, None]
    t = np.sort(np.where((t > 0.0) & (t < 1.0), t, np.nan), axis=1)  # NaN last
    cuts = polar_angle(p[:, None] + t[..., None] * d[:, None])
    crossed = ~np.isnan(cuts)
    ends = np.column_stack([cuts, t_q])
    ends = np.where(np.isnan(ends), t_q[:, None], ends)
    more, j = np.nonzero(crossed)
    return (np.concatenate([np.arange(len(far)), more]),
            np.concatenate([t_p, cuts[more, j]]),
            np.concatenate([ends[:, 0], ends[more, j + 1]]))


def cross_domain_gradient_error(sol_a, sol_b, quad_mesh):
    """L2 distance of two discrete gradients over ``quad_mesh``.

    Each solution's gradient is taken at the six rule points of every
    ``quad_mesh`` cell and is zero outside the solution's own mesh.  A
    solution whose mesh is ``quad_mesh`` itself takes its own cell's
    gradient at each of the cell's rule points, which lie inside that cell;
    any other solution's gradients are looked up by point location in its
    mesh, the six points of a cell as one group: where the meshes align and
    number their cells alike, a cell's points are kept without a search in
    the triangle guessed from the first point of its run of cells
    (``fem.GUESS_RUN``), and elsewhere each point is located.  A
    quadrature mesh covering the union of both solution meshes whose cells
    align with both makes the piecewise-constant integrand exact per cell.
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
    """L^q norm of a separable solution's gradient, q > 2.

    The gradient lies in L^q exactly for q < ``sol.q_star``; at or above
    it DivergentNormError is raised.  Below it, |grad u|^q is summed over
    an angular Gauss rule at the radial nodes.  Near the corner that sum
    f(r) behaves like r^(s-1), s = 2 - 2q/q*, so the sliver (0, cut) the
    radial rule drops adds exactly cut * f(cut) / s.
    """
    if q <= 2.0:
        raise ValueError("exponent must exceed 2")
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
