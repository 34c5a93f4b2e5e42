"""Parametric planar domains and bi-Lipschitz perturbation maps.

Two domain families are supported: circular / annular sectors described in
polar coordinates, and subgraph domains bounded above by a Lipschitz height
function over an interval.  Perturbation maps carry their Jacobian, a
certified inverse, Lipschitz bounds and the measure of the set they move,
``|E| = |{x : phi(x) != x}|``.

All objects are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import halton

TWO_PI = 2.0 * np.pi


def polar_angle(points):
    """Angle in [0, 2*pi) of each point, measured from the positive x-axis."""
    pts = np.asarray(points, dtype=float)
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    return np.where(theta < 0.0, theta + TWO_PI, theta)


@dataclass(frozen=True)
class SectorDomain:
    """Circular sector of angle ``beta``, optionally with a hole at the corner.

    ``r_inner = 0`` gives the plain sector; ``r_inner > 0`` gives the
    annular sector with inner radius ``r_inner``.
    """

    beta: float
    r_inner: float = 0.0
    r_outer: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < TWO_PI:
            raise ValueError(f"sector angle must lie in (0, 2*pi), got {self.beta}")
        if not 0.0 <= self.r_inner < self.r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")

    def area(self):
        return 0.5 * self.beta * (self.r_outer**2 - self.r_inner**2)

    def contains(self, points, tol=0.0):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = polar_angle(pts)
        return (
            (r >= self.r_inner - tol)
            & (r <= self.r_outer + tol)
            & (theta <= self.beta + tol)
        )

    def on_boundary(self, points, tol=1e-10):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        r = np.hypot(x, y)
        # tolerances scale with the radius: an absolute one would put whole
        # rings next to a tiny inner arc, or near the corner, on the boundary
        on = np.abs(r - self.r_outer) <= tol * self.r_outer
        if self.r_inner > 0.0:
            on |= np.abs(r - self.r_inner) <= tol * self.r_inner
        # the straight edges are half-lines: perpendicular distance small AND
        # projection onto the edge direction nonnegative (for beta > pi the
        # full line through theta = 0 cuts the interior); the corner (0, 0)
        # passes both
        on |= (np.abs(y) <= tol * r) & (x >= 0.0)
        c, s = np.cos(self.beta), np.sin(self.beta)
        on |= (np.abs(s * x - c * y) <= tol * r) & (c * x + s * y >= 0.0)
        return on

    def sample_interior(self, n, start=1):
        """Deterministic area-uniform low-discrepancy sample of the sector."""
        uv = halton(n, dim=2, start=start)
        r = np.sqrt(self.r_inner**2 + uv[:, 0] * (self.r_outer**2 - self.r_inner**2))
        theta = uv[:, 1] * self.beta
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


@dataclass(frozen=True)
class GraphDomain:
    """Subgraph domain {(x, y) : x in [x_lo, x_hi], floor < y < h(x)}.

    The height function is stored piecewise linearly on ``grid`` and must
    stay strictly above the margin line ``floor + (ceiling - floor)/10``
    and at or below ``ceiling``.
    """

    x_lo: float
    x_hi: float
    floor: float
    ceiling: float
    grid: np.ndarray
    heights: np.ndarray
    lip_bound: float = field(default=0.0)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "heights", heights)
        if not self.x_lo < self.x_hi:
            raise ValueError("empty base interval")
        if not self.ceiling > self.floor:
            raise ValueError("ceiling must exceed floor")
        if grid.ndim != 1 or grid.shape != heights.shape or grid.size < 2:
            raise ValueError("grid and heights must be matching 1D arrays")
        if abs(grid[0] - self.x_lo) > 1e-14 or abs(grid[-1] - self.x_hi) > 1e-14:
            raise ValueError("grid must span the base interval")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        m = self.margin
        if np.any(heights <= m) or np.any(heights > self.ceiling + 1e-12):
            raise ValueError("heights must lie in (floor + (ceiling-floor)/10, ceiling]")
        slopes = np.diff(heights) / np.diff(grid)
        lip_est = float(np.max(np.abs(slopes))) if slopes.size else 0.0
        if self.lip_bound <= 0.0:
            object.__setattr__(self, "lip_bound", max(lip_est, 1e-15))
        elif lip_est > self.lip_bound * (1.0 + 1e-12):
            raise ValueError(
                f"estimated Lipschitz constant {lip_est:.6g} exceeds bound {self.lip_bound:.6g}"
            )

    @classmethod
    def from_height(cls, x_lo, x_hi, floor, ceiling, height, n_grid=129, lip_bound=0.0):
        """Build from a callable or per-node array of heights."""
        grid = np.linspace(x_lo, x_hi, n_grid)
        if callable(height):
            heights = np.asarray(height(grid), dtype=float) * np.ones_like(grid)
        else:
            heights = np.asarray(height, dtype=float)
            grid = np.linspace(x_lo, x_hi, heights.size)
        return cls(x_lo, x_hi, floor, ceiling, grid, heights, lip_bound)

    @property
    def margin(self):
        return self.floor + 0.1 * (self.ceiling - self.floor)

    def height(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.heights)

    def height_slope(self, x):
        """One-sided slope of the piecewise-linear height at x."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0,
                      self.grid.size - 2)
        slopes = np.diff(self.heights) / np.diff(self.grid)
        return slopes[idx]

    def area(self):
        return float(np.trapezoid(self.heights - self.floor, self.grid))

    def same_cylinder(self, other, tol=1e-14):
        return (
            abs(self.x_lo - other.x_lo) <= tol
            and abs(self.x_hi - other.x_hi) <= tol
            and abs(self.floor - other.floor) <= tol
            and abs(self.ceiling - other.ceiling) <= tol
        )

    def contains(self, points, tol=0.0):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (
            (x >= self.x_lo - tol)
            & (x <= self.x_hi + tol)
            & (y >= self.floor - tol)
            & (y <= self.height(x) + tol)
        )

    def on_boundary(self, points, tol=1e-10):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (
            (np.abs(x - self.x_lo) <= tol)
            | (np.abs(x - self.x_hi) <= tol)
            | (np.abs(y - self.floor) <= tol)
            | (np.abs(y - self.height(x)) <= tol)
        )

    def sample_interior(self, n, start=1):
        uv = halton(n, dim=2, start=start)
        x = self.x_lo + uv[:, 0] * (self.x_hi - self.x_lo)
        y = self.floor + uv[:, 1] * (self.height(x) - self.floor)
        return np.stack([x, y], axis=1)


@dataclass(frozen=True)
class BiLipschitzMap:
    """Invertible planar map with Jacobian, certified inverse and bounds.

    ``lip_bounds`` holds certified suprema of the Jacobian and inverse
    Jacobian operator norms over the region ``{r >= cert_radius}`` (the
    whole domain when ``cert_radius`` is 0).  ``e_set_measure`` is the
    Lebesgue measure of {x : phi(x) != x}.
    """

    forward: Callable
    jacobian: Callable
    inverse: Callable
    lip_bounds: tuple
    e_set_measure: float
    kind: str = "custom"
    cert_radius: float = 0.0
    meta: tuple = ()

    @property
    def lip_constant(self):
        return max(self.lip_bounds)

    def density(self, points):
        """|det Dphi| at the given points."""
        J = self.jacobian(points)
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        return np.abs(det)


def identity_map(e_set_measure=0.0):
    eye = np.eye(2)

    def fwd(points):
        return np.asarray(points, dtype=float).copy()

    def jac(points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(eye, pts.shape[:-1] + (2, 2)).copy()

    return BiLipschitzMap(fwd, jac, fwd, (1.0, 1.0), e_set_measure, kind="identity")


def affine_map(matrix, offset=(0.0, 0.0), e_set_measure=float("nan")):
    """Affine map x -> M x + b with exact inverse; mainly a testing aid."""
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
    return BiLipschitzMap(fwd, jac, inv, (op, op_inv), e_set_measure, kind="affine")


def radial_shift_map(eps, beta):
    """Radial map pushing the corner of a sector out to the inner radius ``eps``.

    In polar coordinates the map is (r, theta) -> (s(r), theta) with
    s(r) = r/2 + eps on (0, 2*eps) and s(r) = r beyond, so it sends the
    sector of angle ``beta`` onto the annular sector with inner radius
    ``eps``.  It moves exactly the points with r < 2*eps, a set of measure
    2*beta*eps^2.

    The radial derivative is defined one-sidedly at the kink circle
    r = 2*eps (the outer branch value is used there).  The angular stretch
    s(r)/r tends to infinity at the corner, so the forward Lipschitz bound
    is certified on {r >= eps} only; ``cert_radius`` records this.
    """
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValueError(f"shift parameter must lie in (0, 1/2), got {eps}")
    if not 0.0 < beta < TWO_PI:
        raise ValueError(f"sector angle must lie in (0, 2*pi), got {beta}")

    def s(r):
        return np.where(r < 2.0 * eps, 0.5 * r + eps, r)

    def s_prime(r):
        return np.where(r < 2.0 * eps, 0.5, 1.0)

    def s_inv(rho):
        return np.where(rho < 2.0 * eps, 2.0 * (rho - eps), rho)

    def fwd(points):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        if np.any(r == 0.0):
            raise ValueError("radial map is undefined at the corner r = 0")
        return pts * (s(r) / r)[..., None]

    def inv(points):
        pts = np.asarray(points, dtype=float)
        rho = np.hypot(pts[..., 0], pts[..., 1])
        if np.any(rho == 0.0):
            raise ValueError("inverse radial map is undefined at r = 0")
        return pts * (s_inv(rho) / rho)[..., None]

    def jac(points):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        if np.any(r == 0.0):
            raise ValueError("radial map Jacobian is undefined at the corner r = 0")
        rhat = pts / r[..., None]
        outer = rhat[..., :, None] * rhat[..., None, :]
        eye = np.broadcast_to(np.eye(2), outer.shape)
        ang = s(r) / r
        return (s_prime(r)[..., None, None] * outer
                + ang[..., None, None] * (eye - outer))

    # on {r >= eps}: s' <= 1 and s/r <= 3/2; inverse: 1/s' <= 2, r/s <= 1
    return BiLipschitzMap(
        fwd,
        jac,
        inv,
        (1.5, 2.0),
        2.0 * beta * eps**2,
        kind="radial_shift",
        cert_radius=eps,
        meta=(("eps", eps), ("beta", beta)),
    )


def _merged_grid(omega, omega_tilde):
    grid = np.union1d(omega.grid, omega_tilde.grid)
    return grid, omega.height(grid), omega_tilde.height(grid)


def symmetric_difference_measure(omega, omega_tilde):
    """Area of the symmetric difference of two subgraph domains.

    Equals the integral of |h - h_tilde| over the base interval; exact for
    the piecewise-linear height representation (sign-change roots are
    split off so each piece is a trapezoid).
    """
    if not omega.same_cylinder(omega_tilde):
        raise ValueError("domains do not share a cylinder")
    grid, h, ht = _merged_grid(omega, omega_tilde)
    d = ht - h
    total = 0.0
    for i in range(grid.size - 1):
        x0, x1 = grid[i], grid[i + 1]
        d0, d1 = d[i], d[i + 1]
        if d0 * d1 < 0.0:
            xr = x0 + (x1 - x0) * d0 / (d0 - d1)
            total += 0.5 * abs(d0) * (xr - x0) + 0.5 * abs(d1) * (x1 - xr)
        else:
            total += 0.5 * (abs(d0) + abs(d1)) * (x1 - x0)
    return float(total)


def build_graph_map(omega, omega_tilde):
    """Vertical stretch map between two subgraph domains over one cylinder.

    Fixes the strip below the margin line m = floor + (ceiling - floor)/10
    and rescales each vertical fiber above it linearly so the graph of h
    lands on the graph of h_tilde.  The measure |E| of the moved set and
    the observed ratio |E| / |symmetric difference| are computed exactly
    from the piecewise-linear heights and stored in ``meta`` (the ratio is
    instance-specific, not a uniform function of the Lipschitz bound).
    """
    if not omega.same_cylinder(omega_tilde):
        raise ValueError("domains do not share a cylinder")
    m = omega.margin
    grid, h, ht = _merged_grid(omega, omega_tilde)
    slopes_h = np.diff(h) / np.diff(grid)
    slopes_t = np.diff(ht) / np.diff(grid)

    def _sigma(x):
        return (omega_tilde.height(x) - m) / (omega.height(x) - m)

    def fwd(points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        above = y > m
        ynew = np.where(above, m + (y - m) * _sigma(x), y)
        return np.stack([x, ynew], axis=-1)

    def inv(points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        above = y > m
        ynew = np.where(above, m + (y - m) / _sigma(x), y)
        return np.stack([x, ynew], axis=-1)

    def jac(points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        above = y > m
        hx = omega.height(x)
        htx = omega_tilde.height(x)
        sh = omega.height_slope(x)
        st = omega_tilde.height_slope(x)
        sig = (htx - m) / (hx - m)
        dsig = (st * (hx - m) - sh * (htx - m)) / (hx - m) ** 2
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 0] = np.where(above, (y - m) * dsig, 0.0)
        J[..., 1, 1] = np.where(above, sig, 1.0)
        return J

    # certified bounds per grid subinterval via interval arithmetic on the
    # linear pieces; operator norm bounded by the Frobenius norm
    hmin = np.minimum(h[:-1], h[1:]) - m
    hmax = np.maximum(h[:-1], h[1:]) - m
    tmin = np.minimum(ht[:-1], ht[1:]) - m
    tmax = np.maximum(ht[:-1], ht[1:]) - m
    sig_max = tmax / hmin
    sig_min = tmin / hmax
    dsig_max = (np.abs(slopes_t) * hmax + np.abs(slopes_h) * tmax) / hmin**2
    c_max = hmax * dsig_max
    fwd_bound = float(np.sqrt(np.max(1.0 + c_max**2 + np.maximum(sig_max, 1.0) ** 2)))
    inv_bound = float(
        np.sqrt(np.max(1.0 + (c_max / sig_min) ** 2 + np.maximum(1.0 / sig_min, 1.0) ** 2))
    )

    # |E| = integral of (h - m) over {h != h_tilde}; exact trapezoids on
    # subintervals where the piecewise-linear difference is not identically 0
    d = ht - h
    moved = ~((np.abs(d[:-1]) <= 1e-14) & (np.abs(d[1:]) <= 1e-14))
    widths = np.diff(grid)
    e_measure = float(np.sum(0.5 * (hmin + hmax)[moved] * widths[moved]))
    sym = symmetric_difference_measure(omega, omega_tilde)
    c_observed = e_measure / sym if sym > 0.0 else 0.0

    return BiLipschitzMap(
        fwd,
        jac,
        inv,
        (fwd_bound, inv_bound),
        e_measure,
        kind="graph_stretch",
        meta=(("c_over_symdiff", c_observed), ("margin", m)),
    )
