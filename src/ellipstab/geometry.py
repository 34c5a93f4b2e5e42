"""Parametric planar domains and bi-Lipschitz perturbation maps.

Two domain families are supported: unit-radius circular / annular sectors
described in polar coordinates, and subgraph domains in the unit box bounded
above by a piecewise-linear height function (meshed and solved on, but not
perturbed).
The one perturbation map is the radial shift of a sector's corner.  Maps
carry their Jacobian, a certified inverse, Lipschitz bounds and the measure
of the set they move, ``|E| = |{x : phi(x) != x}|``.

All objects are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Unit sector of angle ``beta``, optionally with a hole at the corner.

    ``r_inner = 0`` gives the plain sector; ``r_inner > 0`` gives the
    annular sector with inner radius ``r_inner``.  The outer arc is r = 1,
    where every closed-form solution vanishes.
    """

    beta: float
    r_inner: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < TWO_PI:
            raise ValueError(f"sector angle must lie in (0, 2*pi), got {self.beta}")
        if not 0.0 <= self.r_inner < 1.0:
            raise ValueError("need 0 <= r_inner < 1")

    def area(self):
        return 0.5 * self.beta * (1.0 - self.r_inner**2)

    def contains(self, points, tol=0.0):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = polar_angle(pts)
        return (
            (r >= self.r_inner - tol)
            & (r <= 1.0 + tol)
            & (theta <= self.beta + tol)
        )

    def on_boundary(self, points, tol=1e-10):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        r = np.hypot(x, y)
        # tolerances scale with the radius: an absolute one would put whole
        # rings next to a tiny inner arc, or near the corner, on the boundary
        on = np.abs(r - 1.0) <= tol
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

    def sample_interior(self, n):
        """Deterministic area-uniform low-discrepancy sample of the sector."""
        uv = halton(n)
        r = np.sqrt(self.r_inner**2 + uv[:, 0] * (1.0 - self.r_inner**2))
        theta = uv[:, 1] * self.beta
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


# graph heights must stay above this line and at or below y = 1
MARGIN = 0.1


@dataclass(frozen=True)
class GraphDomain:
    """Subgraph domain {(x, y) : x in [0, 1], 0 < y < h(x)} in the unit box.

    The height function is stored piecewise linearly on ``grid`` and must
    stay strictly above ``MARGIN`` and at or below 1.
    """

    grid: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "heights", heights)
        if grid.ndim != 1 or grid.shape != heights.shape or grid.size < 2:
            raise ValueError("grid and heights must be matching 1D arrays")
        if abs(grid[0]) > 1e-14 or abs(grid[-1] - 1.0) > 1e-14:
            raise ValueError("grid must span [0, 1]")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(heights <= MARGIN) or np.any(heights > 1.0 + 1e-12):
            raise ValueError(f"heights must lie in ({MARGIN:g}, 1]")

    @classmethod
    def from_height(cls, height, n_grid=129):
        """Build from a callable or per-node array of heights."""
        if callable(height):
            grid = np.linspace(0.0, 1.0, n_grid)
            heights = np.asarray(height(grid), dtype=float) * np.ones_like(grid)
        else:
            heights = np.asarray(height, dtype=float)
            grid = np.linspace(0.0, 1.0, heights.size)
        return cls(grid, heights)

    def height(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.heights)

    def area(self):
        return float(np.trapezoid(self.heights, self.grid))

    def on_boundary(self, points, tol=1e-10):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (
            (np.abs(x) <= tol)
            | (np.abs(x - 1.0) <= tol)
            | (np.abs(y) <= tol)
            | (np.abs(y - self.height(x)) <= tol)
        )


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
    cert_radius: float = 0.0

    @property
    def lip_constant(self):
        return max(self.lip_bounds)

    def density(self, points):
        """|det Dphi| at the given points."""
        J = self.jacobian(points)
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        return np.abs(det)


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
        cert_radius=eps,
    )

