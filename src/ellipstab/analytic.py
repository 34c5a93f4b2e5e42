"""Closed-form reference solutions on sector domains.

All solutions here are separable, u = w(r) * sin(k*theta) with k = pi/beta,
so their Dirichlet energies reduce to 1D radial integrals:

    |grad u|^2 integrated over the sector = (beta/2) * int (w'^2 + k^2 w^2 / r^2) r dr.

Keeping the norms 1D isolates the perturbation rates from any mesh error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import SectorDomain, polar_angle
from .quadrature import halton, integrate_radial


@dataclass(frozen=True)
class SourceTerm:
    """Right-hand side ((4*beta^2 - pi^2)/beta^2) * sin(pi*theta/beta)."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 2.0 * np.pi:
            raise ValueError("angle out of range")

    @property
    def amplitude(self):
        return (4.0 * self.beta**2 - np.pi**2) / self.beta**2

    @property
    def angular_wavenumber(self):
        return np.pi / self.beta

    def value(self, points):
        theta = polar_angle(points)
        return self.amplitude * np.sin(self.angular_wavenumber * theta)

    def __call__(self, points):
        return self.value(points)


@dataclass(frozen=True)
class SeparableSolution:
    """u(r, theta) = w(r) * sin(k * theta) on a sector domain.

    ``radial_profile`` and ``radial_derivative`` are vectorized callables;
    ``breakpoints`` lists the radii where the profile is merely continuous.
    The gradient lies in L^q of the domain for every q < ``q_star``.
    """

    radial_profile: Callable
    radial_derivative: Callable
    breakpoints: tuple
    angular_wavenumber: float
    domain: SectorDomain
    q_star: float = float("inf")

    def value(self, points):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = polar_angle(pts)
        return self.radial_profile(r) * np.sin(self.angular_wavenumber * theta)

    def gradient(self, points):
        """Cartesian gradient; radial/angular parts recombined from polar form."""
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = polar_angle(pts)
        k = self.angular_wavenumber
        gr = self.radial_derivative(r) * np.sin(k * theta)
        gt = (k * self.radial_profile(r) / r) * np.cos(k * theta)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        gx = gr * cos_t - gt * sin_t
        gy = gr * sin_t + gt * cos_t
        return np.stack([gx, gy], axis=-1)

    def __call__(self, points):
        return self.value(points)

    def difference(self, other):
        """Profile difference as a new solution (wavenumbers must match)."""
        if abs(self.angular_wavenumber - other.angular_wavenumber) > 1e-14:
            raise ValueError("angular wavenumbers differ")
        w1, w2 = self.radial_profile, other.radial_profile
        d1, d2 = self.radial_derivative, other.radial_derivative
        dom = self.domain if self.domain.r_inner >= other.domain.r_inner else other.domain
        breaks = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        return SeparableSolution(
            lambda r: w1(r) - w2(r),
            lambda r: d1(r) - d2(r),
            breaks,
            self.angular_wavenumber,
            dom,
            # an annular domain excludes the corner, the only singular point
            min(self.q_star, other.q_star) if dom.r_inner == 0.0 else float("inf"),
        )

    def extended_by_zero(self):
        """Extend an annular solution by zero onto the full sector.

        Requires the profile to vanish at the inner radius so the extension
        stays continuous (its gradient is then zero a.e. on the hole, which
        is the convention used for cross-domain errors).
        """
        eps = self.domain.r_inner
        if eps <= 0.0:
            return self
        if abs(float(self.radial_profile(np.array([eps]))[0])) > 1e-10:
            raise ValueError("profile does not vanish at the inner radius")
        w, d = self.radial_profile, self.radial_derivative

        def wz(r):
            r = np.asarray(r, dtype=float)
            return np.where(r >= eps, w(np.maximum(r, eps)), 0.0)

        def dz(r):
            r = np.asarray(r, dtype=float)
            return np.where(r >= eps, d(np.maximum(r, eps)), 0.0)

        dom = SectorDomain(self.domain.beta, 0.0, self.domain.r_outer)
        breaks = tuple(sorted(set(self.breakpoints) | {eps}))
        return SeparableSolution(wz, dz, breaks, self.angular_wavenumber, dom,
                                 self.q_star)


def _check_angle(beta):
    if not np.pi < beta < 2.0 * np.pi:
        raise ValueError(f"angle must lie in (pi, 2*pi), got {beta}")


def q_star(beta):
    """Gradient integrability threshold 2*beta/(beta - pi) of r^k sin(k*theta).

    |grad (r^k sin(k*theta))| ~ r^(k-1) with k = pi/beta lies in L^q near the
    corner exactly when (k - 1) q + 2 > 0.
    """
    return 2.0 * beta / (beta - np.pi)


def limit_solution(beta):
    """Solution (r^k - r^2) sin(k*theta), k = pi/beta, of the unperturbed problem.

    Its gradient lies in L^q exactly for q below 2*beta/(beta - pi); that
    threshold is stored as ``q_star``.
    """
    _check_angle(beta)
    k = np.pi / beta

    def w(r):
        r = np.asarray(r, dtype=float)
        return np.power(r, k) - r**2

    def dw(r):
        r = np.asarray(r, dtype=float)
        return k * np.power(r, k - 1.0) - 2.0 * r

    return SeparableSolution(w, dw, (), k, SectorDomain(beta), q_star(beta))


def jump_solution(beta, alpha, eps):
    """Separable solution of the two-phase problem with conductivity jump.

    Conductivity ``alpha`` on r < eps and 1 on eps < r < 1; the profile has
    two branches matched by continuity and flux continuity
    alpha * w'(eps-) = w'(eps+) across the interface.  The inner branch
    keeps the corner term r^k, so ``q_star`` is the limit solution's.
    """
    _check_angle(beta)
    alpha = float(alpha)
    eps = float(eps)
    if alpha <= 0.0:
        raise ValueError(f"conductivity must be positive, got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"jump radius must lie in (0, 1), got {eps}")
    k = np.pi / beta
    ek = eps**k
    emk = eps**-k
    denom = (1.0 - alpha) * ek + (1.0 + alpha) * emk
    c_in = ((1.0 / alpha - 1.0) * (eps**2 + eps ** (2.0 - 2.0 * k)) + 2.0 * emk) / denom
    c_out = ((1.0 - alpha) * eps**2 + (1.0 + alpha) * emk) / denom
    d_out = (1.0 - alpha) * (ek - eps**2) / denom

    def w(r):
        r = np.asarray(r, dtype=float)
        rk = np.power(r, k)
        inner = c_in * rk - r**2 / alpha
        outer = c_out * rk + d_out * np.power(r, -k) - r**2
        return np.where(r < eps, inner, outer)

    def dw(r):
        r = np.asarray(r, dtype=float)
        rk1 = np.power(r, k - 1.0)
        inner = k * c_in * rk1 - 2.0 * r / alpha
        outer = k * c_out * rk1 - k * d_out * np.power(r, -k - 1.0) - 2.0 * r
        return np.where(r < eps, inner, outer)

    return SeparableSolution(w, dw, (eps,), k, SectorDomain(beta), q_star(beta))


def annulus_solution(beta, eps):
    """Separable solution of the Dirichlet problem on the annular sector (eps, 1)."""
    _check_angle(beta)
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"inner radius must lie in (0, 1), got {eps}")
    k = np.pi / beta
    ek = eps**k
    emk = eps**-k
    denom = emk - ek
    c1 = (emk - eps**2) / denom
    c2 = (eps**2 - ek) / denom

    def w(r):
        r = np.asarray(r, dtype=float)
        return c1 * np.power(r, k) + c2 * np.power(r, -k) - r**2

    def dw(r):
        r = np.asarray(r, dtype=float)
        return k * c1 * np.power(r, k - 1.0) - k * c2 * np.power(r, -k - 1.0) - 2.0 * r

    return SeparableSolution(w, dw, (), k, SectorDomain(beta, r_inner=eps))


def h1_seminorm_separable(sol):
    """H1 seminorm of a separable solution by 1D radial quadrature.

    Uses sqrt((beta/2) * int (w'^2 + k^2 w^2/r^2) r dr) on the panels of
    ``quadrature.radial_edges``, aligned to the profile breakpoints.  A
    gradient that is not square integrable (``q_star <= 2``) raises
    ArithmeticError.
    """
    if sol.q_star <= 2.0:
        raise ArithmeticError(
            f"gradient is not square integrable at the corner (q* = {sol.q_star:g})")
    k = sol.angular_wavenumber
    dom = sol.domain
    w, dw = sol.radial_profile, sol.radial_derivative

    def integrand(r):
        return (dw(r) ** 2 + (k * w(r) / r) ** 2) * r

    val = integrate_radial(integrand, dom.r_inner, dom.r_outer, sol.breakpoints)
    return float(np.sqrt(0.5 * dom.beta * max(val, 0.0)))


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    n_evaluated: int
    n_skipped: int

    def __float__(self):
        return self.max_residual


def residual_check(sol, source, field, n_points=1000, step=1e-5,
                   corner_margin=0.02, interface_margin=1e-3, theta_margin=0.01):
    """Max of |-div(A grad u) - f| at interior sample points, by finite differences.

    Second-order central differences with the given step, nested for the
    divergence, at a deterministic low-discrepancy sample.  Points too close
    to the corner, to a coefficient interface or to the angular boundaries
    are skipped and counted in the report.
    """
    dom = sol.domain
    uv = halton(n_points, dim=2, start=1)
    r_lo = max(dom.r_inner + corner_margin, corner_margin)
    r_hi = dom.r_outer - corner_margin
    r = r_lo + uv[:, 0] * (r_hi - r_lo)
    theta = theta_margin + uv[:, 1] * (dom.beta - 2.0 * theta_margin)

    keep = np.ones(r.shape, dtype=bool)
    interfaces = set(field.interface_radii) | set(sol.breakpoints)
    for s in interfaces:
        keep &= np.abs(r - s) > interface_margin
    n_skipped = int(np.count_nonzero(~keep))
    r, theta = r[keep], theta[keep]
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    h = step
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])

    def flux(p):
        # F(p) = A(p) grad u(p), gradient by central differences
        gx = (sol.value(p + ex) - sol.value(p - ex)) / (2.0 * h)
        gy = (sol.value(p + ey) - sol.value(p - ey)) / (2.0 * h)
        grad = np.stack([gx, gy], axis=-1)
        return np.einsum("...ij,...j->...i", field.eval(p), grad)

    div = (
        (flux(pts + ex)[:, 0] - flux(pts - ex)[:, 0])
        + (flux(pts + ey)[:, 1] - flux(pts - ey)[:, 1])
    ) / (2.0 * h)
    res = -div - source.value(pts)
    return ResidualReport(float(np.max(np.abs(res))), int(res.size), n_skipped)
