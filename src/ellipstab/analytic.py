"""Closed-form reference solutions on sector domains.

All solutions here are separable, u = w(r) * sin(k*theta) with k = pi/beta,
so their Dirichlet energies reduce to 1D radial integrals:

    |grad u|^2 integrated over the sector = (beta/2) * int (w'^2 + k^2 w^2 / r^2) r dr.

Keeping the norms 1D isolates the perturbation rates from any mesh error.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _power_sum(r, terms, order):
    """Sum of c * p^order * r^(p - order) over the (c, p) terms; zero for none."""
    total = np.zeros(r.shape)
    for c, p in terms:
        term = r ** (p - order)  # scaled in place: one temporary per term
        term *= c * p**order
        total += term
    return total


@dataclass(frozen=True)
class SeparableSolution:
    """u(r, theta) = w(r) * sin(k * theta) on a sector domain.

    The profile w is a sum of power terms c * r^p on each radial piece:
    ``pieces`` is ((end, ((c, p), ...)), ...) in increasing order of end.
    A piece covers [previous end, end), the last one also every radius
    beyond, and an empty term tuple is the zero profile.
    """

    pieces: tuple
    angular_wavenumber: float
    domain: SectorDomain

    @property
    def breakpoints(self):
        """Radii where the profile is merely continuous: the inner piece ends."""
        return tuple(end for end, _ in self.pieces[:-1])

    @property
    def q_star(self):
        """The gradient lies in L^q of the domain for every q < ``q_star``.

        A term c r^p sin(k theta) has |grad| ~ r^(p-1) at the corner, in L^q
        exactly when (p - 1) q + 2 > 0, so the corner piece's terms with
        p < 1 decide.  An annular domain excludes the corner.
        """
        corner = self.pieces[0][1] if self.domain.r_inner == 0.0 else ()
        return min((2.0 / (1.0 - p) for _, p in corner if p < 1.0), default=float("inf"))

    def _piece_index(self, r):
        # the number of piece ends at or below r, so r = end starts the next piece
        return sum(r >= end for end in self.breakpoints)

    def _sum(self, r, order):
        """Sum c * r^p (order 0) or c * p * r^(p-1) (order 1) over r's piece."""
        r = np.asarray(r, dtype=float)
        piece = self._piece_index(r)
        out = np.empty(r.shape)
        for i, (_, terms) in enumerate(self.pieces):
            on = piece == i
            out[on] = _power_sum(r[on], terms, order)
        return out

    def radial_profile(self, r):
        return self._sum(r, 0)

    def radial_derivative(self, r):
        return self._sum(r, 1)

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
        """Profile difference (wavenumbers must match): on each merged piece the
        coefficients of equal exponents subtract, and exact zeros are dropped."""
        if abs(self.angular_wavenumber - other.angular_wavenumber) > 1e-14:
            raise ValueError("angular wavenumbers differ")
        dom = self.domain if self.domain.r_inner >= other.domain.r_inner else other.domain
        ends = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = []
        for start, end in zip([0.0, *ends], [*ends, np.inf]):
            coef = {p: c for c, p in self.pieces[self._piece_index(start)][1]}
            for c, p in other.pieces[other._piece_index(start)][1]:
                coef[p] = coef.get(p, 0.0) - c
            pieces.append((end, tuple((c, p) for p, c in coef.items() if c != 0.0)))
        return SeparableSolution(tuple(pieces), self.angular_wavenumber, dom)

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
        dom = SectorDomain(self.domain.beta)
        return SeparableSolution(((eps, ()),) + self.pieces, self.angular_wavenumber, dom)


def _check_angle(beta):
    if not np.pi < beta < 2.0 * np.pi:
        raise ValueError(f"angle must lie in (pi, 2*pi), got {beta}")


def q_star(beta):
    """Gradient integrability threshold 2*beta/(beta - pi) of the corner term r^(pi/beta)."""
    return limit_solution(beta).q_star


def limit_solution(beta):
    """Solution (r^k - r^2) sin(k*theta), k = pi/beta, of the unperturbed problem.

    Its gradient lies in L^q exactly for q below 2*beta/(beta - pi).
    """
    _check_angle(beta)
    k = np.pi / beta
    return SeparableSolution(((np.inf, ((1.0, k), (-1.0, 2.0))),), k, SectorDomain(beta))


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
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"conductivity must be positive and finite, got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"jump radius must lie in (0, 1), got {eps}")
    k = np.pi / beta
    ek = eps**k
    emk = eps**-k
    denom = (1.0 - alpha) * ek + (1.0 + alpha) * emk
    c_in = ((1.0 / alpha - 1.0) * (eps**2 + eps ** (2.0 - 2.0 * k)) + 2.0 * emk) / denom
    c_out = ((1.0 - alpha) * eps**2 + (1.0 + alpha) * emk) / denom
    d_out = (1.0 - alpha) * (ek - eps**2) / denom
    pieces = ((eps, ((c_in, k), (-1.0 / alpha, 2.0))),
              (np.inf, ((c_out, k), (d_out, -k), (-1.0, 2.0))))
    return SeparableSolution(pieces, k, SectorDomain(beta))


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
    return SeparableSolution(((np.inf, ((c1, k), (c2, -k), (-1.0, 2.0))),), k,
                             SectorDomain(beta, r_inner=eps))


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

    val = integrate_radial(integrand, dom.r_inner, 1.0, sol.breakpoints)
    return float(np.sqrt(0.5 * dom.beta * max(val, 0.0)))


# residual_check's sample: Halton points over the sector, kept CORNER_MARGIN
# from the corner and the arcs, THETA_MARGIN from the straight edges and
# INTERFACE_MARGIN from every interface circle; RESIDUAL_STEP is the
# central-difference step.  The nested differences have a truncation error
# ~ h^2 r^(k-4), largest at r = CORNER_MARGIN for beta near 2 pi, and a
# rounding error ~ 1e-16 / h^2.  Over beta in {1.1, 1.5, 1.9} pi, alpha in
# [1e-2, 1e2] and eps in half-decades, a step of 1e-5 read residuals up to
# 1.4e-4 and one of 2e-6 up to 2.4e-4; 5e-6 keeps all of them at or below 3.9e-5
RESIDUAL_POINTS = 1000
RESIDUAL_STEP = 5e-6
CORNER_MARGIN = 0.02
INTERFACE_MARGIN = 1e-3
THETA_MARGIN = 0.01


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    n_evaluated: int
    n_skipped: int


def residual_check(sol, source, field):
    """Max of |-div(A grad u) - f| at interior sample points, by finite differences.

    Second-order central differences with step ``RESIDUAL_STEP``, nested for
    the divergence, at a deterministic low-discrepancy sample.  Points too close
    to the corner, to a coefficient interface or to the angular boundaries
    are skipped and counted in the report.
    """
    dom = sol.domain
    uv = halton(RESIDUAL_POINTS)
    r_lo = max(dom.r_inner + CORNER_MARGIN, CORNER_MARGIN)
    r_hi = 1.0 - CORNER_MARGIN
    r = r_lo + uv[:, 0] * (r_hi - r_lo)
    theta = THETA_MARGIN + uv[:, 1] * (dom.beta - 2.0 * THETA_MARGIN)

    keep = np.ones(r.shape, dtype=bool)
    interfaces = set(field.interface_radii) | set(sol.breakpoints)
    for s in interfaces:
        keep &= np.abs(r - s) > INTERFACE_MARGIN
    n_skipped = int(np.count_nonzero(~keep))
    r, theta = r[keep], theta[keep]
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    h = RESIDUAL_STEP
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
