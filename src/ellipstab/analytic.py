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
from .quadrature import integrate_radial


class DivergentNormError(ArithmeticError):
    """A gradient norm is infinite: the gradient lies in L^q only for q
    below ``q_star``, so a corner term c r^p with p <= 0 makes every H1
    norm diverge."""


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
        values = polar_angle(points)  # a fresh array, turned into the values in place
        values *= self.angular_wavenumber
        np.sin(values, out=values)
        values *= self.amplitude
        return values

    def __call__(self, points):
        return self.value(points)


def _power_sums(r, terms):
    """Sums of c * r^p and of c * p * r^(p - 1) over the (c, p) terms, from
    one r^p per term; zero for none.  The derivative is NaN at r = 0,
    without a warning there: the profile alone is wanted at r = 0."""
    w, dw = np.zeros(r.shape), np.zeros(r.shape)
    for c, p in terms:
        term = r**p
        w += term * c
        term *= c * p  # rescaled in place for the derivative
        dw += term
    if terms:
        with np.errstate(invalid="ignore"):
            dw /= r  # once: a term c p r^p overflows no sooner than c r^p
    return w, dw


@dataclass(frozen=True)
class SeparableSolution:
    """u(r, theta) = w(r) * sin(k * theta) on a sector domain, k = pi/beta.

    The profile w is a sum of power terms c * r^p on each radial piece:
    ``pieces`` is ((end, ((c, p), ...)), ...) in increasing order of end.
    A piece covers [previous end, end), the last one also every radius
    beyond, and an empty term tuple is the zero profile.
    """

    pieces: tuple
    domain: SectorDomain

    @property
    def angular_wavenumber(self):
        return np.pi / self.domain.beta

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

    def _profile(self, r):
        """w(r) and w'(r), each term summed over r's piece (``_power_sums``)."""
        r = np.asarray(r, dtype=float)
        piece = self._piece_index(r)
        w, dw = np.empty(r.shape), np.empty(r.shape)
        for i, (_, terms) in enumerate(self.pieces):
            on = piece == i
            w[on], dw[on] = _power_sums(r[on], terms)
        return w, dw

    def radial_profile(self, r):
        return self._profile(r)[0]

    def radial_derivative(self, r):
        return self._profile(r)[1]

    def value(self, points):
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = polar_angle(pts)
        return self.radial_profile(r) * np.sin(self.angular_wavenumber * theta)

    def gradient(self, points):
        """Cartesian gradient, (..., 2) -> (..., 2): the radial part w' sin(k theta)
        and angular part (k w / r) cos(k theta), from one profile pass, turned
        by cos theta = x / r and sin theta = y / r; NaN at r = 0."""
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        r = np.hypot(x, y)
        kt = self.angular_wavenumber * polar_angle(pts)
        w, dw = self._profile(r)
        gr = dw * np.sin(kt)
        gt = (self.angular_wavenumber * w / r) * np.cos(kt)
        cos_t, sin_t = x / r, y / r
        out = np.empty(pts.shape[:-1] + (2,))
        out[..., 0] = gr * cos_t - gt * sin_t
        out[..., 1] = gr * sin_t + gt * cos_t
        return out

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
        return SeparableSolution(tuple(pieces), dom)

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
        return SeparableSolution(((eps, ()),) + self.pieces, dom)


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
    return SeparableSolution(((np.inf, ((1.0, k), (-1.0, 2.0))),), SectorDomain(beta))


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
    return SeparableSolution(pieces, SectorDomain(beta))


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
    return SeparableSolution(((np.inf, ((c1, k), (c2, -k), (-1.0, 2.0))),),
                             SectorDomain(beta, r_inner=eps))


def h1_seminorm_separable(sol):
    """H1 seminorm of a separable solution by 1D radial quadrature.

    Uses sqrt((beta/2) * int (w'^2 + k^2 w^2/r^2) r dr) on the panels of
    ``quadrature.radial_edges``, aligned to the profile breakpoints.  A
    gradient that is not square integrable (``q_star <= 2``) raises
    DivergentNormError.
    """
    if sol.q_star <= 2.0:
        raise DivergentNormError(
            f"gradient is not square integrable at the corner (q* = {sol.q_star:g})")
    k = sol.angular_wavenumber
    dom = sol.domain

    def integrand(r):
        w, dw = sol._profile(r)
        return (dw**2 + (k * w / r) ** 2) * r

    val = integrate_radial(integrand, dom.r_inner, 1.0, sol.breakpoints)
    return float(np.sqrt(0.5 * dom.beta * max(val, 0.0)))


@dataclass(frozen=True)
class ResidualReport:
    """Named relative defects of a solution table, ((name, defect), ...):
    each is 0 for an exact table and O(1) or non-finite for a wrong one."""

    defects: tuple

    @property
    def max_residual(self):
        """The largest defect; NaN when any defect is NaN."""
        return float(np.max([d for _, d in self.defects]))


def _relative(parts):
    """|sum of parts| over the largest |part|: 0 when all parts vanish."""
    parts = np.asarray(parts, dtype=float)
    scale = np.max(np.abs(parts), initial=0.0)
    return float(abs(np.sum(parts)) / scale) if scale != 0.0 else 0.0


def _terms(terms, r, order):
    """The terms c * p^order * r^p of w(r) (order 0) or of r w'(r) (order 1):
    scaled by r, a derivative term overflows no sooner than its profile term."""
    c, p = np.array(terms, dtype=float).reshape(-1, 2).T
    return c * p**order * r**p


def residual_check(sol, source, field):
    """Certify that ``sol`` solves -div(A grad u) = f exactly, term by term.

    On a piece with conductivity a, -div(a grad(c r^p sin k theta)) =
    -a c (p^2 - k^2) r^(p-2) sin k theta, and f = amplitude * sin k theta
    with amplitude = 4 - k^2.  So the report holds, as relative defects:
    k = pi/beta of the domain against the source's wavenumber; per piece,
    each term with p != 2 against c (p^2 - k^2) = 0 and the p = 2
    coefficient against -a c2 (4 - k^2) = amplitude; continuity and flux
    continuity at each breakpoint; w(1) = 0, w(r_inner) = 0 on an annulus,
    and no term with p <= 0 on a piece that reaches the corner.
    The conductivity of each piece is read at one interior point; a field
    that is not scalar * I there, or whose interface radii are not
    breakpoints of ``sol``, raises ValueError.
    """
    dom = sol.domain
    k = sol.angular_wavenumber
    if not set(field.interface_radii) <= set(sol.breakpoints):
        raise ValueError(f"field interfaces {field.interface_radii} are not "
                         f"breakpoints of the solution {sol.breakpoints}")
    starts = (0.0, *sol.breakpoints)
    pieces = [(max(lo, dom.r_inner), min(end, 1.0), terms)
              for lo, (end, terms) in zip(starts, sol.pieces)
              if lo < 1.0 and end > dom.r_inner]
    defects = [("source wavenumber", _relative([k, -source.angular_wavenumber]))]
    cond = []
    for lo, hi, terms in pieces:
        r = 0.5 * (lo + hi)
        a = field.eval(np.array([r * np.cos(0.5 * dom.beta), r * np.sin(0.5 * dom.beta)]))
        if not (a[0, 1] == a[1, 0] == 0.0 and a[0, 0] == a[1, 1]):
            raise ValueError(f"conductivity at r = {r:g} is not a scalar times I")
        cond.append(float(a[0, 0]))
        c2 = sum(c for c, p in terms if p == 2.0)
        eq = [_relative([c * p * p, -c * k * k]) for c, p in terms if p != 2.0]
        eq.append(_relative([cond[-1] * c2 * (4.0 - k * k), source.amplitude]))
        defects.append((f"equation on {lo:.12g} <= r < {hi:.12g}", float(np.max(eq))))
    for (_, s, left), (_, _, right), a_l, a_r in zip(pieces, pieces[1:], cond, cond[1:]):
        for name, order, fl, fr in (("continuity", 0, 1.0, 1.0), ("flux continuity", 1, a_l, a_r)):
            parts = np.concatenate([fl * _terms(left, s, order), -fr * _terms(right, s, order)])
            defects.append((f"{name} at r={s:.12g}", _relative(parts)))
    defects.append(("outer Dirichlet value", _relative(_terms(pieces[-1][2], 1.0, 0))))
    if dom.r_inner > 0.0:
        defects.append(("inner Dirichlet value",
                        _relative(_terms(pieces[0][2], dom.r_inner, 0))))
    else:
        # c r^p with p <= 0 and c != 0 outgrows every other term as r -> 0,
        # so its defect there is 1; NaN coefficients count as nonzero
        defects.append(("corner terms",
                        float(any(c != 0.0 for c, p in pieces[0][2] if p <= 0.0))))
    return ResidualReport(tuple(defects))
