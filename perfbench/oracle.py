"""Independent high-precision reference values for the benchmark's checks.

Every profile of the separable model problems is, on each radial piece, a
sum of power terms c * r^p with p in {k, -k, 2}, k = pi/beta.  The
coefficients are re-derived here from the boundary-value problems
themselves (regularity at the corner, Dirichlet data, continuity and flux
continuity across the jump circle), solved in mpmath; nothing is taken
from ``ellipstab.analytic``.  H1 seminorms then follow by exact integration
of products of power terms:

    |u|^2 = (beta/2) * int (w'^2 + k^2 w^2 / r^2) r dr
          = (beta/2) * sum_ij c_i c_j (p_i p_j + k^2) int r^(p_i + p_j - 1) dr.

The composition-inequality left-hand side (beta/2) int_0^{2 eps}
(w(r/2 + eps) - w(r))^2 r dr of the limit profile w = r^k - r^2 splits into
three parts homogeneous in (r, eps), so it needs three quadratures per
angle and none per eps.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40
# (beta, alpha, eps) at which the closed forms are compared with mpmath.quad
SELF_CHECK_POINTS = ((1.15 * math.pi, 0.02, 1e-3), (1.85 * math.pi, 40.0, 0.2))


def _piece_seminorm_sq(terms, a, b, k):
    """int_a^b (w'^2 + k^2 w^2 / r^2) r dr for w = sum c r^p on (a, b)."""
    total = mp.mpf(0)
    for ci, pi in terms:
        for cj, pj in terms:
            weight = pi * pj + k * k
            if weight == 0:
                continue
            s = pi + pj
            if s == 0:
                part = mp.log(b / a)
            elif a == 0:
                if s < 0:
                    raise ArithmeticError("non-integrable power at the corner")
                part = b**s / s
            else:
                part = (b**s - a**s) / s
            total += ci * cj * weight * part
    return total


def _difference(terms_a, terms_b):
    """Power-term list of terms_a - terms_b, like powers merged."""
    out = {}
    for c, p in terms_a:
        out[p] = out.get(p, 0) + c
    for c, p in terms_b:
        out[p] = out.get(p, 0) - c
    return [(c, p) for p, c in out.items()]


class Oracle:
    """mpmath reference values, cached per parameter tuple.

    Inputs are Python floats exactly as the program received them; all
    arithmetic runs at ``DPS`` decimal digits and results are returned as
    floats.
    """

    def __init__(self):
        self._cache = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            with mp.workdps(DPS):
                self._cache[key] = compute()
        return self._cache[key]

    # -- profiles as {piece: power terms} ------------------------------------

    @staticmethod
    def _k(beta):
        return mp.pi / mp.mpf(beta)

    def limit_terms(self, beta):
        """u0 = r^k - r^2: regular at 0, zero at r = 1."""
        return [(mp.mpf(1), self._k(beta)), (mp.mpf(-1), mp.mpf(2))]

    def jump_pieces(self, beta, alpha, eps):
        """Inner A r^k - r^2/alpha, outer B r^k + C r^-k - r^2.

        Conditions: w(1) = 0, continuity and alpha w'(eps-) = w'(eps+).
        """
        k = self._k(beta)
        al, e = mp.mpf(alpha), mp.mpf(eps)
        m = mp.matrix([
            [0, 1, 1],
            [e**k, -(e**k), -(e**-k)],
            [al * k * e ** (k - 1), -k * e ** (k - 1), k * e ** (-k - 1)],
        ])
        rhs = mp.matrix([1, e**2 / al - e**2, 2 * e - 2 * e])
        a_in, b_out, c_out = mp.lu_solve(m, rhs)
        inner = [(a_in, k), (-1 / al, mp.mpf(2))]
        outer = [(b_out, k), (c_out, -k), (mp.mpf(-1), mp.mpf(2))]
        return [(mp.mpf(0), e, inner), (e, mp.mpf(1), outer)]

    def annulus_pieces(self, beta, eps):
        """B r^k + C r^-k - r^2 with w(eps) = w(1) = 0."""
        k = self._k(beta)
        e = mp.mpf(eps)
        m = mp.matrix([[1, 1], [e**k, e**-k]])
        b, c = mp.lu_solve(m, mp.matrix([1, e**2]))
        return [(e, mp.mpf(1), [(b, k), (c, -k), (mp.mpf(-1), mp.mpf(2))])]

    def _seminorm(self, beta, pieces):
        k = self._k(beta)
        sq = sum(_piece_seminorm_sq(t, a, b, k) for a, b, t in pieces)
        return mp.sqrt(mp.mpf(beta) / 2 * sq)

    # -- public reference values ----------------------------------------------

    def coeff_error(self, beta, alpha, eps):
        """|u_jump - u0|_H1 over the sector."""
        def compute():
            u0 = self.limit_terms(beta)
            pieces = [(a, b, _difference(t, u0))
                      for a, b, t in self.jump_pieces(beta, alpha, eps)]
            return float(self._seminorm(beta, pieces))
        return self._cached(("coeff", beta, alpha, eps), compute)

    def domain_error(self, beta, eps):
        """|ext0(u_annulus) - u0|_H1 over the sector."""
        def compute():
            u0 = self.limit_terms(beta)
            (e, one, ann), = self.annulus_pieces(beta, eps)
            pieces = [(mp.mpf(0), e, [(-c, p) for c, p in u0]),
                      (e, one, _difference(ann, u0))]
            return float(self._seminorm(beta, pieces))
        return self._cached(("domain", beta, eps), compute)

    def jump_seminorm(self, beta, alpha, eps):
        """|u_jump|_H1 over the sector."""
        return self._cached(
            ("jump", beta, alpha, eps),
            lambda: float(self._seminorm(beta, self.jump_pieces(beta, alpha, eps))))

    def _wwww_parts(self, beta):
        """int_0^2 of a^2 t, a b t, b^2 t with a = (t/2+1)^k - t^k, b = t^2 - (t/2+1)^2."""
        def compute():
            k = self._k(beta)

            def a(t):
                return (t / 2 + 1) ** k - t**k

            def b(t):
                return t**2 - (t / 2 + 1) ** 2

            return tuple(mp.quad(f, [0, 1, 2]) for f in (
                lambda t: a(t) ** 2 * t,
                lambda t: a(t) * b(t) * t,
                lambda t: b(t) ** 2 * t))
        return self._cached(("wwww_parts", beta), compute)

    def wwww_lhs(self, beta, eps):
        """||u0 o phi_eps - u0||_L2 for the radial shift map phi_eps."""
        def compute():
            k = self._k(beta)
            e = mp.mpf(eps)
            i_aa, i_ab, i_bb = self._wwww_parts(beta)
            # r = eps * t: w(r/2 + eps) - w(r) = eps^k a(t) + eps^2 b(t)
            val = (e ** (2 * k + 2) * i_aa + 2 * e ** (k + 4) * i_ab
                   + e**6 * i_bb)
            return float(mp.sqrt(mp.mpf(beta) / 2 * val))
        return self._cached(("wwww", beta, eps), compute)

    def jump_p1_h1_error(self, beta, alpha, eps, vertices, triangles, values):
        """|u_h - u_jump|_H1 of a P1 function given by its nodal values.

        The exact gradient comes from the closed-form profile coefficients
        (rounded to floats).  Each triangle takes the profile piece of its
        own side of the meshed jump interface (by its centroid), as the FEM
        coefficient does: the thin segments between an interface chord and
        the jump circle would otherwise put a jump of the integrand inside
        a triangle, which no fixed rule resolves.  The integral uses a
        collapsed (Duffy) Gauss rule per triangle.  On triangles touching
        the corner the radial variable is substituted s = sigma^3 from the
        apex, which turns the r^(2k-2) singularity of |grad u|^2 into a
        smooth sigma^(6k-1) integrand.
        """
        import numpy as np

        k = math.pi / beta
        (_, _, inner), (_, _, outer) = self._cached(
            ("jump_pieces", beta, alpha, eps),
            lambda: [(a, b, [(float(c), float(p)) for c, p in t])
                     for a, b, t in self.jump_pieces(beta, alpha, eps)])
        corner = np.linalg.norm(vertices, axis=1)[triangles] <= 1e-12
        # put a corner vertex first so the collapsed rule's apex sits on it
        roll = np.argmax(corner, axis=1)
        tri = np.take_along_axis(triangles, (roll[:, None] + np.arange(3)) % 3, axis=1)
        p0, p1, p2 = (vertices[tri[:, i]] for i in range(3))
        e1, e2 = p1 - p0, p2 - p0
        d1, d2 = values[tri[:, 1]] - values[tri[:, 0]], values[tri[:, 2]] - values[tri[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        grad_h = np.stack([d1 * e2[:, 1] - d2 * e1[:, 1],
                           e1[:, 0] * d2 - e2[:, 0] * d1], axis=1) / det[:, None]

        inside = np.hypot(*(p0 + (e1 + e2) / 3).T) < eps

        def exact_gradient(x, y, inside):
            r = np.hypot(x, y)
            theta = np.arctan2(y, x) % (2 * math.pi)
            dw = np.zeros_like(r)
            w_r = np.zeros_like(r)  # w(r) / r
            inside = np.broadcast_to(inside[:, None], r.shape)
            for terms, mask in ((inner, inside), (outer, ~inside)):
                for c, p in terms:
                    rp = np.power(r[mask], p - 1)
                    dw[mask] += c * p * rp
                    w_r[mask] += c * rp
            u_r, u_t = dw * np.sin(k * theta), k * w_r * np.cos(k * theta)
            cos_t, sin_t = x / r, y / r
            return u_r * cos_t - u_t * sin_t, u_r * sin_t + u_t * cos_t

        total = 0.0
        for is_corner, n_s, n_t, power in ((False, 4, 4, 1), (True, 24, 8, 3)):
            sel = np.flatnonzero(corner.any(axis=1) == is_corner)
            sig, w_sig = np.polynomial.legendre.leggauss(n_s)
            t, w_t = np.polynomial.legendre.leggauss(n_t)
            sig, w_sig, t, w_t = (sig + 1) / 2, w_sig / 2, (t + 1) / 2, w_t / 2
            s = sig**power
            # weight of (sigma, t): ds/dsigma * s (collapse) * w_sigma * w_t
            weight = np.outer(power * sig ** (power - 1) * s * w_sig, w_t).ravel()
            ss, tt = (a.ravel() for a in np.meshgrid(s, t, indexing="ij"))
            for chunk in np.array_split(sel, max(1, sel.size // 4096)):
                a, b, c = p0[chunk], e1[chunk], e2[chunk]
                pts = a[:, None, :] + ss[None, :, None] * (
                    (1 - tt)[None, :, None] * b[:, None, :] + tt[None, :, None] * c[:, None, :])
                gx, gy = exact_gradient(pts[..., 0], pts[..., 1], inside[chunk])
                f2 = (grad_h[chunk, 0, None] - gx) ** 2 + (grad_h[chunk, 1, None] - gy) ** 2
                total += float(np.sum(np.abs(det[chunk]) * (f2 @ weight)))
        return math.sqrt(total)

    # -- self-check ------------------------------------------------------------

    def self_check(self):
        """Compare the closed forms with direct mpmath quadrature.

        Returns the worst relative deviation; it should sit far below
        double-precision round-off.
        """
        worst = 0.0
        with mp.workdps(DPS):
            for beta, alpha, eps in SELF_CHECK_POINTS:
                k = self._k(beta)
                u0 = self.limit_terms(beta)
                jump = self.jump_pieces(beta, alpha, eps)
                ann = self.annulus_pieces(beta, eps)
                e = mp.mpf(eps)

                def profile(pieces):
                    def w(r):
                        for a, b, terms in pieces:
                            if a <= r <= b:
                                return sum(c * r**p for c, p in terms)
                        return mp.mpf(0)

                    return w

                def dprofile(pieces):
                    def dw(r):
                        for a, b, terms in pieces:
                            if a <= r <= b:
                                return sum(c * p * r ** (p - 1) for c, p in terms)
                        return mp.mpf(0)

                    return dw

                w0 = profile([(mp.mpf(0), mp.mpf(1), u0)])
                d0 = dprofile([(mp.mpf(0), mp.mpf(1), u0)])
                cases = [
                    (profile(jump), dprofile(jump), self.coeff_error(beta, alpha, eps),
                     True),
                    (profile(ann), dprofile(ann), self.domain_error(beta, eps), True),
                    (profile(jump), dprofile(jump), self.jump_seminorm(beta, alpha, eps),
                     False),
                ]
                for w, dw, closed, minus_u0 in cases:
                    def integrand(r, w=w, dw=dw, minus_u0=minus_u0):
                        wv, dv = w(r), dw(r)
                        if minus_u0:
                            wv, dv = wv - w0(r), dv - d0(r)
                        return (dv**2 + (k * wv / r) ** 2) * r

                    quad = mp.sqrt(mp.mpf(beta) / 2 * mp.quad(integrand, [0, e, 1]))
                    worst = max(worst, float(abs(quad - closed) / quad))

                def comp_sq(r):
                    return (w0(r / 2 + e) - w0(r)) ** 2 * r

                quad = mp.sqrt(mp.mpf(beta) / 2 * mp.quad(comp_sq, [0, e, 2 * e]))
                closed = self.wwww_lhs(beta, eps)
                worst = max(worst, float(abs(quad - closed) / quad))
        return worst
