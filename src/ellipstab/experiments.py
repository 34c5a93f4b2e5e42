"""Rate studies and inequality tracking for the perturbation experiments.

Each study produces an empirical convergence exponent (least-squares slope
in log-log coordinates) and a bound check that follows the ratio of the
measured error to a theoretical majorant over a geometric grid of
perturbation sizes.  A ratio series that is non-increasing or stable over
the asymptotic window certifies the bound with its observed constant; a
growing ratio refutes the tested exponent.

The two FEM studies, the domain study's "fem" mode and the qualitative
study, share one mesh rule (``_fem_radii``), one floor (``fem_eps_floor``)
and one 10 % agreement rule with the closed forms (``fem_agreement``).  The
qualitative study solves for the difference u_eps - u_0 in one solve
(``_fem_difference_error``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import analytic, coefficients, error_norms, fem, geometry, meshing, quadrature


class HypothesisViolation(ValueError):
    """A study was asked to run outside its integrability hypotheses."""

    def __init__(self, message, q=None, q_star=None):
        super().__init__(message)
        self.q = q
        self.q_star = q_star


class ResolutionViolation(ValueError):
    """A FEM study was asked for an eps below what its mesh resolves."""


class ConditionViolation(ValueError):
    def __init__(self, message, eps=None, point=None, value=None):
        super().__init__(message)
        self.eps = eps
        self.point = point
        self.value = value


# the studies' default eps grid: 7 geometric steps from 1e-1 down to 1e-4
DEFAULT_EPS_GRID = tuple(np.geomspace(1e-1, 1e-4, 7))
# radial grading exponent mu of the studies' FEM meshes, nodes at (i/n)^mu
GRADING = 3.0
# the FEM studies' default mesh: graded rings and angular intervals
N_RADIAL = 96
N_ANGULAR = 64
# largest relative deviation of a FEM error from its closed form that a FEM
# study leaves unflagged
AGREEMENT_TOL = 0.10


def _eps_grid(eps_grid):
    """A study's eps grid as floats, largest first; ``DEFAULT_EPS_GRID`` for None."""
    grid = DEFAULT_EPS_GRID if eps_grid is None else eps_grid
    return tuple(sorted((float(e) for e in grid), reverse=True))


def default_window(n):
    """Fit window: drop the two largest (pre-asymptotic) sizes when affordable."""
    return (2, n - 1) if n >= 6 else (0, n - 1)


@dataclass(frozen=True)
class RateFit:
    """Fitted power law error ~ constant * eps^exponent."""

    exponent: float
    constant: float
    r_squared: float
    samples: tuple  # ((eps, error), ...) with eps strictly decreasing
    window: tuple  # inclusive index range used for the fit
    degenerate: bool = False


def fit_loglog(samples, window=None):
    """Least-squares line through (log eps, log error) over the window.

    Samples are sorted by decreasing eps.  A family whose errors all vanish
    has no rate to fit: its fit has a NaN exponent, spans every sample and
    has ``degenerate`` set.  Otherwise at least 4 points must fall in the
    window and every windowed error must be positive.
    """
    samples = tuple(sorted(((float(e), float(v)) for e, v in samples),
                           key=lambda t: -t[0]))
    n = len(samples)
    if n >= 2 and len({e for e, _ in samples}) != n:
        raise ValueError("duplicate eps values")
    if n and all(v == 0.0 for _, v in samples):
        return RateFit(float("nan"), 0.0, 0.0, samples, (0, n - 1), degenerate=True)
    if window is None:
        window = default_window(n)
    i0, i1 = window
    if not (0 <= i0 <= i1 < n):
        raise ValueError(f"window {window} out of range for {n} samples")
    if i1 - i0 + 1 < 4:
        raise ValueError("fit needs at least 4 points in the window")
    eps = np.array([samples[i][0] for i in range(i0, i1 + 1)])
    err = np.array([samples[i][1] for i in range(i0, i1 + 1)])
    if np.any(err <= 0.0):
        raise ValueError("errors must be positive for a log-log fit")
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot < 1e-28 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(slope), float(np.exp(intercept)),
                   float(np.clip(r2, 0.0, 1.0)), samples, (i0, i1))


@dataclass(frozen=True)
class BoundCheck:
    """Tracks lhs <= c * rhs over a parameter grid.

    ``verdict`` is "bounded" when the ratio series is non-increasing or
    stable (spread below 20%) over the asymptotic window, else "violated".
    ``ratios`` holds lhs / rhs per grid point: 0 where both vanish, inf
    where only rhs does.  ``hypothesis_params`` records (q, M) used to form
    the right-hand side.
    """

    eps: tuple
    lhs_series: tuple
    rhs_series: tuple
    ratios: tuple
    hypothesis_params: tuple
    verdict: str
    window: tuple
    extras: dict = field(default_factory=dict)

    @property
    def ratio_max(self):
        return float(np.max(self.ratios))


def bound_check(eps, lhs, rhs, q, m_const):
    eps = tuple(float(e) for e in eps)
    lhs = tuple(float(v) for v in lhs)
    rhs = tuple(float(v) for v in rhs)
    order = np.argsort(-np.asarray(eps))
    eps = tuple(eps[i] for i in order)
    lhs = tuple(lhs[i] for i in order)
    rhs = tuple(rhs[i] for i in order)
    ratios = tuple(l / r if r > 0.0 else (0.0 if l <= 0.0 else float("inf"))
                   for l, r in zip(lhs, rhs))
    i0, i1 = default_window(len(eps))
    w = ratios[i0:i1 + 1]
    non_increasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(w[:-1], w[1:]))
    positive = [v for v in w if v > 0.0]
    if not positive:
        stable = True
    elif any(np.isinf(v) for v in w):
        stable = False
    else:
        stable = max(positive) / min(positive) < 1.2 and max(w) == max(positive)
    verdict = "bounded" if (non_increasing or stable) else "violated"
    return BoundCheck(eps, lhs, rhs, ratios, (float(q), float(m_const)),
                      verdict, (i0, i1))


q_star = analytic.q_star


def _check_exponent(beta, q):
    if not 2.0 < q:
        raise ValueError(f"q must exceed 2, got {q:g}")
    qs = q_star(beta)
    if not q < qs:
        raise HypothesisViolation(
            f"q = {q:g} is not admissible: the corner gradient lies in L^q "
            f"only for q < {qs:g}", q=q, q_star=qs)


# -- coefficient perturbation study ------------------------------------------


@dataclass(frozen=True)
class CoefficientStudy:
    rate: RateFit
    bound: BoundCheck
    lower_bound_ratios: tuple  # error^2 / eps^(2 pi / beta), per grid point
    lower_bound_constant: float  # pi (1-alpha)^2 / (2 beta (1+alpha)^2)
    grad_norm_q: float


def coefficient_rate_study(beta, alpha, eps_grid=None, q=4.0):
    """Error decay of the conductivity-jump family against the jump size.

    Semi-analytic: the error is the 1D weighted seminorm of the profile
    difference between the perturbed and unperturbed separable solutions.
    The bound check compares the error with
    ||grad u0||_{L^q} * ||a_eps - 1||_{L^p}, p = 2q/(q-2), and the squared
    error divided by eps^(2 pi / beta) is reported against the sharpness
    constant pi (1-alpha)^2 / (2 beta (1+alpha)^2).  At alpha = 1 every
    error and every bound is zero, and the fit is degenerate.
    """
    _check_exponent(beta, q)
    eps_grid = _eps_grid(eps_grid)
    u0 = analytic.limit_solution(beta)
    k = np.pi / beta

    errors = [semi_jump_error(beta, alpha, eps, u0) for eps in eps_grid]
    samples = tuple(zip(eps_grid, errors))

    # the squared contrast ratio stays in [0, 1) for every finite alpha > 0
    lower_const = np.pi / (2.0 * beta) * ((1.0 - alpha) / (1.0 + alpha)) ** 2
    rate = fit_loglog(samples)

    p = 2.0 * q / (q - 2.0)
    grad_norm = error_norms.lq_gradient_norm(u0, q)
    sector = geometry.SectorDomain(beta)
    ident = coefficients.identity_field()
    rhs = [grad_norm * coefficients.lp_distance(
        coefficients.radial_jump_field(alpha, eps), ident, p, sector)
        for eps in eps_grid]
    bound = bound_check(eps_grid, errors, rhs, q, grad_norm)
    lower_ratios = tuple(err**2 / eps ** (2.0 * k)
                         for eps, err in zip(eps_grid, errors))
    return CoefficientStudy(rate, bound, lower_ratios, float(lower_const),
                            float(grad_norm))


# -- domain perturbation study ------------------------------------------------


@dataclass(frozen=True)
class DomainStudy:
    rate: RateFit
    bound: BoundCheck
    mode: str
    agreement: tuple = ()  # relative fem vs semi difference per grid point
    flagged: tuple = ()  # grid indices where it is not within AGREEMENT_TOL


def semi_jump_error(beta, alpha, eps, u0):
    """H1 seminorm distance of the jump solution from the limit solution
    ``u0``, in closed form (1D radial quadrature of the profile difference)."""
    return analytic.h1_seminorm_separable(
        analytic.jump_solution(beta, alpha, eps).difference(u0))


def fem_agreement(errors, exact):
    """The relative deviation |error - exact| / exact of each FEM error from
    its closed form, and the indices where it is not within AGREEMENT_TOL; a
    NaN deviation (0 / 0, inf / inf) is not."""
    with np.errstate(divide="ignore", invalid="ignore"):
        agreement = np.abs(np.subtract(errors, exact)) / np.asarray(exact, dtype=float)
    flagged = np.flatnonzero(~(agreement <= AGREEMENT_TOL))
    return tuple(agreement.tolist()), tuple(flagged.tolist())


def _semi_annulus_error(beta, eps, u0):
    ue = analytic.annulus_solution(beta, eps).extended_by_zero()
    return analytic.h1_seminorm_separable(ue.difference(u0))


def _fem_annulus_error(beta, eps, n_radial, n_angular):
    """H1 seminorm distance of the FEM annulus solution, extended by zero,
    from the FEM sector solution.

    The sector mesh ``mesh0`` has the radii ``_fem_radii``; the annulus mesh
    ``mesh_eps`` is ``mesh0`` without its rings r < eps.  Only ``mesh0``'s system is assembled: the annulus system
    is its trailing block (``_annulus_system``).  The error is integrated
    over ``mesh0``'s cells, locating the rule points in ``mesh_eps``.
    """
    sector = geometry.SectorDomain(beta)
    annulus = geometry.SectorDomain(beta, r_inner=eps)
    radii = _fem_radii(sector, eps, n_radial)
    mesh0 = meshing.mesh_sector_from_radii(sector, radii, n_angular)
    mesh_eps = meshing.mesh_sector_from_radii(annulus, radii[radii >= eps], n_angular)
    sys0 = fem.assemble(mesh0, coefficients.identity_field(),
                        source=analytic.SourceTerm(beta))
    sol0 = fem.solve_cg(sys0)
    sol_eps = fem.solve_cg(_annulus_system(sys0, mesh_eps))
    del sys0  # no system is held during the cross-domain error
    # the sector mesh covers the union of both domains and its cells align
    # with the annulus mesh on r >= eps, so the quadrature is exact per cell
    return error_norms.cross_domain_gradient_error(sol_eps, sol0, quad_mesh=mesh0)


def _annulus_system(sys0, mesh_eps):
    """``fem.assemble`` of ``mesh_eps`` taken from the sector system ``sys0``.

    ``mesh_eps`` must be the sector mesh without its rings r < eps, numbered
    alike: its vertex v is the sector's vertex v + offset and its triangles
    are the sector's last ones.  The sector's cells inside r < eps touch only
    vertices with r <= eps, which are Dirichlet on ``mesh_eps``, so the
    annulus system is the trailing principal block over ``mesh_eps``'s free
    vertices, to the bit: ``fem.assemble`` sums each diagonal and edge entry
    over its elements in element order, and the block's entries have the
    same elements in the same order, since ``mesh_eps``'s triangles are the
    sector's last ones; its edges, ascending in (lo, hi) on both meshes,
    keep their order under the shift by k.  Raises ValueError when the
    meshes are not so related.
    """
    mesh0 = sys0.mesh
    offset = mesh0.num_vertices - mesh_eps.num_vertices
    first_triangle = mesh0.num_triangles - mesh_eps.num_triangles
    free = np.flatnonzero(~mesh_eps.boundary_flags)
    k = sys0.num_unknowns - free.size
    if not (min(offset, first_triangle, k) >= 0
            and np.array_equal(mesh0.vertices[offset:], mesh_eps.vertices)
            and np.array_equal(mesh0.triangles[first_triangle:], mesh_eps.triangles + offset)
            and np.array_equal(sys0.free_vertices[k:], free + offset)):
        raise ValueError("annulus mesh is not the outer part of the sector mesh")
    trailing = np.arange(k, sys0.num_unknowns)
    return fem.SparseSystem(sys0.matrix.block(trailing), sys0.rhs[k:], free, mesh_eps)


def _fem_radii(sector, eps, n_radial, interface_radii=()):
    """The radial nodes of a FEM study's mesh at ``eps``: ``n_radial`` rings
    graded by ``GRADING``, with node circles at eps, at 2 eps when it is
    below 1 (where the radial shift map stops moving points), and at the
    ``interface_radii`` inside (0, 1)."""
    aligned = (eps, 2.0 * eps) if 2.0 * eps < 1.0 else (eps,)
    aligned += tuple(r for r in interface_radii if 0.0 < r < 1.0)
    return meshing.graded_radii(sector, n_radial, GRADING, aligned_radii=aligned)


def fem_eps_floor(n_radial):
    """Smallest eps the FEM studies resolve: their mesh's innermost graded
    radius (1/n_radial)^GRADING, below which the cells out to that radius are
    stretched far past the grading and the FEM error drifts off."""
    return (1.0 / n_radial) ** GRADING


def _check_resolved(eps_grid, n_radial):
    """Raise ResolutionViolation when the smallest eps of ``eps_grid`` (sorted
    largest first) is below ``fem_eps_floor(n_radial)``."""
    floor = fem_eps_floor(n_radial)
    if not eps_grid[-1] >= floor:
        raise ResolutionViolation(
            f"eps {eps_grid[-1]:g} is below {floor:.12g}, the innermost graded "
            f"radius (1/{n_radial})^{GRADING:g} of the FEM mesh")


def domain_rate_study(beta, eps_grid=None, q=4.0, mode="semi",
                      rhs_eps_exponent=None, n_radial=N_RADIAL, n_angular=N_ANGULAR):
    """Error decay of the annular-sector family against the hole size.

    The bound check compares the error over the full sector (perturbed
    gradient extended by zero) with |E|^((q-2)/(2q)), where
    |E| = 2*beta*eps^2 is the measure moved by the radial shift map.
    ``rhs_eps_exponent`` overrides the eps-exponent (q-2)/q of that
    majorant; a larger exponent makes the ratio diverge, which is how the
    sharpness of the original exponent is exhibited.  ``mode`` is "semi"
    (semi-analytic errors) or "fem" (FEM errors, checked against them); a
    "fem" grid reaching below ``fem_eps_floor(n_radial)`` raises
    ResolutionViolation before any work, and ``flagged`` lists the grid
    points whose FEM error is off the semi-analytic one (``fem_agreement``).
    """
    _check_exponent(beta, q)
    if mode not in ("semi", "fem"):
        raise ValueError(f"unknown mode {mode!r}")
    eps_grid = _eps_grid(eps_grid)
    if mode == "fem":
        _check_resolved(eps_grid, n_radial)
    u0 = analytic.limit_solution(beta)

    semi = tuple(_semi_annulus_error(beta, eps, u0) for eps in eps_grid)
    if mode == "fem":
        errors = tuple(_fem_annulus_error(beta, eps, n_radial, n_angular)
                       for eps in eps_grid)
        agreement, flagged = fem_agreement(errors, semi)
    else:
        errors = semi
        agreement = ()
        flagged = ()

    samples = tuple(zip(eps_grid, errors))
    rate = fit_loglog(samples)

    exponent_rhs = (q - 2.0) / (2.0 * q)
    rhs = []
    for eps in eps_grid:
        e_measure = geometry.radial_shift_map(eps, beta).e_set_measure
        if rhs_eps_exponent is None:
            rhs.append(e_measure**exponent_rhs)
        else:
            rhs.append((2.0 * beta) ** exponent_rhs * eps**rhs_eps_exponent)
    lip = geometry.radial_shift_map(eps_grid[0], beta).lip_constant
    bound = bound_check(eps_grid, errors, rhs, q, lip)
    return DomainStudy(rate, bound, mode, agreement, flagged)


# -- composition inequality ----------------------------------------------------


def composition_inequality_check(beta, eps_grid, q):
    """Check ||u o phi - u||_L2 <= c ||u||_Lq |E|^((q-2)/(2q)) over radial shift maps.

    u = w(r) sin(k theta) is the limit solution on the sector of angle
    ``beta``, and phi runs over ``geometry.radial_shift_map(eps, beta)``,
    (r, theta) -> (s(r), theta), for every eps of ``eps_grid``; each map
    moves exactly the points with r < 2 eps.  The angular factor integrates
    in closed form, so each norm is one radial integral:

        ||u o phi - u||_L2^2 = (beta/2) int_0^{2 eps} (w(s(r)) - w(r))^2 r dr,
        ||u||_Lq^q = A_q int_0^1 |w|^q r dr   (``_limit_lq_norm``),
        A_q = int_0^beta |sin(k theta)|^q dtheta
            = (beta/sqrt(pi)) Gamma((q+1)/2) / Gamma(q/2+1).

    ``extras`` tracks ||(Dphi)^{-1} - I||_Lq against the same majorant.  In
    the polar frame that matrix is diag(1/s' - 1, r/s - 1) = diag(1, r/s - 1)
    on r < 2 eps, with |r/s - 1| <= 1, and zero beyond, so its spectral norm
    is the indicator of the moved set and the deviation is |E|^(1/q).  It is
    the bounded one: the forward angular stretch s(r)/r blows up at the
    corner, so the forward deviation is not in L^q for q > 2.  The constant
    is reported, never assumed to be 1.
    """
    if not 2.0 < q:
        raise ValueError(f"q must exceed 2, got {q:g}")
    # every series below, like the bound check's, runs by decreasing eps
    eps_grid = _eps_grid(eps_grid)
    if not eps_grid:
        raise ValueError("need at least one eps")
    sol = analytic.limit_solution(beta)
    maps = [geometry.radial_shift_map(eps, beta) for eps in eps_grid]
    w = sol.radial_profile

    f_norm_q = _limit_lq_norm(sol, q)

    lhs, rhs = [], []
    exponent = (q - 2.0) / (2.0 * q)
    for eps, mp in zip(eps_grid, maps):

        def comp_sq(r, _mp=mp):
            s = _mp.forward(np.stack([r, np.zeros_like(r)], axis=-1))[:, 0]  # theta = 0
            return (w(s) - w(r)) ** 2 * r

        lhs.append(np.sqrt(0.5 * beta * quadrature.integrate_radial(
            comp_sq, 0.0, 2.0 * eps)))
        rhs.append(f_norm_q * mp.e_set_measure**exponent)

    check = bound_check(eps_grid, lhs, rhs, q, f_norm_q)
    e_sets = [mp.e_set_measure for mp in maps]
    dev = tuple(e ** (1.0 / q) for e in e_sets)
    check.extras["jac_dev_lq"] = dev
    check.extras["jac_dev_ratio"] = tuple(d / e**exponent for d, e in zip(dev, e_sets))
    return check


def _limit_lq_norm(sol, q):
    """||u||_Lq of the limit solution u = (r^k - r^2) sin(k theta), whose
    table must be the one piece (1, k), (-1, 2).

    t = r^(2 - k) turns int_0^1 w^q r dr into B((k q + 2)/(2 - k), q + 1)
    / (2 - k); the norm is exp((log A_q + log B - log(2 - k)) / q) by
    ``math.lgamma``, so neither w^q nor A_q underflows at large q.
    """
    k, beta = sol.angular_wavenumber, sol.domain.beta
    if len(sol.pieces) != 1 or sol.pieces[0][1] != ((1.0, k), (-1.0, 2.0)):
        raise ValueError(f"not the limit solution's table: {sol.pieces!r}")
    a, b = (k * q + 2.0) / (2.0 - k), q + 1.0
    log_a_q = (math.log(beta) - 0.5 * math.log(math.pi) + math.lgamma((q + 1.0) / 2.0)
               - math.lgamma(q / 2.0 + 1.0))
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.exp((log_a_q + log_beta - math.log(2.0 - k)) / q)


# -- qualitative convergence (no rate claimed) ---------------------------------


# sample size of the qualitative study's condition check
CONDITION_POINTS = 4000


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple  # (eps, fem error, condition statistic)
    monotone: bool

    @property
    def errors(self):
        return tuple(r[1] for r in self.rows)


def qualitative_convergence_study(field_family, eps_grid, mode, beta,
                                  exclusion_radius=0.5, n_radial=N_RADIAL,
                                  n_angular=N_ANGULAR):
    """Tabulate FEM errors for a coefficient family under one of two conditions.

    ``mode`` is "condition_3" (uniform convergence off a compact set, here
    the closed disc of ``exclusion_radius``) or "condition_4" (positive
    part of the deficit tends to zero uniformly).  A grid reaching below
    ``fem_eps_floor(n_radial)`` raises ResolutionViolation, and then the
    chosen condition is verified by sampling, both before any solve; only a
    monotone trend toward zero is asserted for the errors, no rate.

    Each eps has the domain study's mesh (``_fem_radii``, aligned also at
    the interface radii of ``field_family(eps)`` and ``field_family(0)``),
    and its error is ||grad(u_eps - u_0)||, solved for the difference
    (``_fem_difference_error``).
    """
    if mode not in ("condition_3", "condition_4"):
        raise ValueError(f"unknown mode {mode!r}")
    eps_grid = _eps_grid(eps_grid)
    _check_resolved(eps_grid, n_radial)
    sector = geometry.SectorDomain(beta)
    field0 = field_family(0.0)
    pts = sector.sample_interior(CONDITION_POINTS)
    if mode == "condition_3":
        pts_check = pts[np.hypot(pts[:, 0], pts[:, 1]) > exclusion_radius]
    else:
        pts_check = pts

    stats = []
    for eps in eps_grid:
        a_eps = field_family(eps).eval(pts_check)
        a_0 = field0.eval(pts_check)
        if mode == "condition_3":
            dev = np.max(np.abs(a_eps - a_0), axis=(-2, -1))
        else:
            pos = coefficients.matrix_positive_part(a_0 - a_eps)
            dev = coefficients.sym_eigvals(pos)[..., 1]
        stats.append((float(np.max(dev)), int(np.argmax(dev))))

    final_stat, idx = stats[-1]
    if final_stat > 1e-10 and final_stat > 0.1 * max(stats[0][0], 1e-300):
        raise ConditionViolation(
            f"{mode} fails: deviation {final_stat:.3e} at the smallest eps",
            eps=eps_grid[-1], point=tuple(pts_check[idx]), value=final_stat)

    src = analytic.SourceTerm(beta)
    rows = []
    for (eps, (stat, _)) in zip(eps_grid, stats):
        f_eps = field_family(eps)
        radii = _fem_radii(sector, eps, n_radial,
                           (*f_eps.interface_radii, *field0.interface_radii))
        mesh = meshing.mesh_sector_from_radii(sector, radii, n_angular)
        rows.append((eps, _fem_difference_error(mesh, field0, f_eps, src), stat))
    errors = [r[1] for r in rows]
    monotone = all(b <= a * 1.05 + 1e-14 for a, b in zip(errors[:-1], errors[1:]))
    return ConvergenceTable(tuple(rows), monotone)


def _fem_difference_error(mesh, field0, field_eps, source):
    """||grad(u_eps - u_0)||_L2 over ``mesh`` for the FEM solutions with the
    fields ``field_eps`` and ``field0`` and one ``source``.

    d = u_eps - u_0 solves K_eps d = (K_0 - K_eps) u_0.  K_0 - K_eps is
    ``fem.assemble`` of the pointwise difference a_0 - a_eps (assembly is
    linear in the field and reads only its ``eval``; the difference has no
    ellipticity certificate), and u_0 is zero on the Dirichlet vertices, so
    the load is that matrix times u_0's free values.  Its rounding is then
    relative to a_0 - a_eps, so d keeps its digits as the fields merge,
    where the difference of two solves, or f - K_eps u_0 with u_0's CG
    residual, is noise.
    """
    sys0 = fem.assemble(mesh, field0, source=source)
    u0 = fem.solve_cg(sys0).nodal_values[sys0.free_vertices]
    del sys0
    gap = SimpleNamespace(eval=lambda pts: field0.eval(pts) - field_eps.eval(pts))
    load = fem.assemble(mesh, gap).matrix @ u0
    sys_eps = fem.assemble(mesh, field_eps)
    # the load, O(|a_0 - a_eps|), is scaled exactly from 2^e to 2^(e - e // 2),
    # so CG's squared norms and the scaled solution stay finite and normal
    shift = math.frexp(float(np.max(np.abs(load), initial=0.0)))[1] // 2
    d = fem.solve_cg(fem.SparseSystem(sys_eps.matrix, np.ldexp(load, -shift),
                                      sys_eps.free_vertices, mesh))
    grads = np.ldexp(d.triangle_gradients(), shift)
    return float(np.sqrt(np.sum(mesh.areas() * np.sum(grads**2, axis=1))))
