"""The benchmark's three closed-loop workloads.

Each workload turns a seed into a stream of items.  Parameters come from
additive-recurrence (Kronecker) sequences with seed-drawn offsets, so
every run covers its parameter box evenly and the mix of cheap, costly and
failing items is nearly the same from seed to seed; the package only ever
receives the generated CLI arguments or mesh parameters.

An item runs in two steps: ``run`` makes the program calls users make and
is the only timed part; ``record`` (untimed) reduces the raw output to its
SHA-256 digest and the numbers to check.  ``check`` (untimed, between
items) compares those numbers with the mpmath oracle.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

EPS_MAX = 0.1
# The semi-analytic quadrature loses accuracy as eps shrinks (ROADMAP item
# 2): near beta = 1.9 pi its error passes the 1e-6 tolerance at eps ~ 1.3e-7.
# Items whose grid stays at or above this may not fail.
DEFECT_EPS = 2e-7
EPS_DIGITS_TOL = 1e-11  # the CSV prints eps with 12 significant digits
# When a graded node circle lies just outside the aligned jump radius, the
# ring between them is thinner than the refined interface chords bow and the
# refined mesh degrades: the FEM error stops converging.  Failures are seen
# up to a ring of ~50 chord sagittas of the finest level; items whose ring is
# thinner than this many may fail.
THIN_RING_SAGITTAS = 100


def run_length(workload, seconds):
    """Items in a run of ``seconds``: as many as the nominal machine runs then.

    The count follows from ``--seconds`` alone, not from the clock, so a seed
    always gives the same item list and ``attempted`` and ``failed`` repeat
    exactly from run to run; a faster program runs the same list sooner.
    """
    block = workload.block
    return block * max(1, round(seconds / (block * workload.nominal_item_s)))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def r_steps(dims):
    """Steps 1/phi_d^j of Roberts' R_d sequence (phi_d solves x^(d+1) = x + 1)."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return tuple(phi ** -(j + 1) for j in range(dims))


def kronecker(seed, index, steps):
    """Point ``index`` of an additive-recurrence sequence with seed-drawn offsets."""
    rng = random.Random(seed)
    return [(rng.random() + index * s) % 1.0 for s in steps]


def q_star(beta):
    return 2.0 * beta / (beta - math.pi)


def admissible_q(beta, u):
    """q = 2 + u (min(q*(beta), 12) - 2) with u mapped into [0.1, 0.9]."""
    return 2.0 + (0.1 + 0.8 * u) * (min(q_star(beta), 12.0) - 2.0)


@dataclass
class Record:
    """Untimed reduction of one item's output."""

    digest: str = ""
    values: list = field(default_factory=list)  # (eps or level, checked value)
    extra: dict = field(default_factory=dict)
    error: str = ""  # exception type or exit status when the item failed to run
    export: tuple = ()  # raw output the check needs, dropped once checked


@dataclass
class Verdict:
    rel_errors: list  # relative error of every checked value
    failure: str  # empty when the item passed


def _parse_csv(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("eps,"):
            continue
        rows.append(tuple(float(v) for v in line.split(",")))
    return rows


class CliRateStudy:
    """Items are ``ellipstab rate-study`` invocations through ``cli.main``."""

    tolerance = {"coeff": 1e-6, "domain": 1e-6, "wwww": 1e-6, "fem": 2e-2}
    block = 1

    def __init__(self, package, seed, workdir):
        self.pkg = package
        self.seed = seed
        self.out = workdir / f"{self.name}.csv"

    def argv(self, params):
        return ["rate-study", "--study", params["study"], "--beta", repr(params["beta"]),
                "--alpha", repr(params["alpha"]), "--q", repr(params["q"]),
                "--eps-min", repr(params["eps_min"]), "--eps-max", repr(EPS_MAX),
                "--points", str(params["points"]), "--mode", params["mode"],
                "--out", str(self.out)]

    def warmup_params(self):
        return self.params(0)

    def run(self, params):
        rc = self.pkg.cli.main(self.argv(params))
        return rc, (self.out.read_bytes() if rc == 0 else b"")

    def record(self, params, raw):
        rc, data = raw
        if rc != 0:
            return Record(error=f"exit {rc}")
        rows = _parse_csv(data.decode())
        return Record(hashlib.sha256(data).hexdigest(),
                      [(eps, err) for eps, err, _, _ in rows])

    def may_fail(self, params):
        """Whether a failure of this item is a known defect, not a fault."""
        return False

    def check(self, params, rec, oracle):
        grid = np.geomspace(EPS_MAX, params["eps_min"], params["points"])
        eps = np.array([e for e, _ in rec.values])
        if eps.shape != grid.shape or np.any(np.abs(eps - grid) > EPS_DIGITS_TOL * grid):
            return Verdict([], f"eps column {eps.tolist()} is not the requested grid")
        kind = "fem" if params["mode"] == "fem" else params["study"]
        beta, alpha = params["beta"], params["alpha"]
        ref = {
            "coeff": lambda e: oracle.coeff_error(beta, alpha, e),
            "domain": lambda e: oracle.domain_error(beta, e),
            "fem": lambda e: oracle.domain_error(beta, e),
            "wwww": lambda e: oracle.wwww_lhs(beta, e),
        }[kind]
        # the oracle takes the grid the program was given; a NaN cell counts
        # as infinitely wrong
        rel = [r if r == r else math.inf
               for r in (abs(v - ref(e)) / ref(e)
                         for e, (_, v) in zip(grid.tolist(), rec.values))]
        worst = max(rel)
        failure = "" if worst <= self.tolerance[kind] else \
            f"error off by {worst:.3g} (> {self.tolerance[kind]:g})"
        return Verdict(rel, failure)


class SemiRates(CliRateStudy):
    name = "semi_rates"
    trace_items = 30
    nominal_item_s = 0.36
    kinds = ("coeff", "domain", "wwww")
    block = len(kinds)  # runs hold whole rotations
    expected_spans = {
        "cli.self_s", "experiments.self_s", "experiments.fit_s",
        "analytic.h1_seminorm_s", "quadrature.radial_s", "quadrature.polar_s",
        "coefficients.lp_distance_s", "coefficients.field_eval_s",
        "geometry.map_eval_s", "error_norms.lq_norm_s",
    }

    def may_fail(self, params):
        return params["eps_min"] < DEFECT_EPS

    def params(self, index):
        # each study kind walks its own sequence, so every kind covers the box
        kind = self.kinds[index % 3]
        # eps_min mainly decides whether the known quadrature defect shows and
        # the point count sets an item's cost, so both take the steps with the
        # most even one-dimensional walks (golden and silver ratio)
        u = kronecker(f"{self.seed}:{kind}", index // 3, (GOLDEN, SILVER) + r_steps(3))
        beta = math.pi * (1.1 + 0.8 * u[2])
        return {
            "study": kind, "mode": "semi", "beta": beta,
            "alpha": 10.0 ** (-2.0 + 4.0 * u[3]), "q": admissible_q(beta, u[4]),
            "eps_min": 10.0 ** (-12.0 + 9.0 * u[0]), "points": 5 + int(5 * u[1]),
        }


class FemDomain(CliRateStudy):
    name = "fem_domain"
    trace_items = 3
    nominal_item_s = 3.5
    profile_check = True  # compare span layer shares with cProfile
    expected_spans = {
        "cli.self_s", "experiments.self_s", "experiments.fit_s",
        "analytic.h1_seminorm_s", "quadrature.radial_s", "coefficients.field_eval_s",
        "meshing.build_s", "fem.assemble_s", "fem.solve_s", "fem.locate_s",
        "error_norms.cross_domain_s",
    }

    def params(self, index):
        u = kronecker(self.seed, index, r_steps(3))
        beta = math.pi * (1.1 + 0.8 * u[0])
        return {
            "study": "domain", "mode": "fem", "beta": beta, "alpha": 2.0,
            "q": admissible_q(beta, u[1]),
            "eps_min": 10.0 ** (-4.0 + 2.0 * u[2]), "points": 4,
        }


class FemRefine:
    """The ``ellipstab solve --domain sector --coeff jump --refine 2`` path,
    solved and checked against the exact solution at both refined levels."""

    name = "fem_refine"
    trace_items = 4
    nominal_item_s = 2.5
    block = 1
    order_range = (0.9, 1.1)
    h1_tolerance = 1e-3  # program's H1 error vs the oracle's, relative
    expected_spans = {
        "coefficients.field_eval_s", "meshing.build_s", "meshing.refine_s",
        "meshing.connectivity_s", "meshing.export_s", "fem.assemble_s",
        "fem.solve_s", "fem.export_s", "error_norms.h1_vs_analytic_s",
    }

    def __init__(self, package, seed, workdir):
        self.pkg = package
        self.seed = seed

    def params(self, index):
        u = kronecker(self.seed, index, r_steps(3))
        return {"beta": math.pi * (1.1 + 0.8 * u[0]),
                "alpha": 10.0 ** (-2.0 + 4.0 * u[1]),
                "jump_eps": 0.05 + 0.45 * u[2],
                "n_radial": 24, "n_angular": 64, "grading": 3.0, "refine": 2}

    def warmup_params(self):
        """Item 0 refined once: every call of an item, at about a fifth of its cost."""
        return dict(self.params(0), refine=1)

    def run(self, params):
        p = self.pkg
        beta, alpha, rj = params["beta"], params["alpha"], params["jump_eps"]
        mesh = p.meshing.mesh_sector(p.geometry.SectorDomain(beta), params["n_radial"],
                                     params["n_angular"], grading=params["grading"],
                                     aligned_radii=(rj,))
        field_ = p.coefficients.radial_jump_field(alpha, rj)
        source = p.analytic.SourceTerm(beta)
        exact = p.analytic.jump_solution(beta, alpha, rj)
        levels = []
        for _ in range(params["refine"]):
            mesh = p.meshing.refine_uniform(mesh)
            sol = p.fem.solve_cg(p.fem.assemble(mesh, field_, source=source))
            err = p.error_norms.h1_error_vs_analytic(sol, exact)
            levels.append((mesh.num_triangles, sol.solve_report[0], err))
        return levels, mesh.export_text(), p.fem.export_solution_text(sol)

    def record(self, params, raw):
        levels, mesh_text, sol_text = raw
        h = hashlib.sha256(mesh_text.encode())
        h.update(sol_text.encode())
        return Record(h.hexdigest(), [(lvl, err) for lvl, (_, _, err) in enumerate(levels)],
                      {"triangles": [t for t, _, _ in levels],
                       "cg_iterations": [it for _, it, _ in levels]},
                      export=(mesh_text, sol_text))

    def may_fail(self, params):
        """Whether the ring outside the jump radius is thin (see THIN_RING_SAGITTAS)."""
        p, rj = params, params["jump_eps"]
        graded = (np.arange(p["n_radial"] + 1) / p["n_radial"]) ** p["grading"]
        ring = graded[graded > rj].min() - rj
        half_angle = p["beta"] / (2 * p["n_angular"] * 2 ** p["refine"])  # finest chord
        return ring < THIN_RING_SAGITTAS * rj * (1 - math.cos(half_angle))

    @staticmethod
    def _parse_export(mesh_text, sol_text):
        """Arrays from the `v x y flag` / `t i j k` and `sol i value` lines.

        Parsed block-wise, so that the check's memory stays below the
        program's and ``peak_rss_mb`` measures the program.
        """
        v_block, t_block = mesh_text.split("\nt ", 1)
        vertices = np.fromstring(v_block.replace("v", " "), sep=" ").reshape(-1, 3)
        triangles = np.fromstring(t_block.replace("t", " "), sep=" ",
                                  dtype=np.int64).reshape(-1, 3)
        sol = np.fromstring(sol_text.replace("sol", " "), sep=" ").reshape(-1, 2)
        values = np.empty(len(vertices))
        values[sol[:, 0].astype(np.int64)] = sol[:, 1]
        return vertices[:, :2], triangles, values

    def check(self, params, rec, oracle):
        beta, alpha, rj = params["beta"], params["alpha"], params["jump_eps"]
        norm = oracle.jump_seminorm(beta, alpha, rj)
        # the finest level's error is recomputed from the exported mesh and
        # nodal values, so a biased error routine cannot pass
        finest = oracle.jump_p1_h1_error(beta, alpha, rj,
                                         *self._parse_export(*rec.export))
        errors = [err for _, err in rec.values]
        rel = [err / norm for err in errors[:-1]] + [finest / norm]
        off = abs(errors[-1] - finest) / finest
        rec.extra["h1_error_vs_oracle"] = off
        if not all(e > 0.0 and math.isfinite(e) for e in errors):
            return Verdict(rel, f"H1 errors {errors} not finite and positive")
        if not off <= self.h1_tolerance:
            return Verdict(rel, f"finest H1 error {errors[-1]:.10g} off the oracle's "
                                f"{finest:.10g} by {off:.3g} (> {self.h1_tolerance:g})")
        order = math.log2(errors[-2] / errors[-1])
        rec.extra["order"] = order
        lo, hi = self.order_range
        failure = "" if lo <= order <= hi else f"observed order {order:.3f} outside [{lo}, {hi}]"
        return Verdict(rel, failure)


WORKLOADS = {w.name: w for w in (SemiRates, FemDomain, FemRefine)}
