"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the ``ellipstab`` layers from the
outside: every module-level name binding of a wrapped function is replaced
(the defining module, modules that imported it by name, the package
re-exports), class methods are replaced on the class, and fields and maps
returned by the factory functions get traced ``eval`` / ``forward`` /
``jacobian`` / ``inverse`` callables.  Each call records a span (name,
start, end, parent span, item) in memory; counters are updated at the same
boundaries.  ``uninstall`` restores every binding.

Per-layer metrics are span self times (duration minus direct child spans),
summed over a run, and exact counts.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

# span metric -> (module, function) bindings whose calls it times
FUNCTION_SPANS = {
    "cli.self_s": [("cli", "main")],
    "experiments.self_s": [("experiments", "coefficient_rate_study"),
                           ("experiments", "domain_rate_study"),
                           ("experiments", "qualitative_convergence_study"),
                           ("experiments", "composition_inequality_check")],
    "experiments.fit_s": [("experiments", "fit_loglog"),
                          ("experiments", "bound_check")],
    "analytic.h1_seminorm_s": [("analytic", "h1_seminorm_separable")],
    "quadrature.radial_s": [("quadrature", "integrate_radial")],
    "quadrature.polar_s": [("quadrature", "integrate_polar")],
    "coefficients.lp_distance_s": [("coefficients", "lp_distance")],
    "meshing.build_s": [("meshing", "mesh_sector"),
                        ("meshing", "mesh_sector_from_radii")],
    "meshing.refine_s": [("meshing", "refine_uniform")],
    "fem.assemble_s": [("fem", "assemble")],
    "fem.solve_s": [("fem", "solve_cg")],
    "fem.locate_s": [("fem", "evaluate_gradient_many")],
    "fem.export_s": [("fem", "export_solution_text")],
    "error_norms.cross_domain_s": [("error_norms", "cross_domain_gradient_error")],
    "error_norms.h1_vs_analytic_s": [("error_norms", "h1_error_vs_analytic")],
    "error_norms.lq_norm_s": [("error_norms", "lq_gradient_norm")],
}
# span metric -> TriMesh methods it times
METHOD_SPANS = {
    "meshing.connectivity_s": ["edges", "edge_counts", "neighbors"],
    "meshing.export_s": ["export_text"],
}
# span metric -> (factory binding, attributes of the returned object to trace)
PRODUCT_SPANS = {
    "coefficients.field_eval_s": [(("coefficients", "identity_field"), ("eval",)),
                                  (("coefficients", "radial_jump_field"), ("eval",))],
    "geometry.map_eval_s": [(("geometry", "radial_shift_map"),
                             ("forward", "jacobian", "inverse"))],
}

SPAN_METRICS = sorted(set(FUNCTION_SPANS) | set(METHOD_SPANS) | set(PRODUCT_SPANS))
COUNT_METRICS = [
    "analytic.h1_seminorm_calls", "quadrature.nodes", "coefficients.field_points",
    "geometry.map_points", "meshing.triangles", "fem.unknowns", "fem.matrix_nnz",
    "fem.cg_iterations", "fem.points_located", "fem.export_bytes",
]
LAYERS = ("cli", "experiments", "analytic", "quadrature", "coefficients",
          "geometry", "meshing", "fem", "error_norms")
ROOT = "item"


def _num_points(args):
    shape = getattr(args[0], "shape", None) if args else None
    if shape is None:
        return 0
    n = 1
    for s in shape[:-1]:
        n *= int(s)
    return n


def _count(tracer, metric, args, kwargs, result):
    """Counter updates at the boundary of span ``metric``."""
    c = tracer.counters
    if metric == "analytic.h1_seminorm_s":
        c["analytic.h1_seminorm_calls"] += 1
    elif metric == "coefficients.field_eval_s":
        c["coefficients.field_points"] += _num_points(args)
    elif metric == "geometry.map_eval_s":
        c["geometry.map_points"] += _num_points(args)
    elif metric in ("meshing.build_s", "meshing.refine_s"):
        # mesh_sector delegates to mesh_sector_from_radii: count once
        if tracer.current_name() != metric:
            c["meshing.triangles"] += int(result.num_triangles)
    elif metric == "fem.assemble_s":
        c["fem.unknowns"] += int(result.num_unknowns)
        c["fem.matrix_nnz"] += int(result.matrix.nnz)
    elif metric == "fem.solve_s":
        c["fem.cg_iterations"] += int(result.solve_report[0])
    elif metric == "fem.locate_s":
        points = args[1] if len(args) > 1 else kwargs["points"]
        c["fem.points_located"] += int(points.size // 2)
    elif metric in ("fem.export_s", "meshing.export_s"):
        c["fem.export_bytes"] += len(result.encode())


class Tracer:
    """In-memory span and counter store plus the binding patcher."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, item]
        self.counters = defaultdict(int)
        self.calls = defaultdict(int)
        self._stack = []
        self._item = None
        self._restore = []
        self.missing = []  # wrapped names the package no longer defines

    def current_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._item])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, metric, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[metric] += 1
            idx = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _count(self, metric, args, kwargs, result)
            return result

        return traced

    def run_item(self, index, fn):
        """Run one benchmark item under a root span."""
        self._item = index
        idx = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(idx)
            self._item = None

    # -- installing and removing the wrappers ---------------------------------

    def _modules(self):
        name = self.package.__name__
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == name or k.startswith(name + "."))]

    def _rebind(self, original, replacement):
        """Replace every module-level binding of ``original``."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _product_factory(self, metric, factory, attrs):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            obj = factory(*args, **kwargs)
            return dataclasses.replace(
                obj, **{a: self.wrap(metric, getattr(obj, a)) for a in attrs})

        return traced_factory

    def _lookup(self, owner, attr):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        return original

    def install(self):
        """Wrap every traced function; names that no longer exist go to ``missing``."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for metric, bindings in FUNCTION_SPANS.items():
            for mod, attr in bindings:
                original = self._lookup(mods[mod], attr)
                if original is not None:
                    self._rebind(original, self.wrap(metric, original))
        for metric, products in PRODUCT_SPANS.items():
            for (mod, attr), attrs in products:
                original = self._lookup(mods[mod], attr)
                if original is not None:
                    self._rebind(original, self._product_factory(metric, original, attrs))
        tri_mesh = mods["meshing"].TriMesh
        for metric, methods in METHOD_SPANS.items():
            for name in methods:
                original = self._lookup(tri_mesh, name)
                if original is not None:
                    setattr(tri_mesh, name, self.wrap(metric, original))
                    self._restore.append((tri_mesh, name, original))
        # gauss_on_panels only counts nodes; its time stays with its caller
        gauss = self._lookup(mods["quadrature"], "gauss_on_panels")
        if gauss is None:
            return

        @functools.wraps(gauss)
        def counted_gauss(*args, **kwargs):
            nodes, weights = gauss(*args, **kwargs)
            self.counters["quadrature.nodes"] += int(nodes.size)
            return nodes, weights

        self._rebind(gauss, counted_gauss)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reductions -------------------------------------------------------------

    def self_times(self):
        """Self time summed per span name, the per-item root span included."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_shares(self):
        st = self.self_times()
        total = sum(e - s for n, s, e, p, _ in self.spans if n == ROOT)
        shares = {layer: 0.0 for layer in LAYERS}
        for name, t in st.items():
            layer = name.split(".", 1)[0]
            if layer in shares:
                shares[layer] += t / total
        return shares


def profile_layer_shares(package, run):
    """Layer shares of ``run()`` from cProfile, attributed by source module.

    Time in functions outside the package (numpy, scipy, the standard
    library) is passed up the call graph to the nearest package function,
    split over callers in proportion to the time each caller accounts for.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    pkg_dir = Path(package.__file__).parent  # same spelling as code filenames

    layer_of = {}
    for func in stats:
        path = Path(func[0])
        layer_of[func] = path.stem if path.parent == pkg_dir and path.stem in LAYERS else None

    shares = {layer: 0.0 for layer in LAYERS}

    def attribute(func, amount, first_hop, seen):
        if layer_of.get(func):
            shares[layer_of[func]] += amount
            return
        callers = stats[func][4] if func in stats else {}
        callers = {c: v for c, v in callers.items() if c not in seen}
        key = 2 if first_hop else 3  # own time on the first hop, then cumulative
        weight = sum(v[key] for v in callers.values())
        if weight <= 0.0:  # reached the benchmark's own code: no layer
            return
        for c, v in callers.items():
            attribute(c, amount * v[key] / weight, False, seen | {func})

    total = 0.0
    for func, (_, _, tt, _, _) in stats.items():
        total += tt
        if tt > 0.0:
            attribute(func, tt, True, frozenset())
    return {layer: v / total for layer, v in shares.items()}
