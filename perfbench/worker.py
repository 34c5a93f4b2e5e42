"""One workload in a fresh interpreter: set up, run the closed loop, check.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  probe  set up (import, inputs, one warm-up item) and report setup_s only;
  run    set up, then run the seed's items one after another, untraced; their
         number is what the nominal machine runs in --seconds;
  trace  set up, then run a fixed item list untraced, again traced, and on
         workloads with ``profile_check`` once more under cProfile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SHARE_TOLERANCE = 0.10  # span vs cProfile layer share, absolute
ORACLE_SELF_CHECK = 1e-13
REF_NOMINAL_S = 0.04  # one reference unit on the nominal machine
REF_SHARE = 0.05  # reference work run after each item, as a share of its time
SETUP_REF_UNITS = 10


class Reference:
    """A fixed numpy + Python kernel that gauges the machine's current speed.

    On a shared machine the speed of identical work drifts by 10-25 % over
    seconds to minutes.  Units of this kernel, interleaved with the items,
    slow down and speed up with it (correlation 0.98 over 10 s windows), so
    raw seconds times ``scale()`` are seconds on a machine where one unit
    takes ``REF_NOMINAL_S``.  The kernel does not touch ``ellipstab``.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20121205)
        self.a = rng.random(300_000)
        self.idx = rng.integers(0, self.a.size, 600_000)
        self.times = []
        self.owed = 1.0  # units due; the first item always gets one

    def unit(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(3):
            b = np.sin(self.a) * self.a + np.sqrt(self.a)
            float(np.sum(b[self.idx]))
            np.argsort(self.a[:50_000])
            s = 0
            for i in range(20_000):
                s += i * i
        self.times.append(time.perf_counter() - t0)

    def after_item(self, item_seconds):
        """Run the units due, so that they add up to REF_SHARE of item time."""
        self.owed += REF_SHARE * item_seconds / REF_NOMINAL_S
        while self.owed >= 1.0:
            self.unit()
            self.owed -= 1.0

    def scale(self):
        return REF_NOMINAL_S / statistics.median(self.times)


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ellipstab
    import ellipstab.cli  # noqa: F401  (cli is not re-exported by the package)

    if src.resolve() not in Path(ellipstab.__file__).resolve().parents:
        raise ImportError(f"ellipstab imported from {ellipstab.__file__}, not {src}")
    return ellipstab


def _warm_up(wl):
    """One untimed item: the stream's first, at the workload's warm-up size."""
    try:
        wl.run(wl.warmup_params())
    except Exception:  # measured items start at 1; their failures are counted
        pass


def _run_items(wl, indices, tracer=None, ref=None, oracle=None):
    """Closed loop: each item starts when the previous one has returned.

    Returns the items and their summed wall time.  The oracle check and
    reference units, when given, run between items, untimed.
    """
    from workloads import Record

    items = []
    busy = 0.0
    for i in indices:
        params = wl.params(i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.run(params)
            else:
                raw = tracer.run_item(i, lambda: wl.run(params))
        except Exception as exc:  # every exception is a failed item, never fatal
            dt = time.perf_counter() - t0
            rec = Record(error=f"{type(exc).__name__}: {exc}"[:300])
        else:
            dt = time.perf_counter() - t0
            rec = wl.record(params, raw)
            del raw
        item = {"index": i, "params": params, "seconds": dt, "record": rec}
        items.append(item)
        busy += dt
        if oracle is not None:
            _check(wl, item, oracle)
        if ref is not None:
            ref.after_item(dt)
    return items, busy


def _check(wl, item, oracle):
    """Attach the oracle's verdict and the item's checked relative errors."""
    rec = item["record"]
    item["rel_errors"] = []
    if rec.error:
        item["failure"], item["worst_rel_err"] = rec.error, None
        return
    try:
        verdict = wl.check(item["params"], rec, oracle)
    except Exception as exc:  # output the check cannot read fails the item
        item["failure"], item["worst_rel_err"] = f"check: {type(exc).__name__}: {exc}", None
        return
    finally:
        rec.export = ()
    item["rel_errors"] = verdict.rel_errors
    item["failure"] = verdict.failure
    item["worst_rel_err"] = max(verdict.rel_errors) if verdict.rel_errors else None


def _unexpected_failures(wl, items):
    return [f"item {it['index']} failed outside the known defect: {it['failure']}"
            for it in items if it["failure"] and not wl.may_fail(it["params"])]


def _digits(rel):
    return -math.log10(max(rel, 1e-16)) if math.isfinite(rel) else 0.0


def _provenance(seed, items):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed, "items": len(items), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _item_rows(items):
    return [{"index": it["index"], "params": it["params"],
             "seconds": it["seconds"], "digest": it["record"].digest,
             "failure": it["failure"], "worst_rel_err": it["worst_rel_err"],
             **it["record"].extra} for it in items]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    pkg = _import_package()
    from workloads import WORKLOADS, run_length

    wl = WORKLOADS[args.workload](pkg, args.seed, args.workdir)
    _warm_up(wl)
    setup_s = time.monotonic() - args.spawned
    setup_ref = Reference()
    for _ in range(SETUP_REF_UNITS):
        setup_ref.unit()
    out = {"setup_raw_s": setup_s, "setup_s": setup_s * setup_ref.scale()}
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    # everything below is outside the timed set-up
    from oracle import Oracle

    oracle = Oracle()
    self_check = oracle.self_check()
    problems = []
    if not self_check < ORACLE_SELF_CHECK:
        problems.append(f"oracle self-check deviation {self_check:.3g}")

    if args.mode == "run":
        ref = Reference()
        items, busy = _run_items(wl, range(1, 1 + run_length(wl, args.seconds)), ref=ref,
                                 oracle=oracle)
        rel = [r for it in items for r in it["rel_errors"]]
        times = [it["seconds"] for it in items]
        out.update({
            "busy_s": busy,
            "scale": ref.scale(),
            "ref_units": len(ref.times),
            "item_s": times,
            "digits_p50": statistics.median(_digits(r) for r in rel) if rel else 0.0,
            "checked_values": len(rel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        from tracer import SPAN_METRICS, COUNT_METRICS, Tracer, profile_layer_shares

        indices = range(1, 1 + wl.trace_items)
        _, untraced_wall = _run_items(wl, indices)
        tracer = Tracer(pkg)
        tracer.install()
        problems.extend(f"traced function missing: {m}" for m in tracer.missing)
        try:
            items, traced_wall = _run_items(wl, indices, tracer=tracer)
        finally:
            tracer.uninstall()
        for it in items:
            _check(wl, it, oracle)
        self_times = tracer.self_times()
        layer = {m: self_times.get(m, 0.0) for m in SPAN_METRICS}
        layer.update({m: tracer.counters.get(m, 0) for m in COUNT_METRICS})
        layer["trace_overhead"] = untraced_wall / traced_wall
        for m in SPAN_METRICS:
            called = tracer.calls.get(m, 0) > 0
            if called != (m in wl.expected_spans):
                problems.append(f"coverage: {m} predicted "
                                f"{'non-zero' if m in wl.expected_spans else 'zero'}, "
                                f"saw {tracer.calls.get(m, 0)} calls")
        span_shares = tracer.layer_shares()
        out["span_shares"] = span_shares
        if getattr(wl, "profile_check", False):
            def replay():
                for i in indices:
                    try:
                        wl.run(wl.params(i))
                    except Exception:  # failures are already counted above
                        pass

            prof_shares = profile_layer_shares(pkg, replay)
            out["profile_shares"] = prof_shares
            for name in span_shares:
                gap = abs(span_shares[name] - prof_shares[name])
                if gap > SHARE_TOLERANCE:
                    problems.append(f"share: {name} spans {span_shares[name]:.3f} vs "
                                    f"cProfile {prof_shares[name]:.3f}")
        out.update({"per_layer": layer, "untraced_wall_s": untraced_wall,
                    "traced_wall_s": traced_wall})

    problems.extend(_unexpected_failures(wl, items))
    out.update({
        "attempted": len(items),
        "failed": sum(1 for it in items if it["failure"]),
        "oracle_self_check": self_check,
        "problems": problems,
        "correct": not problems,
        "provenance": _provenance(args.seed, items),
        "items": _item_rows(items),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
