"""Benchmark entry point for ellipstab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Each workload runs in fresh interpreters with BLAS/OpenMP
pinned to one thread:

  --trace 0  two set-up probes, then one closed-loop run of the seed's item
             list, as long as the nominal machine runs in S seconds; prints
             the end-to-end metrics (set-up time is the median of the three
             set-ups);
  --trace 1  one run of a fixed item list, untraced and then traced; prints
             the per-layer metrics and fails its check when a layer's calls
             contradict the workload's coverage prediction.

Times are raw wall-clock seconds scaled by a reference kernel run between
items (see ``Reference`` in worker.py), so that the machine's speed drift
cancels; the raw figures are printed in the summary.

Every output is checked against an mpmath oracle.  A human-readable summary
goes first; the last stdout line is the JSON result.  Per-item results
(parameters, SHA-256 output digests, failures) and provenance are written
to ``perfbench/out/results/``; digest changes against the previous results
of the same workload and seed are reported as information.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 2
# time limit of the whole command, every child process included: the timed
# loop, plus an allowance for set-ups, reference units, checks and trace mode
ALLOWANCE_S = 120.0
THREADS = "1"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_s.p50": "s", "pass_ratio": "ratio",
    "correct_digits.p50": "digits", "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def _spawn(args, mode, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(OUT / "work"), "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} worker exceeded the time budget") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _p90(samples):
    """Nearest-rank p90, defined only when ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return sorted(samples)[int(0.9 * len(samples)) - 1]


def _end_to_end(res, setups):
    """Times are raw seconds times the run's reference scale (see worker.py)."""
    n, scale = res["attempted"], res["scale"]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": n / (res["busy_s"] * scale),
        "item_s.p50": statistics.median(res["item_s"]) * scale,
        "pass_ratio": (n - res["failed"]) / n,
        "correct_digits.p50": res["digits_p50"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _summary(args, res, metrics, setups):
    n, failed = res["attempted"], res["failed"]
    prov = res["provenance"]
    lines = [f"workload {args.workload}  seed {args.seed}  items {n}  "
             f"nproc {prov['nproc']}  blas threads {prov['blas_threads']}  "
             f"trace {args.trace}"]
    if args.trace:
        for name, value in metrics.items():
            lines.append(f"  {name:30s} {value:.6g}")
        lines.append("  layer shares (spans)   " + "  ".join(
            f"{k} {v:.3f}" for k, v in res["span_shares"].items()))
        if "profile_shares" in res:
            lines.append("  layer shares (cProfile) " + "  ".join(
                f"{k} {v:.3f}" for k, v in res["profile_shares"].items()))
    else:
        samples = {"setup_s": len(setups), "items_per_s": n, "item_s.p50": n,
                   "pass_ratio": n, "correct_digits.p50": res["checked_values"],
                   "peak_rss_mb": 1}
        for name, value in metrics.items():
            lines.append(f"  {name:20s} {value:12.6g} {END_TO_END_UNITS[name]:7s} "
                         f"(n={samples[name]})")
        lines.append(f"  {'fail_ratio':20s} {failed / n:12.6g} {'ratio':7s} "
                     f"({failed}/{n})")
        p90 = _p90(res["item_s"])
        lines.append(f"  {'item_s.p90':20s} " + (f"{p90 * res['scale']:12.6g} s       "
                                                 f"(n={n})" if p90 is not None else
                                                 f"{'n/a':>12s}         (needs 100 "
                                                 f"items, have {n})"))
        lines.append(f"  reference scale {res['scale']:.4f} ({res['ref_units']} units); "
                     f"raw: items_per_s {n / res['busy_s']:.6g}, item_s.p50 "
                     f"{statistics.median(res['item_s']):.6g} s, setup_s "
                     f"{res['setup_raw_s']:.6g} s (measuring worker)")
    for it in res["items"]:
        if it["failure"]:
            lines.append(f"  FAILED item {it['index']}: {it['failure']}  "
                         f"worst rel err {it['worst_rel_err']}  params {it['params']}")
    for p in res["problems"]:
        lines.append(f"  CHECK FAILED: {p}")
    return "\n".join(lines)


def _save(args, res):
    """Write per-item results; report digest changes against the last ones."""
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    note = "no previous results"
    if path.exists():
        try:
            old = {it["index"]: it for it in json.loads(path.read_text())["items"]}
        except (ValueError, KeyError):
            old = {}
        same = [it for it in res["items"]
                if it["index"] in old and old[it["index"]]["params"] == it["params"]]
        changed = sum(1 for it in same if old[it["index"]]["digest"] != it["digest"])
        note = f"{changed} of {len(same)} comparable item digests changed"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({k: res[k] for k in
                                ("provenance", "attempted", "failed", "problems",
                                 "items")}, indent=1))
    return f"  results {path.relative_to(ROOT)}: {note}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ellipstab" / "__init__.py").is_file():
        print(f"error: no ellipstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + ALLOWANCE_S + 2 * args.seconds
    try:
        if args.trace:
            res = _spawn(args, "trace", deadline)
            setups = []
            metrics = res["per_layer"]
        else:
            setups = [_spawn(args, "probe", deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = _spawn(args, "run", deadline)
            setups.append(res["setup_s"])
            metrics = _end_to_end(res, setups)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(_summary(args, res, metrics, setups))
    print(_save(args, res))
    units = END_TO_END_UNITS
    if args.trace:
        units = {m: ("s" if m.endswith("_s") else "ratio" if m == "trace_overhead"
                     else "count") for m in metrics}
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
