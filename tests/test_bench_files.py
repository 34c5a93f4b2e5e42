"""The committed benchmark records ``BENCH_*.json`` are whole and consistent.

Each record holds, per workload, the parent and change values of every
alternating run pair, their medians and quartiles and the pairs the change
won.  The medians and pair counts are recomputed here from the pairs, and
every metric name must be one that ``BENCHMARK.json`` declares.  A record's
``claim`` is null or names one end-to-end metric of one declared workload
whose summary holds it; the pairs must then carry the claim: the change
better in at least nine of every ten pairs, and its median better than the
parent's by more than the parent's interquartile range.  No record may
show a regression: on every workload, each end-to-end metric's change
median is no worse than its parent median by more than that metric's
``bound`` in ``BENCHMARK.json``, a fraction of the parent median.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_record_matches_its_pairs(path):
    bench = json.loads(path.read_text())
    assert bench["workloads"] and set(bench["workloads"]) <= WORKLOADS
    for name, w in bench["workloads"].items():
        pairs = w["pairs"]
        assert [p["seed"] for p in pairs] == w["seeds"], name
        for p in pairs:
            assert set(p["parent"]) == set(p["change"]) == set(w["summary"]), name
        for metric, s in w["summary"].items():
            assert metric in BETTER, (name, metric)
            for side in ("parent", "change"):
                values = [p[side][metric] for p in pairs]
                assert s[side]["median"] == statistics.median(values), (name, metric, side)
                q1, q3 = s[side]["quartiles"]
                assert min(values) <= q1 <= s[side]["median"] <= q3 <= max(values)
            sign = 1 if BETTER[metric] == "higher" else -1
            gain = [sign * (p["change"][metric] - p["parent"][metric]) for p in pairs]
            assert s["pairs_better"] == sum(g > 0 for g in gain), (name, metric)
            assert s["pairs_worse"] == sum(g < 0 for g in gain), (name, metric)
        for seed, run in w.get("trace", {}).items():
            for side in ("parent", "change"):
                assert set(run[side]["metrics"]) <= set(BETTER), (name, seed, side)


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_claim_is_a_measured_end_to_end_gain(path):
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    if claim is None:
        return
    assert set(claim) == {"metric", "workload"}, claim
    metric, workload = claim["metric"], claim["workload"]
    assert metric in BOUND, claim
    assert workload in WORKLOADS, claim
    w = bench["workloads"][workload]
    s = w["summary"][metric]
    assert 10 * s["pairs_better"] >= 9 * len(w["pairs"]), claim
    sign = 1 if BETTER[metric] == "higher" else -1
    q1, q3 = s["parent"]["quartiles"]
    assert sign * (s["change"]["median"] - s["parent"]["median"]) > q3 - q1, claim


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_end_to_end_metric_regresses(path):
    bench = json.loads(path.read_text())
    for name, w in bench["workloads"].items():
        for metric, s in w["summary"].items():
            if metric not in BOUND:
                continue
            parent, change = s["parent"]["median"], s["change"]["median"]
            sign = 1 if BETTER[metric] == "higher" else -1
            assert sign * (change - parent) >= -BOUND[metric] * abs(parent), (name, metric)
