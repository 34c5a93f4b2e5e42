"""Each benchmark workload reaches exactly the spans it is predicted to.

The benchmark's traced mode (``perfbench/run.py --trace 1``) fails a run
whose reached spans differ from the workload's ``expected_spans``, or whose
tracer finds a wrapped name missing.  Here one block of seed 1's items
runs under the same tracer, at a small size, so a change that reroutes a
call shows in the test suite and not only in a benchmark run.  The traced
mode also fails a ``fem_domain`` run whose span layer shares and cProfile
layer shares differ by more than ``SHARE_TOLERANCE``; one full-size item
is checked the same way.
"""

import sys
import types
from pathlib import Path

import pytest

import ellipstab
import ellipstab.cli  # noqa: F401  (the tracer rebinds names in every loaded module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(stem):
    # compiled from the source text, so no bytecode cache is written there;
    # registered first, since @dataclass looks its module up in sys.modules
    name = f"perfbench_{stem}"
    module = types.ModuleType(name)
    sys.modules[name] = module
    path = PERFBENCH / f"{stem}.py"
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


tracer = load("tracer")
workloads = load("workloads")
worker = load("worker")

# fem_refine's item, shrunk: every call it makes, at a fraction of the cost
SMALL_REFINE = {"n_radial": 6, "n_angular": 8, "refine": 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reaches_its_predicted_spans(name, tmp_path):
    wl = workloads.WORKLOADS[name](ellipstab, 1, tmp_path)
    tr = tracer.Tracer(ellipstab)
    tr.install()
    try:
        for i in range(1, 1 + wl.block):
            params = wl.params(i)
            if name == "fem_refine":
                params = dict(params, **SMALL_REFINE)
            raw = tr.run_item(i, lambda: wl.run(params))
            assert wl.record(params, raw).error == "", f"item {i} failed"
    finally:
        tr.uninstall()
    assert tr.missing == []
    assert {m for m, n in tr.calls.items() if n} == wl.expected_spans


def test_fem_domain_span_and_profile_shares_agree(tmp_path):
    wl = workloads.WORKLOADS["fem_domain"](ellipstab, 1, tmp_path)
    params = wl.params(1)
    tr = tracer.Tracer(ellipstab)
    tr.install()
    try:
        raw = tr.run_item(1, lambda: wl.run(params))
    finally:
        tr.uninstall()
    assert wl.record(params, raw).error == ""
    spans = tr.layer_shares()
    profiled = tracer.profile_layer_shares(ellipstab, lambda: wl.run(params))
    gaps = {name: abs(spans[name] - profiled[name]) for name in spans}
    assert max(gaps.values()) <= worker.SHARE_TOLERANCE, gaps
