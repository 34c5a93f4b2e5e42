"""Every name the benchmark's layer tracer wraps must exist in the package.

The tracer (``perfbench/tracer.py``) finds functions, TriMesh methods and
factory products by name.  A rename or deletion would otherwise only show
as a failed benchmark run, so the bindings are checked here, without
installing the tracer.
"""

import dataclasses
import importlib
import types
from pathlib import Path

import pytest

from ellipstab.meshing import TriMesh

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# arguments that build one object per traced factory
FACTORY_ARGS = {
    ("coefficients", "identity_field"): (),
    ("coefficients", "radial_jump_field"): (2.0, 0.1),
    ("geometry", "radial_shift_map"): (0.1, 4.7),
}


def load_tracer():
    # compiled from the source text, so no bytecode cache is written there
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), vars(module))
    return module


tracer = load_tracer()


def binding(mod, attr):
    return getattr(importlib.import_module(f"ellipstab.{mod}"), attr, None)


@pytest.mark.parametrize("mod,attr", sorted(
    {b for bindings in tracer.FUNCTION_SPANS.values() for b in bindings}
    | {("quadrature", "gauss_on_panels")}))
def test_traced_function_exists(mod, attr):
    assert callable(binding(mod, attr)), f"ellipstab.{mod}.{attr}"


@pytest.mark.parametrize("name", sorted(
    {m for methods in tracer.METHOD_SPANS.values() for m in methods}))
def test_traced_method_exists(name):
    assert callable(getattr(TriMesh, name, None)), f"TriMesh.{name}"


@pytest.mark.parametrize("factory,attrs", [
    p for products in tracer.PRODUCT_SPANS.values() for p in products])
def test_traced_product_attributes_exist(factory, attrs):
    make = binding(*factory)
    assert callable(make), f"ellipstab.{'.'.join(factory)}"
    obj = make(*FACTORY_ARGS[factory])
    for a in attrs:
        assert callable(getattr(obj, a, None)), f"{factory[1]}().{a}"
    # the tracer swaps the attributes in with dataclasses.replace
    dataclasses.replace(obj, **{a: getattr(obj, a) for a in attrs})
