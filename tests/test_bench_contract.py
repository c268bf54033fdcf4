"""The benchmark under ``perfbench/`` looks shiftbribe functions up by name:
the tracer's ``LAYERS`` and the workloads' ``SOLVERS``.  A rename or deletion
in the package must fail here, not silently in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import shiftbribe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name, func_name):
    return callable(getattr(getattr(shiftbribe, module_name, None), func_name, None))


@pytest.mark.parametrize("layer", load("tracer").LAYERS)
def test_traced_layer_resolves(layer):
    module_name, func_name = layer.split(".")
    assert resolves(module_name, func_name), layer


@pytest.mark.parametrize("kind,target", sorted(load("workloads").SOLVERS.items()))
def test_solver_resolves(kind, target):
    module_name, func_name, _ = target
    assert resolves(module_name, func_name), kind
