"""The benchmark's per-layer metrics name functions of the package; a
renamed or deleted function would silently report 0, so every name must
still resolve. The benchmark's tracer must also be able to time them."""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from ultrapreserve import cli

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
LAYER_SUFFIXES = (".self_ms", ".calls")


def layer_targets():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({n.rsplit(".", 1)[0] for n in names if n.endswith(LAYER_SUFFIXES)})


@pytest.mark.parametrize("target", layer_targets())
def test_per_layer_name_resolves(target):
    module_name, *path = target.split(".")
    module = importlib.import_module(f"ultrapreserve.{module_name}")
    obj = module
    for attr in path:
        obj = getattr(obj, attr)
    if path:
        assert callable(obj)
        assert obj.__module__ == module.__name__


def test_traced_call_stays_a_leaf():
    """The tracer times FunctionSpec.__call__ as a leaf, which must not reach
    a traced (public, module-level) function; if it did, the op would raise
    "traced as a leaf but opened a span"."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["classify", "step_above(1)"]),
                     cli.main(["witness", "step_above(1)", "--mode", "pt"])]
        op = tracer.end_op()
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert op["layers"]["expr.FunctionSpec.__call__"][0] > 0
