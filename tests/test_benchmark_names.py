"""The benchmark's per-layer metrics name functions of the package; a
renamed or deleted function would silently report 0, so every name must
still resolve."""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
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
