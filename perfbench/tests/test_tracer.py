"""The traced run must see every call into the package."""

import contextlib
import io

import pytest

import ultrapreserve
from ultrapreserve import cli
from ultrapreserve.expr import FunctionSpec
from tracer import NOT_WRAPPED, Tracer, package_modules, traced_functions


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_no_binding_still_refers_to_an_original(tracer):
    originals = {id(fn) for fn in tracer.originals()}
    stale = [f"{name}.{attr}" for name, mod in package_modules().items()
             for attr, obj in vars(mod).items() if id(obj) in originals]
    assert stale == []
    assert FunctionSpec.__call__.__wrapped__ is not None
    assert cli.main is not tracer.originals()[0]
    # names re-exported through `from .x import y` are rebound too
    assert ultrapreserve.suite.dplus2_space is ultrapreserve.witnesses.dplus2_space
    assert ultrapreserve.suite.dplus2_space is ultrapreserve.generators.dplus2_space
    assert hasattr(ultrapreserve.suite.dplus2_space, "__wrapped__")


def test_every_public_function_is_wrapped():
    found = traced_functions()
    names = {name for name, *_ in found}
    assert {"classify.check_triplet_preservation", "spaces.is_ultrametric",
            "suite.forward_preservation", "cli.main", "matrix_io.load_space"} <= names
    assert not names & NOT_WRAPPED
    t = Tracer()
    t.install()
    try:
        assert all(getattr(mod, attr).__wrapped__ is fn for _name, mod, attr, fn in found)
    finally:
        t.uninstall()


def test_uninstall_restores_originals():
    before = {name: getattr(mod, attr) for name, mod, attr, _fn in traced_functions()}
    call = FunctionSpec.__call__
    t = Tracer()
    t.install()
    t.uninstall()
    assert {name: getattr(mod, attr) for name, mod, attr, _fn in traced_functions()} == before
    assert FunctionSpec.__call__ is call


def test_self_times_sum_to_op_wall_time(tracer):
    tracer.begin_op()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", "step_above(1)", "--budget", "64"]) == 0
        assert cli.main(["witness", "step_above(1)", "--mode", "pt"]) == 0
    op = tracer.end_op()
    assert abs(op["self_sum_s"] - op["wall_s"]) < 1e-9
    layers = op["layers"]
    assert layers["cli.main"][0] == 2
    assert layers["classify.check_triplet_preservation"][0] == 1
    assert layers["expr.FunctionSpec.__call__"][0] > 64
    assert layers["witnesses.witness_not_strongly_preserving"][0] == 1
    # calls outside an op are not recorded
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["classify", "t", "--budget", "8"])
    assert len(tracer.ops) == 1
