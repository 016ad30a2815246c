"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of the package modules and
`FunctionSpec.__call__`, and rebinds every module attribute that refers to a
wrapped original, because `cli`, `suite`, `witnesses` and `classify` import
names with `from .x import y` and would otherwise keep calling the original.

Spans are recorded only inside an op (`begin_op` .. `end_op`), kept in memory
and written out by `write`. A span's self time is its duration minus the
durations of its child spans, so the self times of one op sum to the op's
traced wall time. Calls of the HOT_LEAVES functions (scalar evaluations and
per-sample predicates, up to ~10^6 per op) are merged per parent span into a
single record with a call count, which keeps memory bounded. A merged record
has no id, start or end; its self_s is the summed duration of its calls.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "ultrapreserve"
MODULES = ("parser", "expr", "properties", "classify", "witnesses", "spaces",
           "matrix_io", "generators", "suite", "cli")

# The scalar evaluation kernel recurses once per tree node; its time is
# inside FunctionSpec.__call__ (or the direct caller's self time).
NOT_WRAPPED = {"expr.evaluate", "expr.cantor_hat"}

# Extra per-op counters derived from a function's return value.
RESULT_COUNTERS = {
    "spaces.is_ultrametric": ("spaces.is_ultrametric.violations", lambda r: not r[0]),
    "spaces.is_metric": ("spaces.is_metric.violations", lambda r: not r[0]),
}


# Pure leaves called per scalar or per sample (up to ~10^6 times per op): a
# lighter wrapper adds their time straight to the caller's frame. They must
# not call any wrapped function, which the wrapper checks.
HOT_LEAVES = {"expr.FunctionSpec.__call__", "classify.triangle_triplet_holds",
              "classify.minmax_equation_holds"}


class _Frame:
    __slots__ = ("id", "name", "start", "child", "leaves")

    def __init__(self, span_id, name, start):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0  # summed durations of child spans
        self.leaves = None  # name -> [calls, seconds] of leaf calls merged into this span


def package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def traced_functions():
    """(layer name, module, attribute, function) for every function to wrap.

    Generator functions are left alone: their bodies run while the consumer
    iterates, outside any span a wrapper could open.
    """
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in NOT_WRAPPED
                    or inspect.isgeneratorfunction(obj)):
                continue
            found.append((name, mod, attr, obj))
    return found


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[_Frame] = []
        self.records: list[tuple] = []  # (op, id, parent, name, start, end, calls, self_s)
        self.ops: list[dict] = []  # per op: {"wall_s", "layers": name -> [calls, self_s, incl_s]}
        self._layers = None
        self._next_id = 0
        self._op = -1
        self._originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._call_original = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, _mod, _attr, fn in traced_functions():
            self._originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in package_modules().values():
            for attr, obj in list(vars(mod).items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        spec_cls = importlib.import_module(f"{PACKAGE}.expr").FunctionSpec
        self._call_original = spec_cls.__call__
        spec_cls.__call__ = self._wrap("expr.FunctionSpec.__call__", self._call_original)

    def uninstall(self) -> None:
        wrappers = {id(w): fn for fn, w in self._originals.values()}
        for mod in package_modules().values():
            for attr, obj in list(vars(mod).items()):
                fn = wrappers.get(id(obj))
                if fn is not None:
                    setattr(mod, attr, fn)
        if self._call_original is not None:
            importlib.import_module(f"{PACKAGE}.expr").FunctionSpec.__call__ = self._call_original
        self._originals.clear()
        self._call_original = None

    def originals(self):
        """The wrapped originals (FunctionSpec.__call__ included)."""
        found = [fn for fn, _w in self._originals.values()]
        if self._call_original is not None:
            found.append(self._call_original)
        return found

    def _wrap(self, name, fn):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, perf_counter())
            if counter is not None and counter[1](result):
                tracer._layers[counter[0]][0] += 1
            return result

        stack, clock = self.stack, perf_counter

        def leaf(*args):
            # No try/finally: a raising call leaves its time in the caller's
            # self time, which keeps the op's self times summing to its wall.
            if not tracer.active:
                return fn(*args)
            top = stack[-1]
            opened = tracer._next_id
            start = clock()
            result = fn(*args)
            duration = clock() - start
            top.child += duration
            leaves = top.leaves
            if leaves is None:
                leaves = top.leaves = {}
            merged = leaves.get(name)
            if merged is None:
                leaves[name] = [1, duration]
            else:
                merged[0] += 1
                merged[1] += duration
            if tracer._next_id != opened:
                raise RuntimeError(f"{name} is traced as a leaf but opened a span")
            return result

        chosen = leaf if name in HOT_LEAVES else wrapper
        chosen.__wrapped__ = fn
        chosen.__name__ = getattr(fn, "__name__", name)
        chosen.__qualname__ = getattr(fn, "__qualname__", name)
        chosen.__doc__ = fn.__doc__
        return chosen

    # -- spans ----------------------------------------------------------

    def _push(self, name) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, perf_counter())
        self.stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, end: float) -> None:
        self.stack.pop()
        duration = end - frame.start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
        self_s = duration - frame.child
        self._count(frame.name, 1, self_s, duration)
        parent_id = parent.id if parent is not None else None
        self.records.append((self._op, frame.id, parent_id, frame.name,
                             frame.start, end, 1, self_s))
        for leaf, (calls, seconds) in (frame.leaves or {}).items():
            self._count(leaf, calls, seconds, seconds)
            self.records.append((self._op, None, frame.id, leaf, None, None, calls, seconds))

    def _count(self, name, calls, self_s, total_s) -> None:
        layer = self._layers[name]
        layer[0] += calls
        layer[1] += self_s
        layer[2] += total_s

    def begin_op(self) -> None:
        self._op += 1
        self._layers = defaultdict(lambda: [0, 0.0, 0.0])
        self.active = True
        self._push("op")

    def end_op(self) -> dict:
        """Close the op's root span; return its per-layer totals."""
        end = perf_counter()
        root = self.stack[-1]
        self._pop(root, end)
        self.active = False
        if self.stack:
            raise RuntimeError(f"unbalanced spans at end of op: {[f.name for f in self.stack]}")
        wall = end - root.start
        layers = dict(self._layers)
        op = {"wall_s": wall, "layers": layers,
              "self_sum_s": sum(v[1] for k, v in layers.items() if not k.endswith(".violations"))}
        self.ops.append(op)
        return op

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for op, span_id, parent, name, start, end, calls, self_s in self.records:
                out.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                      "start": start, "end": end, "calls": calls,
                                      "self_s": self_s}) + "\n")
