#!/usr/bin/env python3
"""Benchmark: four known-answer workloads driven through `cli.main` in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify-catalog --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the next op starts when the previous
one has returned. Timings include argument parsing, matrix I/O and JSON
output. Every op's output is checked against perfbench/known_answers.json
after the op, outside its timing. With `--trace 0` the last stdout line
reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` every
package function is wrapped (perfbench/tracer.py) and the line reports the
per-layer metrics instead. The line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import os

# Pin native thread pools before numpy is imported; nothing else changes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
HARD_LIMIT_S = 120.0  # stop mid-round past this, so that a run ends within 180 s
SELF_TIME_TOLERANCE_S = 1e-6
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import ultrapreserve.cli; print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter (numpy included)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(np_version: str) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "ultrapreserve").glob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np_version,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def run_op(cli, op, tracer=None):
    """Run an op's CLI calls back to back; return (latency_s, results)."""
    from workloads import StepResult

    results = []
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    for argv in op.steps:
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as caught:  # an escaping exception is an op failure, not the end
            exc = caught
        results.append(StepResult(code, out.getvalue(), err.getvalue(), exc))
    latency = time.perf_counter() - start
    if tracer is not None:
        latency = tracer.end_op()["wall_s"]
    return latency, results


def check_op(op, results, failures: list) -> bool:
    from workloads import CheckFailed

    try:
        op.check(results)
    except (CheckFailed, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return False
    return True


def tail(latencies, percentile: float):
    """Latency at the given percentile and the number of samples beyond it."""
    value = float(np.percentile(latencies, percentile))
    return value, sum(1 for x in latencies if x > value)


def op_layer_values(op, criteria) -> dict:
    """Per-layer values of one traced op, keyed by per-layer metric name."""
    layers = op["layers"]
    values = {}
    for name, (calls, self_s, incl_s) in layers.items():
        if name.endswith(".violations"):
            values[name] = calls
            continue
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = 1e3 * self_s
        module = name.split(".")[0] + ".self_ms"  # a whole module, e.g. cli.self_ms
        values[module] = values.get(module, 0.0) + 1e3 * self_s
    for predicate in ("spaces.is_ultrametric", "spaces.is_metric"):
        if predicate in layers:
            values.setdefault(f"{predicate}.violations", 0)
    spans = [layers[f"suite.{c}"][2] for c in criteria if f"suite.{c}" in layers]
    if spans:
        values["suite.criteria.total_ms"] = 1e3 * sum(spans)
    return values


def per_layer(metrics, ops, ops_per_s, criteria) -> dict:
    """Per-op medians over the ops in which each layer ran (0 where it never ran)."""
    per_op = [op_layer_values(op, criteria) for op in ops]
    out = {}
    for m in metrics:
        if m["name"] == "trace.ops_per_s":
            value = ops_per_s
        else:
            seen = [values[m["name"]] for values in per_op if m["name"] in values]
            value = statistics.median(seen) if seen else 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ultrapreserve").is_dir():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer
    from ultrapreserve import cli

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    known = workloads.load_known()
    workdir = OUT / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        rng = np.random.default_rng([args.seed, sorted(workloads.WORKLOADS).index(args.workload)])
        plan = workloads.WORKLOADS[args.workload](rng, workdir, known)
        setups.append(imported + time.perf_counter() - start)
        imports.append(imported)

    failures: list[str] = []
    latency, results = run_op(cli, plan.warmup)
    warm_ok = check_op(plan.warmup, results, failures)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    latencies, round_seconds, failed = [], [], 0
    start = time.perf_counter()
    cut = False
    while time.perf_counter() < start + args.seconds and not cut:
        ops = plan.rounds[len(round_seconds) % len(plan.rounds)]
        spent = 0.0
        for op in ops:
            latency, results = run_op(cli, op, tracer)
            latencies.append(latency)
            spent += latency
            failed += not check_op(op, results, failures)
            cut = time.perf_counter() - start > HARD_LIMIT_S
            if cut:
                break
        else:
            round_seconds.append(spent / len(ops))  # seconds per op in this round
    if tracer is not None:
        tracer.uninstall()

    probe_failed = sum(not check_op(op, run_op(cli, op)[1], failures) for op in plan.probes)
    attempted = len(latencies)
    # every round runs the same mix, so the median round is robust to a slow spell
    ops_per_s = 1.0 / statistics.median(round_seconds or [sum(latencies) / attempted])
    correct = warm_ok and failed == 0
    meta = metadata(np.__version__)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(round_seconds), "ops": attempted,
        "setup_s_samples": setups, "import_s_samples": imports,
        "known_defect_ops": len(plan.probes), "known_defect_failed": probe_failed,
        "failed_frac": (failed + probe_failed) / (attempted + len(plan.probes)),
        "failures": failures[:20],
    })

    if tracer is None:
        tail_s, beyond = tail(latencies, plan.tail_percentile)
        meta.update({"tail_percentile": plan.tail_percentile, "tail_samples_beyond": beyond})
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        mismatch = max(abs(op["self_sum_s"] - op["wall_s"]) for op in tracer.ops)
        meta["self_time_mismatch_s"] = mismatch
        if mismatch > SELF_TIME_TOLERANCE_S:
            failures.append(f"self times do not sum to op wall time (off by {mismatch} s)")
            correct = False
        trace_file = workdir / "spans.jsonl.gz"
        tracer.write(trace_file)
        meta["spans_file"] = str(trace_file.relative_to(ROOT))
        metrics = per_layer(bench["per_layer"], tracer.ops, ops_per_s,
                            known["suite"]["criteria"])

    for written in workdir.glob("*.json"):  # inputs and suite summaries; spans stay
        written.unlink()
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
