#!/usr/bin/env python3
"""Matrix-path timing ladder: `verify` and `transform` end to end, and per layer.

For each size n, a `random_ultrametric` matrix is written to a temporary JSON
file and timed in-process through `cli.main` (`verify M`, `transform M f`,
stdout discarded), then layer by layer: `validate_space`, `is_ultrametric`,
`is_metric`, `apply_function` and the JSON text of the transformed matrix
(`matrix_io.space_json_chunks`, the streaming writer behind `transform`).
Each figure is the median of --repeats runs, in milliseconds.

Usage:
    python3 scripts/matrix_ladder.py
    python3 scripts/matrix_ladder.py --sizes 100 400 1600 --repeats 5
"""

import argparse
import contextlib
import os
import statistics
import tempfile
import time
from pathlib import Path

from ultrapreserve.cli import main as cli_main
from ultrapreserve.generators import random_ultrametric
from ultrapreserve.matrix_io import save_space, space_json_chunks
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.spaces import apply_function, is_metric, is_ultrametric, validate_space

COLUMNS = ("verify", "transform", "validate_space", "is_ultrametric", "is_metric",
           "apply_function", "json_output")


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def ladder_row(n: int, function: str, seed: int, repeats: int, workdir: Path) -> dict:
    space = random_ultrametric(n, seed)
    path = workdir / f"ultrametric-{n}.json"
    save_space(space, path)
    spec = parse_function_spec(function)
    image = apply_function(space, spec)
    raw = space.dist.tolist()

    def run(*argv):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if cli_main(list(argv)) != 0:
                raise SystemExit(f"{argv[0]} failed at n = {n}")

    layers = {
        "verify": lambda: run("verify", str(path)),
        "transform": lambda: run("transform", str(path), function),
        "validate_space": lambda: validate_space(raw, space.labels),
        "is_ultrametric": lambda: is_ultrametric(space),
        "is_metric": lambda: is_metric(space),
        "apply_function": lambda: apply_function(space, spec),
        "json_output": lambda: "".join(space_json_chunks(image)),
    }
    return {name: median_ms(call, repeats) for name, call in layers.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800, 1600])
    ap.add_argument("--function", default="pow(t, 0.5)", help="transform for `transform`")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    header = f"{'n':>5}" + "".join(f"  {name:>14}" for name in COLUMNS)
    print(f"median ms of {args.repeats} runs; f = {args.function}")
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            row = ladder_row(n, args.function, args.seed, args.repeats, Path(tmp))
            print(f"{n:>5}" + "".join(f"  {row[name]:>14.1f}" for name in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
