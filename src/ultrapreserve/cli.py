"""Command-line interface.

Subcommands: classify, witness, transform, verify, embed, generate, suite.
Exit codes are a stable contract: 0 pass, 1 usage/parse error, 2 fails with
witness, 3 undetermined, 4 no witness found. Code 3 is reserved: every
verdict holds or fails with a witness, so no command exits 3. All commands
are deterministic given their inputs and seed; ULTRA_SEED is the seed
fallback for the commands that take --seed. Each subcommand accepts only the
options it reads. JSON output is strict: a document holding a non-finite
number is an error. `transform` and `generate` stream their matrix through
matrix_io's writers; the other commands write one json.dumps text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classify import classification_report
from .expr import FunctionSpec, FunctionSpecError
from .generators import (
    InvalidParameters,
    dplus2_space,
    dplus_space,
    random_ultrametric,
    tbu_noncompact_truncation,
    triangle_equilateral,
    triangle_isosceles,
)
from .matrix_io import csv_chunks, json_chunks, load_space, space_json_chunks, write_chunks
from .parser import parse_function_file, parse_function_spec
from .properties import DEFAULT_SAMPLE_BUDGET
from .spaces import (
    SpaceValidationError,
    apply_function,
    covering_number,
    distance_spectrum,
    is_metric,
    is_ultrametric,
    min_positive_distance,
)
from .suite import SuiteConfig, run_suite
from .witnesses import (
    PreconditionFailed,
    SpectrumNotEmbeddable,
    NotUltrametric,
    WrongSize,
    embed_three_point_tbu,
    embed_three_point_universal,
    witness_not_strongly_preserving,
    witness_not_ultrametric_preserving,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILS = 2
EXIT_NO_WITNESS = 4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("ULTRA_SEED", "0"))


def _emit(doc, args, code: int = EXIT_OK) -> int:
    """Write doc as strict JSON to --out or stdout and return code; a
    non-finite number writes nothing and fails with a usage error."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        return _fail("output holds a non-finite number, which strict JSON cannot carry")
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return code


def _emit_chunks(render, args) -> int:
    """Write the JSON chunks of render() to --out or stdout and return 0;
    render checks every number before the first chunk, so a non-finite one
    writes nothing and fails as in _emit."""
    try:
        chunks = render()
    except ValueError:
        return _fail("output holds a non-finite number, which strict JSON cannot carry")
    write_chunks(chunks, args.out)
    return EXIT_OK


def _load_specs(argument: str) -> list[FunctionSpec]:
    path = Path(argument)
    try:
        is_file = path.exists()
    except OSError:  # a spec longer than a file name can be
        is_file = False
    if is_file:
        return parse_function_file(path.read_text())
    return [parse_function_spec(argument)]


def _load_one_spec(argument: str) -> FunctionSpec:
    specs = _load_specs(argument)
    if len(specs) != 1:
        raise FunctionSpecError(f"expected exactly one function spec, got {len(specs)}")
    return specs[0]


def _provenance(generator: str, seed=None, **parameters) -> dict:
    return {
        "tool": "ultrapreserve",
        "version": __version__,
        "generator": generator,
        "seed": seed,
        "parameters": parameters,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_classify(args) -> int:
    try:
        specs = _load_specs(args.function)
    except FunctionSpecError as exc:
        return _fail(str(exc))
    if not specs:
        return _fail("function file contains no specs")
    seed = _resolve_seed(args)
    budget = args.budget if args.budget is not None else DEFAULT_SAMPLE_BUDGET
    try:
        reports = [classification_report(spec, seed=seed, budget=budget) for spec in specs]
    except FunctionSpecError as exc:
        return _fail(str(exc))
    doc = reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports]
    code = EXIT_FAILS if any(r.ultrametric_preserving.fails for r in reports) else EXIT_OK
    return _emit(doc, args, code)


def cmd_witness(args) -> int:
    try:
        spec = _load_one_spec(args.function)
    except FunctionSpecError as exc:
        return _fail(str(exc))
    try:
        if args.mode == "pu":
            cert = witness_not_ultrametric_preserving(spec)
        else:
            cert = witness_not_strongly_preserving(spec, n_levels=args.levels)
    except (PreconditionFailed, InvalidParameters, FunctionSpecError) as exc:
        return _fail(str(exc))
    if cert is None:
        doc = {"result": "no_witness_found", "function": spec.source, "mode": args.mode}
        return _emit(doc, args, EXIT_NO_WITNESS)
    return _emit(cert.to_json(), args)


def cmd_transform(args) -> int:
    try:
        space = load_space(args.matrix)
        spec = _load_one_spec(args.function)
        image = apply_function(space, spec)
    except (SpaceValidationError, FunctionSpecError, ValueError, OSError) as exc:
        return _fail(str(exc))
    # entries of both are >= 0, where max(a, b) <= fl(a + b): ultrametric implies metric
    was_ultra, _ = is_ultrametric(space)
    was_metric = was_ultra or is_metric(space)[0]
    now_ultra, _ = is_ultrametric(image)
    now_metric = now_ultra or is_metric(image)[0]
    summary = {
        "function": spec.source,
        "was_ultrametric": was_ultra,
        "is_ultrametric": now_ultra,
        "was_metric": was_metric,
        "is_metric": now_metric,
        "spectrum_before": list(distance_spectrum(space)),
        "spectrum_after": list(distance_spectrum(image)),
    }
    if args.format == "csv":
        write_chunks(csv_chunks(image), args.out)
        print(json.dumps(summary, indent=2), file=sys.stderr)
        return EXIT_OK
    doc = {"matrix": {"labels": list(image.labels), "dist": None}, "summary": summary}
    return _emit_chunks(lambda: json_chunks(doc, image.dist), args)


def cmd_verify(args) -> int:
    try:
        space = load_space(args.matrix)
    except (SpaceValidationError, ValueError, OSError) as exc:
        return _fail(str(exc))
    ultra, ultra_violation = is_ultrametric(space)
    # entries of a validated space are >= 0, where max(a, b) <= fl(a + b): ultrametric implies metric
    metric, metric_violation = (True, None) if ultra else is_metric(space)
    doc = {
        "points": len(space),
        "ultrametric": {
            "holds": ultra,
            "violation": ultra_violation.to_json() if ultra_violation else None,
        },
        "metric": {
            "holds": metric,
            "violation": metric_violation.to_json() if metric_violation else None,
        },
        "spectrum": list(distance_spectrum(space)),
        "min_positive_distance": min_positive_distance(space) if len(space) >= 2 else None,
        "covering": [
            {"eps": eps, "balls": covering_number(space, eps)} for eps in (args.eps or [])
        ],
    }
    return _emit(doc, args)


def cmd_embed(args) -> int:
    try:
        space = load_space(args.matrix)
    except (SpaceValidationError, ValueError, OSError) as exc:
        return _fail(str(exc))
    try:
        if args.family == "universal":
            points = embed_three_point_universal(space)
            doc = {"family": "universal", "points": [[p.s, p.t] for p in points]}
        else:
            points, levels = embed_three_point_tbu(space, ratio=args.ratio)
            doc = {
                "family": "tbu",
                "ratio": args.ratio,
                "points": [[p.s, p.t] for p in points],
                "levels": list(levels.values),
            }
    except (NotUltrametric, WrongSize, SpectrumNotEmbeddable, InvalidParameters) as exc:
        return _fail(str(exc))
    doc["isometric"] = True  # embeddings verify internally before returning
    return _emit(doc, args)


def cmd_generate(args) -> int:
    try:
        if args.kind == "random":
            seed = _resolve_seed(args)
            space = random_ultrametric(args.n, seed, args.level_distribution)
            prov = _provenance("random", seed, n=args.n,
                               level_distribution=args.level_distribution)
        elif args.kind == "dplus":
            space = dplus_space(args.values)
            prov = _provenance("dplus", values=args.values)
        elif args.kind == "dplus2":
            points = []
            for token in args.points:
                s, t = token.split(",")
                points.append((float(s), float(t)))
            space = dplus2_space(points)
            prov = _provenance("dplus2", points=[list(p) for p in points])
        elif args.kind == "tbu":
            space, levels = tbu_noncompact_truncation(args.levels, args.ratio, args.mirrored)
            prov = _provenance("tbu", levels=args.levels, ratio=args.ratio,
                               mirrored=args.mirrored,
                               level_sequence=list(levels.values))
        elif args.kind == "equilateral":
            space = triangle_equilateral(args.side)
            prov = _provenance("equilateral", side=args.side)
        else:
            space = triangle_isosceles(args.c1, args.c2)
            prov = _provenance("isosceles", c1=args.c1, c2=args.c2)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "csv":
        write_chunks(csv_chunks(space), args.out)
        return EXIT_OK
    return _emit_chunks(lambda: space_json_chunks(space, prov), args)


def cmd_suite(args) -> int:
    try:
        config = SuiteConfig(
            trials=args.trials,
            max_points=args.max_points,
            seed=_resolve_seed(args),
            budget=args.budget if args.budget is not None else 10_000,
        )
    except ValueError as exc:
        return _fail(str(exc))
    report = run_suite(config)
    for result in report.results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}")
    code = _emit(report.to_json(), args, EXIT_OK if report.passed else EXIT_FAILS)
    if code != EXIT_USAGE:
        print(f"summary written to {args.out}")
    return code


# ---------------------------------------------------------------------------
# Argument parsing


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return value


def _radius(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite radius, got {text!r}")
    return value


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    seed = _option("--seed", type=int, default=None,
                   help="RNG seed (fallback: ULTRA_SEED, then 0)")
    budget = _option("--budget", type=_sample_count, default=None,
                     help="sample budget for probabilistic checks (0: fixed probes only)")
    fmt = _option("--format", choices=("json", "csv"), default="json")
    out = _option("--out", default=None, help="write output to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="ultrapreserve",
        description="Classify distance transforms against the ultrametric "
        "preservation classes and synthesize counterexample spaces.",
    )
    parser.add_argument("--version", action="version", version=f"ultrapreserve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[seed, budget, out],
                       help="full membership report for a function spec")
    p.add_argument("function", help="DSL expression or path to a function file")

    p = sub.add_parser("witness", parents=[out], help="synthesize a counterexample space")
    p.add_argument("function")
    p.add_argument("--mode", choices=("pu", "pt"), default="pu",
                   help="pu: not ultrametric-preserving; pt: not topology-preserving")
    p.add_argument("--levels", type=int, default=8,
                   help="truncation size for the covering divergence table")

    p = sub.add_parser("transform", parents=[fmt, out],
                       help="apply a function to a distance matrix")
    p.add_argument("matrix")
    p.add_argument("function")

    p = sub.add_parser("verify", parents=[out], help="predicate report for a distance matrix")
    p.add_argument("matrix")
    p.add_argument("--eps", type=_radius, action="append",
                   help="report the covering number at this radius (repeatable)")

    p = sub.add_parser("embed", parents=[out],
                       help="embed a 3-point ultrametric space into a universal space")
    p.add_argument("matrix")
    p.add_argument("--family", choices=("universal", "tbu"), default="universal")
    p.add_argument("--ratio", type=float, default=0.5)

    p = sub.add_parser("generate", help="construct ultrametric spaces")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("random", parents=[seed, fmt, out])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--level-distribution", default="log2-uniform",
                   choices=("log2-uniform", "uniform"))
    g = gen.add_parser("dplus", parents=[fmt, out])
    g.add_argument("--values", type=float, nargs="+", required=True)
    g = gen.add_parser("dplus2", parents=[fmt, out])
    g.add_argument("--points", nargs="+", required=True, metavar="S,T")
    g = gen.add_parser("tbu", parents=[fmt, out])
    g.add_argument("--levels", type=int, default=8)
    g.add_argument("--ratio", type=float, default=0.5)
    g.add_argument("--mirrored", action="store_true")
    g = gen.add_parser("equilateral", parents=[fmt, out])
    g.add_argument("--side", type=float, required=True)
    g = gen.add_parser("isosceles", parents=[fmt, out])
    g.add_argument("--c1", type=float, required=True)
    g.add_argument("--c2", type=float, required=True)

    p = sub.add_parser("suite", parents=[seed, budget],
                       help="run the cross-module verification suites")
    p.add_argument("--out", default="suite_summary.json", help="summary file")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--max-points", type=int, default=12)

    return parser


_parser = None  # built on the first main call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # looked up per call, not stored in the cached parser, so that a rebound
    # cmd_* (the benchmark's tracer wraps them) is the one that runs
    return globals()[f"cmd_{args.command}"](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
