#!/usr/bin/env python3
"""Classify a catalog of staple transforms and print a verdict table.

Usage:
    python3 scripts/classify_catalog.py [--seed S] [--budget N] [FUNCTION_FILE]

Without a file, a built-in catalog covering every class boundary is used.
"""

import argparse
from pathlib import Path

from ultrapreserve.classify import classification_report
from ultrapreserve.parser import parse_function_file, parse_function_spec
from ultrapreserve.witnesses import witness_not_ultrametric_preserving

CATALOG = [
    "t",                                            # identity: everything holds
    "pow(t, 0.5)",                                  # concave: subadditive too
    "t * t",                                        # convex: loses subadditivity
    "cantor_hat(t)",                                # singular but fully preserving
    "step_above(1)",                                # structure without topology
    "min(t, 1)",                                    # bounded but continuous
    "max(0, t - 1)",                                # planted zero: not amenable
    "piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }", # planted inversion
]


def short(verdict) -> str:
    tag = "yes" if verdict.holds else "NO"
    return f"{tag}{'*' if verdict.exact else ''}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("function_file", nargs="?", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=2048)
    args = ap.parse_args()

    if args.function_file:
        specs = parse_function_file(Path(args.function_file).read_text())
    else:
        specs = [parse_function_spec(s) for s in CATALOG]

    cols = ("ultra", "strong", "metric", "triplet", "minmax", "inf>0")
    width = max(len(s.source) for s in specs)
    print(f"{'function':<{width}}  " + "  ".join(f"{c:>7}" for c in cols) + "  witness")
    print("-" * (width + 2 + 9 * len(cols) + 20))
    for spec in specs:
        r = classification_report(spec, seed=args.seed, budget=args.budget)
        bound = f"{r.inf_on_positive.estimate:g}{'*' if r.inf_on_positive.exact else ''}"
        cert = witness_not_ultrametric_preserving(spec)
        row = (
            short(r.ultrametric_preserving),
            short(r.strongly_preserving),
            short(r.metric_preserving_sufficient),
            short(r.triplet_preservation),
            short(r.minmax_equation),
            bound,
        )
        print(
            f"{spec.source:<{width}}  " + "  ".join(f"{c:>7}" for c in row)
            + f"  {cert.kind if cert else '-'}"
        )
    print(
        "\n'*' marks exact results: a 'yes*' or an inf>0 bound is decided by a"
        " structural\ncertificate, and every 'NO*' carries a witness that"
        " re-evaluates to a violation.\n'witness' is the certificate kind of"
        " `witness --mode pu`, or '-' when there is none."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
