#!/usr/bin/env python3
"""Print where two golden files differ, entry by entry and leaf by leaf.

A golden is a JSON list of entries, each named by its "function" (and its
"mode", where it has one). Every leaf that differs prints one line, the
entry's name, the leaf's dotted path within the entry and both values; a
leaf under a --mask path is marked masked. An entry on one side only is an
unmasked difference. Exits 1 if any unmasked difference is left, else 0.

Usage:
    python3 scripts/golden_diff.py OLD NEW [--mask dotted.key ...]
    git show HEAD:tests/golden/classify_seed0.json |
        python3 scripts/golden_diff.py - tests/golden/classify_seed0.json \\
        --mask report.verdicts.minmax_equation

OLD or NEW may be "-" for standard input.
"""

import argparse
import json
import sys

ABSENT = "<absent>"


def load(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return {":".join(e[k] for k in ("mode", "function") if k in e): e for e in json.loads(text)}


def leaves(value, path: str = ""):
    """(dotted path, value) of every leaf; an empty container is a leaf."""
    if not (isinstance(value, (dict, list)) and value):
        yield path, value
        return
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        yield from leaves(item, f"{path}.{key}" if path else str(key))


def differences(old: dict, new: dict):
    """(name, path, old value, new value) of every differing leaf."""
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            yield name, "", *("present" if name in side else ABSENT for side in (old, new))
            continue
        a, b = dict(leaves(old[name])), dict(leaves(new[name]))
        for path in sorted(a.keys() | b.keys()):
            if a.get(path, ABSENT) != b.get(path, ABSENT):
                yield name, path, a.get(path, ABSENT), b.get(path, ABSENT)


def masked(path: str, masks: list) -> bool:
    return any(path == m or path.startswith(m + ".") for m in masks)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--mask", action="append", default=[], metavar="dotted.key")
    args = ap.parse_args()
    unmasked = 0
    for name, path, a, b in differences(load(args.old), load(args.new)):
        hidden = bool(path) and masked(path, args.mask)
        unmasked += not hidden
        tag = "masked" if hidden else "DIFF"
        print(f"{tag}\t{name}\t{path or '<entry>'}\t{json.dumps(a)} -> {json.dumps(b)}")
    return 1 if unmasked else 0


if __name__ == "__main__":
    sys.exit(main())
