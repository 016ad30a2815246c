"""Analytic property probes for function specs.

A verdict holds or fails with a witness. `Holds` with ``exact=True`` means
a structural certificate decided the property; otherwise `Holds` only means
"no violation within the probe budget". `FailsWithWitness` always carries a
witness that re-evaluates to a genuine violation, so a failing verdict is
exact by construction. Sampled checks take an explicit seed, recorded in the
verdict for replay; violation selection is order-independent (fixed probes
first, then the lexicographically smallest sampled violation), so samples may
be evaluated concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    FunctionSpec,
    Piecewise,
    breakpoints,
    monotone_certified,
    positive_certified,
    right_limit_at_zero,
    value_at,
)

PROBE_GRID = 2.0 ** np.linspace(-60.0, 60.0, 241)  # half-integer exponents
DEFAULT_SAMPLE_BUDGET = 4096
BREAKPOINT_OFFSET = 2.0**-40


class Status(str, enum.Enum):
    HOLDS = "holds"
    FAILS = "fails_with_witness"


@dataclass(frozen=True)
class PropertyVerdict:
    status: Status
    witness: Optional[dict]
    budget_used: int
    exact: bool
    seed: Optional[int] = None

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "witness": self.witness,
            "budget_used": self.budget_used,
            "exact": self.exact,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class InfimumBound:
    """Lower bound report for inf f over (0, inf)."""

    estimate: float
    exact: bool

    def to_json(self) -> dict:
        return {"estimate": self.estimate, "exact": self.exact}


def probe_points(spec: FunctionSpec, include_zero: bool = False) -> np.ndarray:
    """Sorted probe set: PROBE_GRID plus piece breakpoints +- 2**-40."""
    extra = [0.0] if include_zero else []
    for b in breakpoints(spec.root):
        for candidate in (b - BREAKPOINT_OFFSET, b, b + BREAKPOINT_OFFSET):
            if candidate > 0 and math.isfinite(candidate):
                extra.append(candidate)
    return np.unique(np.concatenate([PROBE_GRID, extra]))


def check_amenable(spec: FunctionSpec) -> PropertyVerdict:
    """f(0) = 0 and f > 0 on (0, inf).

    The grid runs even when a positivity certificate applies: the certificate
    reasons over the reals, and a value that underflows to 0 in floats still
    fails. A grid-clean `holds` is exact when the certificate applies.
    """
    f0 = spec(0.0)
    if f0 != 0.0:
        witness = {"t": 0.0, "f_t": f0}
        return PropertyVerdict(Status.FAILS, witness, 1, exact=True)
    grid = probe_points(spec)
    values = spec.values(grid)
    zeros = np.flatnonzero(values <= 0.0)
    if zeros.size:
        k = zeros[0]
        witness = {"t": float(grid[k]), "f_t": float(values[k])}
        # the budget counts f(0) and the grid points up to the witness
        return PropertyVerdict(Status.FAILS, witness, int(k) + 2, exact=True)
    return PropertyVerdict(
        Status.HOLDS, None, len(grid) + 1, exact=positive_certified(spec.root)
    )


def check_increasing(spec: FunctionSpec) -> PropertyVerdict:
    """Monotone nondecreasing on [0, inf) ("increasing" in the weak sense).

    The witness is the first inversion on the grid: the smallest t1 with any
    later, smaller value, paired with the first such t2.
    """
    if monotone_certified(spec.root):
        return PropertyVerdict(Status.HOLDS, None, 0, exact=True)
    grid = probe_points(spec, include_zero=True)
    values = spec.values(grid)
    suffix_min = np.minimum.accumulate(values[::-1])[::-1]  # min(values[k:])
    inverted = np.flatnonzero(values[:-1] > suffix_min[1:])
    if inverted.size:
        i = inverted[0]
        j = i + 1 + np.flatnonzero(values[i + 1:] < values[i])[0]
        witness = {
            "t1": float(grid[i]),
            "f_t1": float(values[i]),
            "t2": float(grid[j]),
            "f_t2": float(values[j]),
        }
        return PropertyVerdict(Status.FAILS, witness, len(grid), exact=True)
    return PropertyVerdict(Status.HOLDS, None, len(grid), exact=False)


def _first_violation(spec: FunctionSpec, points, holds, keys, rows: np.ndarray) -> Optional[dict]:
    """Witness for the lexicographically smallest row of the 2-d array rows
    whose image breaks holds, or None. `points(rows)` gives the points to
    evaluate, one row each, and one `spec.values` call evaluates them all;
    the witness zips keys with the row followed by its image. An image sum
    that overflows to inf decides as inf, without a numpy warning."""
    image = spec.values(points(rows))
    with np.errstate(all="ignore"):
        bad = ~holds(*image.T)
    if not bad.any():
        return None
    rows, image = rows[bad], image[bad]
    k = np.lexsort(rows.T[::-1])[0]  # lexsort's primary key is its last
    return dict(zip(keys, rows[k].tolist() + image[k].tolist()))


def _scan_probes(
    spec: FunctionSpec, points, holds, keys, fixed, sampled: np.ndarray, seed: int
) -> PropertyVerdict:
    """Fixed probes one row at a time, in order, then the lexicographically
    smallest violating row of the sampled array in one batch."""
    for used, probe in enumerate(fixed, 1):
        w = _first_violation(spec, points, holds, keys, np.array([probe], dtype=float))
        if w is not None:
            return PropertyVerdict(Status.FAILS, w, used, exact=True, seed=seed)
    used = len(fixed) + len(sampled)
    w = _first_violation(spec, points, holds, keys, sampled)
    if w is None:
        return PropertyVerdict(Status.HOLDS, None, used, exact=False, seed=seed)
    return PropertyVerdict(Status.FAILS, w, used, exact=True, seed=seed)


def log_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Log-uniform magnitudes 2**U(-30, 30), the scale of every sampled probe."""
    return 2.0 ** rng.uniform(-30.0, 30.0, size=size)


_SUBADDITIVE_FIXED_PAIRS = ((0.0, 0.0), (1.0, 1.0))
_SUBADDITIVE_KEYS = ("x", "y", "f_x", "f_y", "f_sum")


def _pair_points(pairs: np.ndarray) -> np.ndarray:
    x, y = pairs.T
    return np.column_stack([x, y, x + y])


def _subadditive_holds(fx, fy, fs):
    return ~(fs > fx + fy)  # an undefined sum (inf - inf) is no violation


def check_subadditive(
    spec: FunctionSpec, budget: int = DEFAULT_SAMPLE_BUDGET, seed: int = 0
) -> PropertyVerdict:
    """f(x+y) <= f(x) + f(y) on fixed probes plus seeded log-uniform pairs."""
    rng = np.random.default_rng(seed)
    pairs = log_uniform(rng, (budget, 2))
    return _scan_probes(
        spec, _pair_points, _subadditive_holds, _SUBADDITIVE_KEYS,
        _SUBADDITIVE_FIXED_PAIRS, pairs, seed,
    )


def check_continuous_at_zero(spec: FunctionSpec) -> PropertyVerdict:
    """lim_{t -> 0+} f(t) = f(0).

    The right limit at 0 is computed exactly for every tree in the grammar
    (all combiners are continuous and all atoms have known limits), so the
    verdict is exact; the dyadic probe 2**-60 only furnishes the witness.
    """
    f0 = spec(0.0)
    limit = right_limit_at_zero(spec.root)
    if limit == f0:
        return PropertyVerdict(Status.HOLDS, None, 1, exact=True)
    t = 2.0**-60
    witness = {"t": t, "f_t": spec(t), "f_0": f0, "right_limit": limit}
    return PropertyVerdict(Status.FAILS, witness, 2, exact=True)


def inf_on_positive(spec: FunctionSpec) -> InfimumBound:
    """Infimum of f over (0, inf); exact when a structural argument applies.

    For a nondecreasing tree the infimum is the right limit at 0; a piecewise
    spec whose pieces are each nondecreasing attains its infimum among the
    piece left endpoints.
    """
    exact = _symbolic_inf(spec.root)
    if exact is not None:
        return InfimumBound(exact, True)
    estimate = min(spec.values(probe_points(spec)).tolist())
    return InfimumBound(estimate, False)


def _symbolic_inf(node) -> Optional[float]:
    if isinstance(node, Piecewise):
        values = []
        for p in node.pieces:
            if p.upper <= 0:
                continue  # the piece meets (0, inf) nowhere
            if not monotone_certified(p.expr):
                return None
            at = max(p.lower, 0.0)
            if at == 0.0:
                values.append(right_limit_at_zero(p.expr))
            else:
                # piece expressions are continuous on (0, inf), so the value
                # at the left endpoint is the infimum over the piece either way
                values.append(value_at(p.expr, at))
        return min(values) if values else None
    if monotone_certified(node):
        return right_limit_at_zero(node)
    return None


def verify_witness(spec: FunctionSpec, witness: dict) -> bool:
    """Re-evaluate a stored witness; True when it still violates."""
    if witness is None:
        return False
    if {"t1", "t2"} <= witness.keys():  # monotonicity
        return (
            witness["t1"] < witness["t2"]
            and spec(witness["t1"]) == witness["f_t1"]
            and spec(witness["t2"]) == witness["f_t2"]
            and witness["f_t1"] > witness["f_t2"]
        )
    if {"x", "y"} <= witness.keys():  # subadditivity
        x, y = witness["x"], witness["y"]
        return spec(x + y) > spec(x) + spec(y)
    if "f_0" in witness:  # continuity at zero
        return spec(witness["t"]) == witness["f_t"] and witness["f_t"] != witness["f_0"]
    if {"p", "q", "l"} <= witness.keys():  # triangle-triplet or min-max triple
        from .classify import minmax_equation_holds, triangle_triplet_holds

        args = (witness["p"], witness["q"], witness["l"])
        image = (witness["f_p"], witness["f_q"], witness["f_l"])
        if tuple(spec(x) for x in args) != image:
            return False
        with np.errstate(all="ignore"):  # an overflowing sum decides as inf
            return any(
                check(*args) and not check(*image)
                for check in (triangle_triplet_holds, minmax_equation_holds)
            )
    if "t" in witness:  # amenability
        return spec(witness["t"]) == witness["f_t"] and (
            (witness["t"] == 0.0 and witness["f_t"] != 0.0)
            or (witness["t"] > 0.0 and witness["f_t"] <= 0.0)
        )
    return False
