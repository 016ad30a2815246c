"""Membership verdicts for the preservation classes.

A transform preserves ultrametric structure iff it is increasing (weakly) and
amenable; it additionally preserves the induced topology — equivalently
compactness, total boundedness, compact-to-totally-bounded transport, and
non-uniform-discreteness — iff it is also continuous at 0. Increasing plus
subadditive certifies joint metric-and-ultrametric preservation. The two
functional formulations (triangle-triplet transport and the min-max equation
on triples whose two largest entries agree) are checked by seeded sampling
with fixed degenerate probes always included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expr import FunctionSpec
from .properties import (
    DEFAULT_SAMPLE_BUDGET,
    InfimumBound,
    PropertyVerdict,
    SampledCheck,
    Status,
    _first_violation,
    _scan_probes,
    check_amenable,
    check_continuous_at_zero,
    check_increasing,
    check_subadditive,
    inf_on_positive,
    log_uniform,
)

_SEED_MIX = 0x9E3779B97F4A7C15  # splitmix64 increment; stable sub-seed derivation


def derive_seed(seed: int, lane: int) -> int:
    return (seed + _SEED_MIX * (lane + 1)) % 2**64


def combine_verdicts(*verdicts: PropertyVerdict) -> PropertyVerdict:
    """Conjunction: first failure wins and propagates its witness."""
    budget = sum(v.budget_used for v in verdicts)
    seed = next((v.seed for v in verdicts if v.seed is not None), None)
    for v in verdicts:
        if v.fails:
            return PropertyVerdict(Status.FAILS, v.witness, budget, v.exact, seed)
    exact = all(v.exact for v in verdicts)
    return PropertyVerdict(Status.HOLDS, None, budget, exact, seed)


def classify_ultrametric_preserving(spec: FunctionSpec) -> PropertyVerdict:
    """Increasing and amenable — the full criterion for preserving the strong
    triangle inequality on every space."""
    return combine_verdicts(check_increasing(spec), check_amenable(spec))


def classify_strongly_preserving(spec: FunctionSpec) -> PropertyVerdict:
    """Increasing, amenable, and continuous at 0 — preserves the topology."""
    return combine_verdicts(
        check_increasing(spec), check_amenable(spec), check_continuous_at_zero(spec)
    )


def _sample_triangle_triples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Sorted triples a <= b <= c with 2*c <= a + b + c, drawn directly: b
    log-uniform, a = b*v and c = b + a*u for v, u ~ U[0, 1). Rounding is
    monotone, so c <= fl(a + b) and the predicate's sum fl(fl(a + b) + c) is
    >= 2*c on every row; a permuted row sums in another order and can fail."""
    b = log_uniform(rng, count)
    a = b * rng.uniform(size=count)
    return np.column_stack([a, b, b + a * rng.uniform(size=count)])


def _sample_two_largest_equal(rng: np.random.Generator, count: int) -> np.ndarray:
    """Triples whose two largest entries agree, generated directly: the
    constraint set is thin near degenerate triples and rejection covers it
    poorly, so (a, b, b) with a <= b is drawn and then permuted."""
    a, b = np.sort(log_uniform(rng, (count, 2)), axis=1).T
    return rng.permuted(np.column_stack([a, b, b]), axis=1)


# The two predicates take floats or equal-shape arrays (one triple per
# element); on NaN-free values they decide as Python's max and min would.
def triangle_triplet_holds(fp, fq, fl):
    return 2.0 * np.maximum(np.maximum(fp, fq), fl) <= fp + fq + fl


def minmax_equation_holds(fp, fq, fl):
    pairwise = np.minimum(np.minimum(np.maximum(fp, fq), np.maximum(fq, fl)), np.maximum(fp, fl))
    return pairwise == np.maximum(np.maximum(fp, fq), fl)


# Triple checks evaluate f at the triple itself. The all-zero and all-equal
# fixed triples probe amenability; (1, 1, 2) is the canonical flat triangle.
_TRIPLE_KEYS = ("p", "q", "l", "f_p", "f_q", "f_l")
TRIANGLE_TRIPLET = SampledCheck(np.asarray, triangle_triplet_holds, _TRIPLE_KEYS,
                                ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0)))
MINMAX_EQUATION = SampledCheck(np.asarray, minmax_equation_holds, _TRIPLE_KEYS,
                               ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))


def check_triplet_preservation(
    spec: FunctionSpec, samples: int = DEFAULT_SAMPLE_BUDGET, seed: int = 0
) -> PropertyVerdict:
    """Does f carry triangle triplets (2*max <= sum) to triangle triplets?"""
    rng = np.random.default_rng(seed)
    sampled = _sample_triangle_triples(rng, samples)
    return _scan_probes(spec, TRIANGLE_TRIPLET, sampled, seed)


def check_minmax_equation(
    spec: FunctionSpec, samples: int = DEFAULT_SAMPLE_BUDGET, seed: int = 0
) -> PropertyVerdict:
    """On triples whose two largest entries agree, the image triple must again
    satisfy min-of-pairwise-maxes = max. For amenable f this equation holds on
    all such triples iff f preserves ultrametrics."""
    rng = np.random.default_rng(seed)
    sampled = _sample_two_largest_equal(rng, samples)
    return _scan_probes(spec, MINMAX_EQUATION, sampled, seed)


def find_minmax_violation(
    spec: FunctionSpec, samples: int = DEFAULT_SAMPLE_BUDGET, seed: int = 0
) -> Optional[dict]:
    """Sampled min-max check, escalated by the monotonicity probe.

    When sampling misses, any decrease (t1 < t2 with f(t1) > f(t2)) yields
    the violating triple (t1, t2, t2) directly.
    """
    verdict = check_minmax_equation(spec, samples, seed)
    if verdict.fails:
        return verdict.witness
    increasing = check_increasing(spec)
    if increasing.fails:
        t1, t2 = increasing.witness["t1"], increasing.witness["t2"]
        triple = np.array([[t1, t2, t2]])
        return _first_violation(spec, MINMAX_EQUATION, triple)
    return None


# Classes answered by the strongly-preserving verdict; the five membership
# questions coincide.
EQUAL_CLASS_NOTES = {
    "strongly_preserving_equivalent_to": [
        "compactness_preserving",
        "total_boundedness_preserving",
        "compact_to_totally_bounded_preserving",
        "non_uniform_discreteness_preserving",
    ],
    "criterion": "amenable + increasing + continuous_at_zero",
}


@dataclass(frozen=True)
class ClassificationReport:
    function: str
    ultrametric_preserving: PropertyVerdict
    strongly_preserving: PropertyVerdict
    metric_preserving_sufficient: PropertyVerdict
    triplet_preservation: PropertyVerdict
    minmax_equation: PropertyVerdict
    inf_on_positive: InfimumBound
    seed: int
    budget: int
    notes: dict = field(default_factory=lambda: dict(EQUAL_CLASS_NOTES))

    def to_json(self) -> dict:
        from . import __version__

        return {
            "tool": "ultrapreserve",
            "version": __version__,
            "function": self.function,
            "verdicts": {
                "ultrametric_preserving": self.ultrametric_preserving.to_json(),
                "strongly_preserving": self.strongly_preserving.to_json(),
                "metric_preserving_sufficient": self.metric_preserving_sufficient.to_json(),
                "triplet_preservation": self.triplet_preservation.to_json(),
                "minmax_equation": self.minmax_equation.to_json(),
            },
            "inf_on_positive": self.inf_on_positive.to_json(),
            "seed": self.seed,
            "budget": self.budget,
            "notes": self.notes,
        }


def classification_report(
    spec: FunctionSpec,
    seed: int = 0,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> ClassificationReport:
    """Run every classifier with sub-seeds derived from one shared seed and
    enforce the cross-verdict consistency invariants. Each base property is
    decided once and the class verdicts are combined from those results."""
    increasing = check_increasing(spec)
    amenable = check_amenable(spec)
    continuous = check_continuous_at_zero(spec)
    pu = combine_verdicts(increasing, amenable)
    pt = combine_verdicts(increasing, amenable, continuous)
    pm = combine_verdicts(increasing, check_subadditive(spec, budget, derive_seed(seed, 0)))
    triplet = check_triplet_preservation(spec, budget, derive_seed(seed, 1))
    minmax = check_minmax_equation(spec, budget, derive_seed(seed, 2))
    bound = inf_on_positive(spec)
    if pt.holds and not pu.holds:
        raise RuntimeError("inconsistent report: topology preserved without structure")
    if pu.holds and bound.exact and bound.estimate == 0.0 and not pt.holds:
        raise RuntimeError("inconsistent report: vanishing infimum but discontinuous at 0")
    return ClassificationReport(
        function=spec.source,
        ultrametric_preserving=pu,
        strongly_preserving=pt,
        metric_preserving_sufficient=pm,
        triplet_preservation=triplet,
        minmax_equation=minmax,
        inf_on_positive=bound,
        seed=seed,
        budget=budget,
    )
