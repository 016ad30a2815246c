"""Cross-module verification suites.

Each criterion is a pure function returning a CriterionResult; `run_suite`
executes all of them with sub-seeds derived from one shared seed, so a
persisted summary replays bit-for-bit. The same functions back the package's
acceptance tests and the `suite` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classify import (
    check_minmax_equation,
    check_triplet_preservation,
    classify_strongly_preserving,
    classify_ultrametric_preserving,
    derive_seed,
    find_minmax_violation,
)
from .expr import FunctionSpec
# dplus2_space is unused here but stays importable (perfbench's tracer test)
from .generators import dplus2_space, random_ultrametric, snapped_levels, triangle_equilateral
from .parser import parse_function_spec
from .properties import check_increasing, check_subadditive, verify_witness
from .spaces import (
    apply_function,
    covering_number,
    is_ultrametric,
    minimum_covering_number,
)
from .witnesses import (
    embed_three_point_universal,
    verify_certificate,
    witness_not_strongly_preserving,
    witness_not_ultrametric_preserving,
)


@dataclass(frozen=True)
class SuiteConfig:
    trials: int = 500
    max_points: int = 12
    seed: int = 0
    budget: int = 10_000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_points < 3:
            raise ValueError(f"max_points must be >= 3, got {self.max_points}")

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "max_points": self.max_points,
            "seed": self.seed,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CriterionResult, ...]
    config: SuiteConfig
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "tool": "ultrapreserve",
            "version": self.version,
            "config": self.config.to_json(),
            "passed": self.passed,
            "results": [r.to_json() for r in self.results],
        }


# ---------------------------------------------------------------------------
# Curated function families


def preserving_pool() -> list[FunctionSpec]:
    """Ten transforms with a structural increasing+amenable certificate."""
    sources = [
        "t",
        "2 * t",
        "t * t",
        "pow(t, 0.5)",
        "pow(t, 3)",
        "min(t, 1)",
        "max(t, t * t)",
        "t + t * t",
        "cantor_hat(t)",
        "min(cantor_hat(t), t)",
    ]
    pool = [parse_function_spec(s) for s in sources]
    for spec in pool:
        verdict = classify_ultrametric_preserving(spec)
        if not (verdict.holds and verdict.exact):
            raise RuntimeError(f"pool member lost its certificate: {spec.source}")
    return pool


def zero_family() -> list[FunctionSpec]:
    """Ten transforms vanishing on an initial segment (planted zeros)."""
    cs = [2.0**-3, 2.0**-2, 2.0**-1, 1.0, 2.0, 4.0, 8.0, 32.0, 256.0, 1024.0]
    return [parse_function_spec(f"max(0, t - {c!r})") for c in cs]


def inversion_family() -> list[FunctionSpec]:
    """Ten positive transforms with a planted decrease (inversions)."""
    shapes = [
        (1.0, 2.0, 5.0, 3.0),
        (1.0, 2.0, 3.0, 1.0),
        (0.5, 1.0, 4.0, 2.0),
        (0.25, 0.5, 2.0, 1.0),
        (1.0, 4.0, 8.0, 4.0),
        (2.0, 8.0, 6.0, 2.0),
        (0.5, 2.0, 3.0, 0.5),
        (1.0, 2.0, 2.0, 0.25),
        (4.0, 8.0, 16.0, 8.0),
        (0.125, 0.25, 1.0, 0.5),
    ]
    specs = []
    for a, b, hi, lo in shapes:
        text = (
            f"piecewise {{ [0.0,{a!r}): t; [{a!r},{b!r}): {hi!r}; "
            f"[{b!r},inf): {lo!r} }}"
        )
        specs.append(parse_function_spec(text))
    return specs


# ---------------------------------------------------------------------------
# Criteria


def forward_preservation(trials: int = 500, max_points: int = 12, seed: int = 0) -> CriterionResult:
    """Certified increasing+amenable transforms keep random spaces ultrametric."""
    pool = preserving_pool()
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(trials):
        spec = pool[trial % len(pool)]
        n = int(rng.integers(2, max_points + 1))
        sub_seed = int(rng.integers(2**63))
        space = random_ultrametric(n, sub_seed)
        image = apply_function(space, spec)
        ok, violation = is_ultrametric(image)
        if not ok:
            violations.append({"function": spec.source, "seed": sub_seed,
                               "violation": violation.to_json()})
    return CriterionResult(
        "forward_preservation",
        passed=not violations,
        details={"trials": trials, "max_points": max_points, "violations": violations},
    )


def witness_synthesis() -> CriterionResult:
    """Every planted zero / inversion yields a certificate that re-verifies;
    every certified preserver yields no witness."""
    failures = []
    for spec, expected in [(s, "equilateral_zero") for s in zero_family()] + [
        (s, "isosceles_inversion") for s in inversion_family()
    ]:
        cert = witness_not_ultrametric_preserving(spec)
        if cert is None:
            failures.append({"function": spec.source, "problem": "no witness found"})
        elif cert.kind != expected:
            failures.append({"function": spec.source, "problem": f"kind {cert.kind}"})
        elif not verify_certificate(cert):
            failures.append({"function": spec.source, "problem": "re-verification failed"})
    false_positives = [
        spec.source
        for spec in preserving_pool()
        if witness_not_ultrametric_preserving(spec) is not None
    ]
    return CriterionResult(
        "witness_synthesis",
        passed=not failures and not false_positives,
        details={"non_members": 20, "failures": failures, "false_positives": false_positives},
    )


def strongly_preserving_criterion() -> CriterionResult:
    """Identity and the extended Cantor function preserve the topology; jump
    functions do not, at every jump height."""
    problems = []
    for source in ("t", "cantor_hat(t)"):
        verdict = classify_strongly_preserving(parse_function_spec(source))
        if not (verdict.holds and verdict.exact):
            problems.append({"function": source, "verdict": verdict.to_json()})
    for a in (2.0**-10, 1.0, 2.0**10):
        spec = parse_function_spec(f"step_above({a!r})")
        verdict = classify_strongly_preserving(spec)
        if not (verdict.fails and verdict.exact):
            problems.append({"function": spec.source, "verdict": verdict.to_json()})
    return CriterionResult(
        "strongly_preserving_criterion", passed=not problems, details={"problems": problems}
    )


def covering_divergence(level_counts: tuple[int, ...] = (4, 8, 16, 32)) -> CriterionResult:
    """Image covering number at 1/2 equals the truncation size exactly while
    the source covering number at 1/4 stays constant."""
    spec = parse_function_spec("step_above(1)")
    rows = []
    ok = True
    before_counts = set()
    for n in level_counts:
        cert = witness_not_strongly_preserving(spec, n_levels=n)
        if cert is None or not verify_certificate(cert):
            ok = False
            rows.append({"levels": n, "problem": "missing or unverifiable certificate"})
            continue
        table = cert.violation
        rows.append(table)
        before_counts.add(table["covering_before"])
        if table["covering_after"] != n or table["eps_after"] != 0.5:
            ok = False
    if len(before_counts) != 1:
        ok = False
    return CriterionResult(
        "covering_divergence",
        passed=ok,
        details={"table": rows, "before_counts": sorted(before_counts)},
    )


def universal_embedding(trials: int = 1000, seed: int = 0) -> CriterionResult:
    """Random 3-point ultrametric spaces (both spectrum shapes) embed with
    exact isometry verification; the embedding runs that check itself and
    raises RuntimeError when it fails."""
    rng = np.random.default_rng(seed)
    failures = 0
    for trial in range(trials):
        if trial % 4 == 3:
            side = snapped_levels(rng, 1)[0]
            space = triangle_equilateral(side)
        else:
            space = random_ultrametric(3, int(rng.integers(2**63)))
        try:
            embed_three_point_universal(space)
        except RuntimeError:
            failures += 1
    return CriterionResult(
        "universal_embedding",
        passed=failures == 0,
        details={"trials": trials, "failures": failures},
    )


def minmax_equivalence(samples: int = 10_000, seed: int = 0) -> CriterionResult:
    """Certified preservers never violate the image min-max equation; every
    curated non-member yields a violating triple from its inversion."""
    member_failures = []
    for k, spec in enumerate(preserving_pool()):
        verdict = check_minmax_equation(spec, samples, derive_seed(seed, k))
        if not verdict.holds:
            member_failures.append({"function": spec.source, "witness": verdict.witness})
    non_member_misses = []
    for spec in inversion_family():
        witness = find_minmax_violation(spec, check_increasing(spec))
        if witness is None or not verify_witness(spec, witness, "minmax_equation"):
            non_member_misses.append(spec.source)
    return CriterionResult(
        "minmax_equivalence",
        passed=not member_failures and not non_member_misses,
        details={
            "samples": samples,
            "member_failures": member_failures,
            "non_member_misses": non_member_misses,
        },
    )


def triplet_and_subadditivity(samples: int = 10_000, seed: int = 0) -> CriterionResult:
    """The extended Cantor function passes both sampled functional tests; the
    square fails the triplet test on the fixed probe (1, 1, 2)."""
    cantor = parse_function_spec("cantor_hat(t)")
    square = parse_function_spec("t * t")
    triplet = check_triplet_preservation(cantor, samples, derive_seed(seed, 0))
    subadd = check_subadditive(cantor, samples, derive_seed(seed, 1))
    square_verdict = check_triplet_preservation(square, samples, derive_seed(seed, 2))
    square_witness_ok = (
        square_verdict.fails
        and (square_verdict.witness["p"], square_verdict.witness["q"], square_verdict.witness["l"])
        == (1.0, 1.0, 2.0)
    )
    return CriterionResult(
        "triplet_and_subadditivity",
        passed=triplet.holds and subadd.holds and square_witness_ok,
        details={
            "cantor_triplet": triplet.to_json(),
            "cantor_subadditive": subadd.to_json(),
            "square_triplet": square_verdict.to_json(),
        },
    )


def cantor_values(grid_points: int = 10_000) -> CriterionResult:
    """Anchor values of the extended Cantor function plus grid monotonicity,
    all evaluated in one batch."""
    tol = 2.0**-50
    grid = np.linspace(0.0, 2.0, grid_points)
    at_0, at_2, at_1, at_third, at_quarter, *on_grid = parse_function_spec("cantor_hat(t)").values(
        np.concatenate([[0.0, 2.0, 1.0, 1.0 / 3.0, 0.25], grid])).tolist()
    checks = {
        "at_0": at_0 == 0.0,
        "at_2": at_2 == 1.0,
        "at_1": at_1 == 1.0,
        "at_third": abs(at_third - 0.5) <= tol,
        "at_quarter": abs(at_quarter - 1.0 / 3.0) <= tol,
        "monotone_on_grid": all(a <= b for a, b in zip(on_grid, on_grid[1:])),
    }
    return CriterionResult(
        "cantor_values",
        passed=all(checks.values()),
        details={"checks": checks, "grid_points": grid_points},
    )


def net_oracle_equivalence(
    n_spaces: int = 200, max_points: int = 10, seed: int = 0
) -> CriterionResult:
    """Greedy covering numbers agree with the exhaustive minimum net."""
    rng = np.random.default_rng(seed)
    mismatches = []
    for _ in range(n_spaces):
        n = int(rng.integers(2, max_points + 1))
        space = random_ultrametric(n, int(rng.integers(2**63)))
        d = space.dist
        dmax = float(d.max())
        dmin = float(d[d > 0].min())
        spectrum_pick = float(rng.choice(np.unique(d[d > 0])))
        for eps in (dmin / 2.0, spectrum_pick, (dmin + dmax) / 2.0, dmax, 2.0 * dmax):
            greedy = covering_number(space, eps)
            brute = minimum_covering_number(space, eps)
            if greedy != brute:
                mismatches.append({"n": n, "eps": eps, "greedy": greedy, "brute": brute})
    return CriterionResult(
        "net_oracle_equivalence",
        passed=not mismatches,
        details={"spaces": n_spaces, "mismatches": mismatches},
    )


def run_suite(config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run every criterion, scaled by the config where it has a knob."""
    results = (
        forward_preservation(config.trials, config.max_points, derive_seed(config.seed, 11)),
        witness_synthesis(),
        strongly_preserving_criterion(),
        covering_divergence(),
        universal_embedding(2 * config.trials, derive_seed(config.seed, 12)),
        minmax_equivalence(config.budget, derive_seed(config.seed, 13)),
        triplet_and_subadditivity(config.budget, derive_seed(config.seed, 14)),
        cantor_values(),
        net_oracle_equivalence(
            max(1, (2 * config.trials) // 5),
            min(config.max_points, 10),
            derive_seed(config.seed, 15),
        ),
    )
    return SuiteReport(results=results, config=config)
