"""Analytic property probes for function specs.

A verdict holds or fails with a witness. `Holds` with ``exact=True`` means
a fact of the `expr.facts` fold decided the property; otherwise `Holds` only
means "no violation within the probe budget". `FailsWithWitness` always
carries a witness that `verify_witness` reproduces by replaying its check, so a
failing verdict is exact by construction. Sampled checks take an explicit
seed, recorded in the verdict for replay; violation selection is
order-independent (fixed probes first, then the lexicographically smallest
sampled violation), so samples may be evaluated concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .expr import FunctionSpec, UndefinedValue, breakpoints

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


def _first_nonamenable(spec: FunctionSpec, grid: np.ndarray) -> tuple[Optional[dict], int]:
    """The witness of the amenability rule on a sorted grid from 0, or None,
    and the points it took. One walk; f(0) != 0 decides first, as if read
    alone, then the first t > 0 with f(t) <= 0."""
    values, errors = spec.try_values(grid)
    if errors and (0 in errors or values[0] == 0.0):
        raise errors[min(errors)]
    bad = np.flatnonzero(np.where(grid == 0.0, values != 0.0, values <= 0.0))
    if not bad.size:
        return None, len(grid)
    k = int(bad[0])
    return {"t": float(grid[k]), "f_t": float(values[k])}, k + 1


def check_amenable(spec: FunctionSpec) -> PropertyVerdict:
    """f(0) = 0 and f > 0 on (0, inf).

    The grid runs even when the facts fold proves f > 0: the proof reasons
    over the reals, and a value that underflows to 0 in floats still fails.
    A grid-clean `holds` is exact when the proof applies.
    """
    witness, used = _first_nonamenable(spec, probe_points(spec, include_zero=True))
    if witness is not None:
        return PropertyVerdict(Status.FAILS, witness, used, exact=True)
    return PropertyVerdict(Status.HOLDS, None, used, exact=spec.facts.positive)


def _first_inversion(spec: FunctionSpec, grid: np.ndarray) -> Optional[dict]:
    """The smallest t1 of a sorted grid with any later, smaller value, paired
    with the first such t2, or None."""
    values = spec.values(grid)
    suffix_min = np.minimum.accumulate(values[::-1])[::-1]  # min(values[k:])
    inverted = np.flatnonzero(values[:-1] > suffix_min[1:])
    if not inverted.size:
        return None
    i = inverted[0]
    j = i + 1 + np.flatnonzero(values[i + 1:] < values[i])[0]
    return {"t1": float(grid[i]), "f_t1": float(values[i]),
            "t2": float(grid[j]), "f_t2": float(values[j])}


def check_increasing(spec: FunctionSpec) -> PropertyVerdict:
    """Monotone nondecreasing on [0, inf) ("increasing" in the weak sense),
    witnessed by the first inversion on the grid."""
    if spec.facts.up:
        return PropertyVerdict(Status.HOLDS, None, 0, exact=True)
    grid = probe_points(spec, include_zero=True)
    witness = _first_inversion(spec, grid)
    status = Status.HOLDS if witness is None else Status.FAILS
    return PropertyVerdict(status, witness, len(grid), exact=witness is not None)


class SampledCheck(NamedTuple):
    """f is evaluated at `points(rows)`, and `holds` must accept each row's
    image; a witness zips `keys` with a row and its image. `fixed` rows first."""

    points: Callable[[np.ndarray], np.ndarray]
    holds: Callable
    keys: tuple[str, ...]
    fixed: tuple[tuple[float, ...], ...]

    def replay(self, spec: FunctionSpec, witness: dict) -> Optional[dict]:
        """The check on the witness's own row, which must be finite and an
        instance of the hypothesis: the identity keeps `holds` on it."""
        row = np.array([[witness[k] for k in self.keys[:len(self.fixed[0])]]], dtype=float)
        with np.errstate(all="ignore"):
            instance = np.isfinite(row).all() and self.holds(*self.points(row).T).all()
        return _first_violation(spec, self, row) if instance else None


def _image(spec: FunctionSpec, check: SampledCheck, rows: np.ndarray):
    """One walk: every row's image, the mask of rows whose image breaks the
    check (an overflowing sum decides as inf, silently), and the errors."""
    points = check.points(rows)
    values, errors = spec.try_values(points.ravel())
    image = values.reshape(points.shape)
    with np.errstate(all="ignore"):
        return image, ~check.holds(*image.T), errors


def _first_violation(spec: FunctionSpec, check: SampledCheck, rows: np.ndarray) -> Optional[dict]:
    """Witness for the lexicographically smallest row of the 2-d array rows
    whose image breaks the check, or None; the first error raises."""
    image, bad, errors = _image(spec, check, rows)
    if errors:
        raise errors[min(errors)]
    if not bad.any():
        return None
    rows, image = rows[bad], image[bad]
    k = np.lexsort(rows.T[::-1])[0]  # lexsort's primary key is its last
    return dict(zip(check.keys, rows[k].tolist() + image[k].tolist()))


def _scan_probes(
    spec: FunctionSpec, check: SampledCheck, sampled: np.ndarray, seed: int
) -> PropertyVerdict:
    """The fixed rows in one walk, where the first row in order that errs or
    violates decides; only if none does, the sampled rows in another."""
    fixed = np.array(check.fixed, dtype=float)
    image, bad, errors = _image(spec, check, fixed)
    violating = np.flatnonzero(bad[:min(errors) // image.shape[1] if errors else None])
    if violating.size:
        k = violating[0]
        witness = dict(zip(check.keys, fixed[k].tolist() + image[k].tolist()))
        return PropertyVerdict(Status.FAILS, witness, int(k) + 1, exact=True, seed=seed)
    if errors:
        raise errors[min(errors)]
    w = _first_violation(spec, check, sampled)
    status = Status.HOLDS if w is None else Status.FAILS
    return PropertyVerdict(status, w, len(fixed) + len(sampled), exact=w is not None, seed=seed)


def log_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Log-uniform magnitudes 2**U(-30, 30), the scale of every sampled probe."""
    return 2.0 ** rng.uniform(-30.0, 30.0, size=size)


SUBADDITIVE = SampledCheck(
    lambda pairs: np.column_stack([pairs, pairs[:, 0] + pairs[:, 1]]),  # x, y, x + y
    lambda fx, fy, fs: ~(fs > fx + fy),  # an undefined sum (inf - inf) is no violation
    ("x", "y", "f_x", "f_y", "f_sum"), ((0.0, 0.0), (1.0, 1.0)),
)


def check_subadditive(
    spec: FunctionSpec, budget: int = DEFAULT_SAMPLE_BUDGET, seed: int = 0
) -> PropertyVerdict:
    """f(x+y) <= f(x) + f(y) on fixed probes, (b/2, b/2) at each piece
    breakpoint b > 0 (a jump that log-uniform pairs rarely straddle) and
    seeded log-uniform pairs."""
    anchored = tuple((b / 2, b / 2) for b in breakpoints(spec.root) if b > 0)
    rng = np.random.default_rng(seed)
    check = SUBADDITIVE._replace(fixed=SUBADDITIVE.fixed + anchored)
    return _scan_probes(spec, check, log_uniform(rng, (budget, 2)), seed)


def _continuity_break(spec: FunctionSpec, t: float) -> Optional[dict]:
    """The witness that f(0) differs from its exact right limit at 0, or None."""
    f0, limit = spec(0.0), spec.facts.limit
    if limit != limit:
        raise UndefinedValue(f"{spec.source} has no computable right limit at 0")
    if limit == f0:
        return None
    return {"t": t, "f_t": spec(t), "f_0": f0, "right_limit": limit}


def check_continuous_at_zero(spec: FunctionSpec) -> PropertyVerdict:
    """lim_{t -> 0+} f(t) = f(0).

    The right limit at 0 exists over the reals for every tree in the grammar
    (all combiners are continuous and all atoms have known limits), and the
    facts fold computes it, so the verdict is exact; the dyadic probe 2**-60
    only furnishes the witness. A limit the fold cannot compute (inf - inf,
    or a fractional power of a negative limit) raises UndefinedValue.
    """
    witness = _continuity_break(spec, 2.0**-60)
    status = Status.HOLDS if witness is None else Status.FAILS
    return PropertyVerdict(status, witness, 1 if witness is None else 2, exact=True)


def inf_on_positive(spec: FunctionSpec) -> InfimumBound:
    """Infimum of f over (0, inf); exact when the facts fold decides it.

    A nondecreasing tree starts at its right limit at 0; a piecewise spec
    whose pieces each rise has the least of their infima: the right limit at
    0 of the first, and each other's value at its left end where that end is
    closed or the expression continuous.
    """
    exact = spec.facts.inf
    if exact is not None:
        return InfimumBound(exact, True)
    estimate = min(spec.values(probe_points(spec)).tolist())
    return InfimumBound(estimate, False)


def verify_witness(spec: FunctionSpec, witness: dict, key: str) -> bool:
    """True when a check behind verdict `key` of a classification report,
    replayed on the witness's own points, reproduces the witness exactly;
    False, never an error, for any other witness."""
    from .classify import MINMAX_EQUATION, TRIANGLE_TRIPLET

    replays = {
        "ultrametric_preserving": (_replay_increasing, _replay_amenable),
        "strongly_preserving": (_replay_increasing, _replay_amenable, _replay_continuity),
        "metric_preserving_sufficient": (_replay_increasing, SUBADDITIVE.replay),
        "triplet_preservation": (TRIANGLE_TRIPLET.replay,),
        "minmax_equation": (MINMAX_EQUATION.replay,),
    }[key]
    for replay in replays:
        try:
            if replay(spec, witness) == witness:
                return True
        except (ValueError, KeyError, TypeError):
            pass
    return False


def _replay_increasing(spec: FunctionSpec, w: dict) -> Optional[dict]:
    return _first_inversion(spec, np.unique([w["t1"], w["t2"]]))


def _replay_amenable(spec: FunctionSpec, w: dict) -> Optional[dict]:
    return _first_nonamenable(spec, np.unique([0.0, w["t"]]))[0]


def _replay_continuity(spec: FunctionSpec, w: dict) -> Optional[dict]:
    return _continuity_break(spec, w["t"])
