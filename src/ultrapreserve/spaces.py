"""Finite semimetric spaces as labeled distance matrices.

Distances are 64-bit floats and every predicate compares exactly (no
tolerance): inputs are constructed, not measured, and the fixtures are dyadic
rationals. Violation reporting is deterministic: the lexicographically first
violating ordered triple wins. Spaces are immutable after construction and
safe to share between concurrent tasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import FunctionSpec

ISOMETRY_MAX_POINTS = 8  # 8! = 40320 permutations keeps exhaustive search trivial
BRUTE_NET_MAX_POINTS = 12


class SpaceValidationError(ValueError):
    """Base class for distance-matrix validation failures."""


class NotSquare(SpaceValidationError):
    pass


class NonFiniteEntry(SpaceValidationError):
    def __init__(self, i, j, value):
        super().__init__(f"entry ({i},{j}) is not finite: {float(value)!r}")
        self.indices = (i, j)


class AsymmetricEntry(SpaceValidationError):
    def __init__(self, i, j, value, mirrored):
        super().__init__(
            f"entry ({i},{j}) = {float(value)!r} but ({j},{i}) = {float(mirrored)!r}"
        )
        self.indices = (i, j)


class NonzeroDiagonal(SpaceValidationError):
    def __init__(self, i, value):
        super().__init__(f"diagonal entry ({i},{i}) = {float(value)!r}, expected 0")
        self.indices = (i, i)
        self.value = value


class NonpositiveOffDiagonal(SpaceValidationError):
    def __init__(self, i, j, value):
        super().__init__(f"off-diagonal entry ({i},{j}) = {float(value)!r}, expected > 0")
        self.indices = (i, j)
        self.value = value


class TooFewPoints(ValueError):
    pass


class TooLarge(ValueError):
    pass


class NotAmenableOnSpectrum(ValueError):
    def __init__(self, value, image):
        super().__init__(
            f"f({value!r}) = {image!r}: transform would not yield a semimetric"
        )
        self.value = value
        self.image = image


@dataclass(frozen=True, eq=False)
class FiniteSemimetricSpace:
    """Labeled point set with a symmetric nonnegative distance matrix.

    The constructor freezes but does not validate; `validate_space` is the
    checked entry point. Unvalidated construction is deliberate: witness
    certificates need to carry degenerate image matrices (for example with a
    vanished off-diagonal entry) to exhibit exactly how a transform fails.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.dist, dtype=float)
        matrix.setflags(write=False)
        object.__setattr__(self, "dist", matrix)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSemimetricSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.dist, other.dist)


@dataclass(frozen=True)
class TripleViolation:
    """One ordered triple (i, j, k) with lhs > rhs in the violated inequality."""

    indices: tuple[int, int, int]
    lhs: float
    rhs: float
    kind: str  # "strong_triangle" | "triangle"

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "indices": list(self.indices),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class PositivityViolation:
    """A vanished (or negative) off-diagonal entry in an image matrix."""

    i: int
    j: int
    value: float

    def to_json(self) -> dict:
        return {"type": "positivity", "indices": [self.i, self.j], "value": self.value}


def validate_space(matrix, labels: Optional[Sequence[str]] = None) -> FiniteSemimetricSpace:
    """Validate a raw matrix, reporting the first violated invariant.

    Entries are scanned in row-major order; per entry the checks are
    finiteness, zero diagonal, positivity (i < j), then symmetry against the
    mirrored entry.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise SpaceValidationError(f"{len(labels)} labels for a {n}-point matrix")
    if len(set(labels)) != n:
        raise SpaceValidationError("labels must be distinct")
    for i in range(n):
        for j in range(n):
            v = m[i, j]
            if not np.isfinite(v):
                raise NonFiniteEntry(i, j, v)
            if i == j:
                if v != 0.0:
                    raise NonzeroDiagonal(i, v)
            elif i < j:
                if v <= 0.0:
                    raise NonpositiveOffDiagonal(i, j, v)
                if m[j, i] != v:
                    raise AsymmetricEntry(i, j, v, m[j, i])
    return FiniteSemimetricSpace(labels, m)


def _first_violating_triple(d: np.ndarray, combine, kind: str) -> Optional[TripleViolation]:
    """Lexicographically first triple (i, j, k) of distinct points with
    d[i, j] > combine(d[i, k], d[k, j]), one numpy comparison per first index."""
    n = d.shape[0]
    columns = np.ascontiguousarray(d.T)  # columns[j, k] = d[k, j]
    for i in range(n):
        bad = d[i][:, None] > combine(d[i][None, :], columns)  # bad[j, k]
        if not bad.any():
            continue
        bad[i, :] = False
        bad[:, i] = False
        np.fill_diagonal(bad, False)
        j, k = divmod(int(bad.argmax()), n)
        if bad[j, k]:
            rhs = float(combine(d[i, k], d[k, j]))
            return TripleViolation((i, j, k), float(d[i, j]), rhs, kind)
    return None


def is_ultrametric(space: FiniteSemimetricSpace) -> tuple[bool, Optional[TripleViolation]]:
    """True iff every triple of distinct points has d(x,y) <= max(d(x,z), d(z,y))."""
    violation = _first_violating_triple(space.dist, np.maximum, "strong_triangle")
    return violation is None, violation


def is_metric(space: FiniteSemimetricSpace) -> tuple[bool, Optional[TripleViolation]]:
    """True iff every triple of distinct points has d(x,y) <= d(x,z) + d(z,y)."""
    violation = _first_violating_triple(space.dist, np.add, "triangle")
    return violation is None, violation


def distance_spectrum(space: FiniteSemimetricSpace) -> tuple[float, ...]:
    """Sorted distinct off-diagonal distances."""
    n = len(space)
    if n < 2:
        return ()
    iu = np.triu_indices(n, 1)
    return tuple(float(v) for v in np.unique(space.dist[iu]))


def min_positive_distance(space: FiniteSemimetricSpace) -> float:
    """Minimum off-diagonal distance; the space is eps-uniformly-discrete
    exactly for eps below this value."""
    if len(space) < 2:
        raise TooFewPoints("min_positive_distance needs at least 2 points")
    iu = np.triu_indices(len(space), 1)
    return float(space.dist[iu].min())


def apply_function(space: FiniteSemimetricSpace, f: FunctionSpec) -> FiniteSemimetricSpace:
    """Entrywise image f(d); requires f amenable on the spectrum of d.

    Distances are mapped through a value table built from the spectrum, so
    equal inputs always produce bit-equal outputs.
    """
    f0 = f(0.0)
    if f0 != 0.0:
        raise NotAmenableOnSpectrum(0.0, f0)
    table = {}
    for v in distance_spectrum(space):
        fv = f(v)
        if not (fv > 0.0) or not np.isfinite(fv):
            raise NotAmenableOnSpectrum(v, fv)
        table[v] = fv
    out = np.zeros_like(space.dist)
    for v, fv in table.items():
        out[space.dist == v] = fv
    return FiniteSemimetricSpace(space.labels, out)


def covering_number(space: FiniteSemimetricSpace, eps: float) -> int:
    """Size of a greedy net of closed eps-balls.

    The greedy net repeatedly centers a ball at the lowest-index uncovered
    point. For ultrametric spaces closed balls of a fixed radius partition
    the space, so the greedy net is minimum.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    d = space.dist
    covered = np.zeros(len(space), dtype=bool)
    count = 0
    for i in range(len(space)):
        if not covered[i]:
            count += 1
            covered |= d[i] <= eps
    return count


def minimum_covering_number(
    space: FiniteSemimetricSpace, eps: float, max_points: int = BRUTE_NET_MAX_POINTS
) -> int:
    """Exhaustive minimum net size over all center subsets (small n only)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    n = len(space)
    if n > max_points:
        raise TooLarge(f"brute-force net search refused for n = {n} > {max_points}")
    if n == 0:
        return 0
    within = space.dist <= eps
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if within[list(centers)].any(axis=0).all():
                return k
    raise RuntimeError("a net of all points always covers")  # unreachable


def are_isometric_small(
    a: FiniteSemimetricSpace, b: FiniteSemimetricSpace
) -> tuple[bool, Optional[dict]]:
    """Exhaustive label-bijection isometry test for n <= 8.

    Returns the first matching bijection in lexicographic permutation order.
    """
    if len(a) > ISOMETRY_MAX_POINTS or len(b) > ISOMETRY_MAX_POINTS:
        raise TooLarge(f"isometry search refused above {ISOMETRY_MAX_POINTS} points")
    if len(a) != len(b):
        return False, None
    if distance_spectrum(a) != distance_spectrum(b):
        return False, None
    n = len(a)
    for perm in itertools.permutations(range(n)):
        idx = list(perm)
        if np.array_equal(a.dist, b.dist[np.ix_(idx, idx)]):
            return True, {a.labels[i]: b.labels[perm[i]] for i in range(n)}
    return False, None


def subspace(space: FiniteSemimetricSpace, indices: Sequence[int]) -> FiniteSemimetricSpace:
    """Restriction to a subset of points (order preserved)."""
    idx = list(indices)
    return FiniteSemimetricSpace(
        tuple(space.labels[i] for i in idx), space.dist[np.ix_(idx, idx)]
    )
