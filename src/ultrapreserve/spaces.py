"""Finite semimetric spaces as labeled distance matrices.

Distances are 64-bit floats and every predicate compares exactly (no
tolerance): inputs are constructed, not measured, and the fixtures are dyadic
rationals. Violation reporting is deterministic: the lexicographically first
violating ordered triple wins. Spaces are immutable after construction and
safe to share between concurrent tasks.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import FunctionSpec

ISOMETRY_MAX_POINTS = 8  # 8! = 40320 permutations keeps exhaustive search trivial
BRUTE_NET_MAX_POINTS = 12
# Below this size the O(n^2) Prim prescreen of is_ultrametric saves at most
# ~0.2 ms a call over the cubic scan, and a rejected prescreen adds its cost to it.
PRIM_MIN_POINTS = 72


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


class NonpositiveOffDiagonal(SpaceValidationError):
    def __init__(self, i, j, value):
        super().__init__(f"off-diagonal entry ({i},{j}) = {float(value)!r}, expected > 0")
        self.indices = (i, j)


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
    mirrored entry. One vectorised mask flags every failing entry, and the
    first flagged one in row-major order raises.
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
    flagged = ~np.isfinite(m)
    flagged |= np.eye(n, dtype=bool) & (m != 0.0)
    flagged |= np.triu((m <= 0.0) | (m != m.T), 1)
    if flagged.any():
        _raise_entry_error(m, *divmod(int(flagged.argmax()), n))
    return FiniteSemimetricSpace(labels, m)


def _raise_entry_error(m: np.ndarray, i: int, j: int) -> None:
    """Raise the error of the first check that entry (i, j) fails."""
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


def _equals_subdominant(d: np.ndarray) -> bool:
    """True iff a finite symmetric d equals its subdominant ultrametric.

    Prim's algorithm runs from point 0. When v joins the tree through its
    nearest tree point p at w = d[v, p], the subdominant distance from v to a
    tree point t is max(w, d[p, t]) once d[p, t] is known to be subdominant;
    every entry is at least its subdominant value, so the row check
    d[v, tree] <= max(w, d[p, tree]) keeps d equal to it. Only comparisons
    and max are involved, so True is exact in floats. A failed check names
    the violating triple (v, t, p) of distinct points.
    """
    n = d.shape[0]
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    key = d[0].copy()  # distance from each outside point to the tree
    key[0] = np.inf
    parent = np.zeros(n, dtype=np.intp)
    for _ in range(n - 1):
        v = int(key.argmin())
        row = d[v]
        if ((row > np.maximum(d[parent[v]], key[v])) & ~outside).any():
            return False
        outside[v] = False
        key[v] = np.inf
        closer = (row < key) & outside
        key[closer] = row[closer]
        parent[closer] = v
    return True


def is_ultrametric(space: FiniteSemimetricSpace) -> tuple[bool, Optional[TripleViolation]]:
    """True iff every triple of distinct points has d(x,y) <= max(d(x,z), d(z,y)).

    From PRIM_MIN_POINTS points on, a finite symmetric matrix is first
    checked in O(n^2) against its subdominant ultrametric; a pass is exact,
    and anything else takes the cubic scan that locates the first violation.
    """
    d = space.dist
    if (len(d) >= PRIM_MIN_POINTS and np.isfinite(d).all()
            and np.array_equal(d, d.T) and _equals_subdominant(d)):
        return True, None
    violation = _first_violating_triple(d, np.maximum, "strong_triangle")
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
    return tuple(np.unique(space.dist[iu]).tolist())


def min_positive_distance(space: FiniteSemimetricSpace) -> float:
    """Minimum off-diagonal distance; the space is eps-uniformly-discrete
    exactly for eps below this value."""
    if len(space) < 2:
        raise TooFewPoints("min_positive_distance needs at least 2 points")
    iu = np.triu_indices(len(space), 1)
    return float(space.dist[iu].min())


def apply_function(space: FiniteSemimetricSpace, f: FunctionSpec) -> FiniteSemimetricSpace:
    """Entrywise image f(d); requires f amenable on the spectrum of d.

    0 and the spectrum are evaluated in one batch, so equal inputs produce
    bit-equal outputs; the first point where f fails or is not amenable, in
    the order 0 and then the ascending spectrum, raises as a scalar scan would.
    """
    iu = np.triu_indices(len(space), 1)
    spectrum, inverse = np.unique(space.dist[iu], return_inverse=True)
    ts = np.concatenate(([0.0], spectrum))
    image, errors = f.try_values(ts)
    bad = ~(image > 0.0) | ~np.isfinite(image)
    bad[0] = image[0] != 0.0
    bad[list(errors)] = True
    if bad.any():
        k = int(bad.argmax())
        raise errors.get(k) or NotAmenableOnSpectrum(float(ts[k]), float(image[k]))
    out = np.zeros_like(space.dist)
    out[iu] = out.T[iu] = image[1:][inverse]
    return FiniteSemimetricSpace(space.labels, out)


def _check_radius(space: FiniteSemimetricSpace, eps: float) -> None:
    """Raise ValueError unless eps > 0 and every ball of radius eps covers
    its own centre (d(i, i) <= eps, which a zero diagonal gives)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    uncovered = np.flatnonzero(~(np.diagonal(space.dist) <= eps))
    if uncovered.size:
        i = int(uncovered[0])
        raise ValueError(
            f"diagonal entry ({i},{i}) = {float(space.dist[i, i])!r} exceeds eps = {eps!r}: "
            "the ball around that point does not cover it"
        )


def covering_number(space: FiniteSemimetricSpace, eps: float) -> int:
    """Size of a greedy net of closed eps-balls.

    The greedy net repeatedly centers a ball at the lowest-index uncovered
    point. For ultrametric spaces closed balls of a fixed radius partition
    the space, so the greedy net is minimum.
    """
    _check_radius(space, eps)
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
    _check_radius(space, eps)
    n = len(space)
    if n > max_points:
        raise TooLarge(f"brute-force net search refused for n = {n} > {max_points}")
    if n == 0:
        return 0
    # ball i as a bitmask: bit j is set iff d(i, j) <= eps
    balls = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in space.dist <= eps]
    everything = (1 << n) - 1
    for k in range(1, n + 1):
        for centers in itertools.combinations(balls, k):
            if functools.reduce(operator.or_, centers) == everything:
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

