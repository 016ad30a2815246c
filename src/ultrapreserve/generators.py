"""Constructors for finite ultrametric spaces.

Covers random dendrogram-based spaces, finite samples of the two universal
spaces (max-of-values on the half-line and max-of-coordinates on the pairs
with a zero coordinate), the totally-bounded-but-non-compact level family,
and the two proof-construction triangles. All generators are pure given
(seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .spaces import FiniteSemimetricSpace

LEVEL_SNAP_BITS = 21  # levels are snapped to k/2**21: exact dyadic floats


class DuplicateValue(ValueError):
    pass


class DuplicatePoint(ValueError):
    pass


class NotInDomain(ValueError):
    pass


class InvalidParameters(ValueError):
    pass


@dataclass(frozen=True)
class UniversalPoint:
    """Coordinate pair (s, t) with min(s, t) = 0."""

    s: float
    t: float

    def __post_init__(self):
        if min(self.s, self.t) != 0 or self.s < 0 or self.t < 0:
            raise NotInDomain(f"({self.s}, {self.t}) needs a zero coordinate")
        if not math.isfinite(max(self.s, self.t)):
            raise NotInDomain(f"({self.s}, {self.t}) needs finite coordinates")

    def label(self) -> str:
        return f"({repr(self.s)},{repr(self.t)})"


@dataclass(frozen=True)
class LevelSequence:
    """Strictly decreasing positive levels r_1 > r_2 > ... > r_N."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v <= 0 for v in vals):
            raise InvalidParameters("levels must be positive")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise InvalidParameters("levels must be strictly decreasing")


def snapped_levels(rng: np.random.Generator, count: int, distribution: str = "log2-uniform") -> list[float]:
    """Distinct positive levels snapped to the dyadic grid k/2**21.

    Snapping keeps every level exactly representable and keeps distinct
    levels at least 2**-21 apart, which protects downstream exact-comparison
    predicates from float noise.
    """
    found: dict[float, None] = {}
    while len(found) < count:
        if distribution == "log2-uniform":
            raw = 2.0 ** rng.uniform(-20.0, 20.0, size=count)
        elif distribution == "uniform":
            raw = rng.uniform(0.0, 1.0, size=count)
        else:
            raise ValueError(f"unknown level distribution {distribution!r}")
        snapped = np.ldexp(np.round(np.ldexp(raw, LEVEL_SNAP_BITS)), -LEVEL_SNAP_BITS)
        for v in snapped:
            if v > 0:
                found.setdefault(float(v), None)
    return list(found)[:count]


def random_ultrametric(
    n: int, seed: int = 0, level_distribution: str = "log2-uniform"
) -> FiniteSemimetricSpace:
    """Random ultrametric space from a random binary merge tree.

    Merges happen at strictly increasing levels; the distance of two points
    is the level at which their clusters merge, so the output satisfies the
    strong triangle inequality by construction (at most n-1 distinct values).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    labels = tuple(f"x{i}" for i in range(n))
    d = np.zeros((n, n))
    if n == 1:
        return FiniteSemimetricSpace(labels, d)
    rng = np.random.default_rng(seed)
    levels = sorted(snapped_levels(rng, n - 1, level_distribution))
    clusters = [[i] for i in range(n)]
    for level in levels:
        i = int(rng.integers(len(clusters)))
        j = int(rng.integers(len(clusters) - 1))
        if j >= i:
            j += 1
        for a in clusters[i]:
            for b in clusters[j]:
                d[a, b] = d[b, a] = level
        keep, drop = min(i, j), max(i, j)
        clusters[keep].extend(clusters[drop])
        del clusters[drop]
    return FiniteSemimetricSpace(labels, d)


def dplus_space(values: Iterable[float]) -> FiniteSemimetricSpace:
    """Finite sample of the half-line under d(p, q) = max(p, q) for p != q."""
    vals = [float(v) for v in values]
    outside = [v for v in vals if not 0.0 <= v < math.inf]
    if outside:
        raise NotInDomain(f"values must be finite and >= 0, got {outside[0]!r}")
    if len(set(vals)) != len(vals):
        raise DuplicateValue("values must be distinct")
    n = len(vals)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = max(vals[i], vals[j])
    return FiniteSemimetricSpace(tuple(repr(v) for v in vals), d)


def dplus2_space(points: Iterable[Union[UniversalPoint, tuple]]) -> FiniteSemimetricSpace:
    """Finite sample of the zero-coordinate pairs under the max-of-coordinates
    ultrametric: d((s1,t1),(s2,t2)) = max(s1, t1, s2, t2) for distinct points."""
    pts = [p if isinstance(p, UniversalPoint) else UniversalPoint(*p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("points must be distinct")
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = max(pts[i].s, pts[i].t, pts[j].s, pts[j].t)
    return FiniteSemimetricSpace(tuple(p.label() for p in pts), d)


def tbu_noncompact_truncation(
    n_levels: int, ratio: float = 0.5, include_mirrored: bool = False
) -> tuple[FiniteSemimetricSpace, LevelSequence]:
    """First n_levels points (0, r_n), r_n = ratio**n, of the level family
    whose untruncated version is totally bounded but not compact.

    `include_mirrored` adds the (r_n, 0) points, giving equilateral triangles
    at each level.
    """
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio!r}")
    levels = [ratio**k for k in range(1, n_levels + 1)]
    seq = LevelSequence(tuple(levels))
    pts: list[UniversalPoint] = []
    for r in levels:
        pts.append(UniversalPoint(0.0, r))
        if include_mirrored:
            pts.append(UniversalPoint(r, 0.0))
    return dplus2_space(pts), seq


def triangle_equilateral(c: float) -> FiniteSemimetricSpace:
    """3-point space with all sides c."""
    if not 0 < c < math.inf:
        raise InvalidParameters(f"side must be positive and finite, got {c!r}")
    d = np.array([[0.0, c, c], [c, 0.0, c], [c, c, 0.0]])
    return FiniteSemimetricSpace(("x1", "x2", "x3"), d)


def triangle_isosceles(c1: float, c2: float) -> FiniteSemimetricSpace:
    """3-point space with d(x1,x2) = d(x2,x3) = c2 and d(x1,x3) = c1.

    Requires 0 < c1 <= c2: the two largest sides are equal, so the space is
    ultrametric.
    """
    if not (0 < c1 <= c2 < math.inf):
        raise InvalidParameters(f"need 0 < c1 <= c2 < inf, got ({c1!r}, {c2!r})")
    d = np.array([[0.0, c2, c1], [c2, 0.0, c2], [c1, c2, 0.0]])
    return FiniteSemimetricSpace(("x1", "x2", "x3"), d)
