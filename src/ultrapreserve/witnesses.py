"""Counterexample synthesis and three-point universal embeddings.

A transform that fails to preserve ultrametrics already fails on a three-point
space, and the failure is always one of three shapes: a planted zero (an
equilateral triangle whose image loses positivity), an inversion (an
isosceles triangle whose image breaks the strong triangle inequality) or a
nonzero f(0) (an equilateral triangle whose image has a nonzero diagonal). A
transform that preserves ultrametrics but not the topology is bounded away
from zero on (0, inf); pushing the geometric level family through it makes
the covering number at a fixed scale grow linearly with the truncation size
while the source covering number stays constant. Certificates store both
matrices and re-verify exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .classify import classify_ultrametric_preserving
from .expr import FunctionSpec
from .generators import (
    InvalidParameters,
    LevelSequence,
    UniversalPoint,
    dplus2_space,
    tbu_noncompact_truncation,
    triangle_equilateral,
    triangle_isosceles,
)
from .matrix_io import space_to_dict
from .properties import inf_on_positive, probe_points
from .spaces import (
    FiniteSemimetricSpace,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    PositivityViolation,
    TripleViolation,
    are_isometric_small,
    covering_number,
    distance_spectrum,
    is_ultrametric,
    validate_space,
)

COVERING_EPS_BEFORE = 2.0**-2


class PreconditionFailed(ValueError):
    pass


class NotUltrametric(ValueError):
    pass


class WrongSize(ValueError):
    pass


class SpectrumNotEmbeddable(ValueError):
    pass


@dataclass(frozen=True)
class WitnessCertificate:
    # "equilateral_zero" | "isosceles_inversion" | "nonzero_diagonal" | "covering_divergence"
    kind: str
    function: str
    space_before: FiniteSemimetricSpace
    space_after: FiniteSemimetricSpace
    violation: Union[TripleViolation, PositivityViolation, dict]
    parameters: dict

    def to_json(self) -> dict:
        from . import __version__

        violation = (
            self.violation if isinstance(self.violation, dict) else self.violation.to_json()
        )
        return {
            "tool": "ultrapreserve",
            "version": __version__,
            "kind": self.kind,
            "function": self.function,
            "parameters": self.parameters,
            "space_before": space_to_dict(self.space_before),
            "space_after": space_to_dict(self.space_after),
            "violation": violation,
        }


def witness_not_ultrametric_preserving(spec: FunctionSpec) -> Optional[WitnessCertificate]:
    """Search the shared probe grid for a 3-point space whose image under f
    is not ultrametric.

    Zeros first (smallest c with f(c) <= 0 wins), then the lexicographically
    first inversion (c1, c2): the smallest c1 with a later, smaller value,
    paired with the first such c2. When the grid holds neither, a nonzero
    f(0) still breaks the image: it lands on the diagonal. Returns None when
    f(0) = 0 as well.
    """
    grid = probe_points(spec)
    values = spec.values(grid)

    zeros = np.flatnonzero(values <= 0.0)
    if zeros.size:
        c, fc = float(grid[zeros[0]]), float(values[zeros[0]])
        violation = PositivityViolation(0, 1, fc)
        return _equilateral_image(spec, "equilateral_zero", c, 0.0, fc, violation)

    suffix_min = np.minimum.accumulate(values[::-1])[::-1]  # min(values[k:])
    inverted = np.flatnonzero(values[:-1] > suffix_min[1:])
    if not inverted.size:
        f0 = spec(0.0)
        if f0 == 0.0:
            return None
        # side c: the largest grid point <= 1 whose image is finite, so the
        # certificate serializes; 1 itself unless f(1) overflows
        finite = np.flatnonzero((grid <= 1.0) & np.isfinite(values))
        k = finite[-1] if finite.size else np.searchsorted(grid, 1.0)
        c, fc = float(grid[k]), float(values[k])
        violation = {"type": "nonzero_diagonal", "indices": [0, 0], "value": f0}
        return _equilateral_image(spec, "nonzero_diagonal", c, f0, fc, violation)
    i = inverted[0]
    j = i + 1 + np.flatnonzero(values[i + 1:] < values[i])[0]
    c1, c2, f1, f2 = float(grid[i]), float(grid[j]), float(values[i]), float(values[j])
    before = triangle_isosceles(c1, c2)
    after = FiniteSemimetricSpace(
        before.labels, [[0.0, f2, f1], [f2, 0.0, f2], [f1, f2, 0.0]]
    )
    ok, violation = is_ultrametric(after)
    if ok:
        raise RuntimeError("inversion image unexpectedly ultrametric")
    return WitnessCertificate(
        kind="isosceles_inversion",
        function=spec.source,
        space_before=before,
        space_after=after,
        violation=violation,
        parameters={"c1": c1, "c2": c2},
    )


def _equilateral_image(spec, kind, c, diagonal, side, violation) -> WitnessCertificate:
    """Certificate mapping the equilateral triangle of side c to the matrix
    with `diagonal` on the diagonal and `side` off it."""
    before = triangle_equilateral(c)
    after = FiniteSemimetricSpace(
        before.labels, [[diagonal, side, side], [side, diagonal, side], [side, side, diagonal]]
    )
    return WitnessCertificate(
        kind=kind,
        function=spec.source,
        space_before=before,
        space_after=after,
        violation=violation,
        parameters={"c": c},
    )


def witness_not_strongly_preserving(
    spec: FunctionSpec, n_levels: int = 8
) -> Optional[WitnessCertificate]:
    """Covering-number divergence certificate for a structure-preserving f
    that does not preserve the topology.

    Requires an exact positive lower bound a for f on (0, inf): then every
    image distance of the level family is >= a, so at scale a/2 each of the
    n_levels points is isolated, while the source covering number at the
    fixed scale 1/4 stays at 2 whatever the truncation. An inexact positive
    estimate is not trusted (returns None), since the argument needs the
    bound to hold on all of (0, inf).
    """
    if n_levels < 4:
        raise InvalidParameters(f"need at least 4 levels, got {n_levels}")
    if not classify_ultrametric_preserving(spec).holds:
        raise PreconditionFailed(
            "covering divergence applies to ultrametric-preserving transforms only"
        )
    bound = inf_on_positive(spec)
    if not bound.exact or bound.estimate <= 0.0:
        return None
    a = bound.estimate
    before, levels = tbu_noncompact_truncation(n_levels, ratio=0.5)
    from .spaces import apply_function

    after = apply_function(before, spec)
    eps_after = a / 2.0
    cov_before = covering_number(before, COVERING_EPS_BEFORE)
    cov_after = covering_number(after, eps_after)
    table = {
        "type": "covering_table",
        "eps_before": COVERING_EPS_BEFORE,
        "covering_before": cov_before,
        "eps_after": eps_after,
        "covering_after": cov_after,
        "levels": n_levels,
    }
    return WitnessCertificate(
        kind="covering_divergence",
        function=spec.source,
        space_before=before,
        space_after=after,
        violation=table,
        parameters={"inf_bound": a, "levels": n_levels, "ratio": 0.5,
                    "level_sequence": list(levels.values)},
    )


def verify_certificate(cert: WitnessCertificate) -> bool:
    """Re-run the relevant predicate on space_after; True when it reproduces
    the recorded violation exactly."""
    if cert.kind == "equilateral_zero":
        try:
            validate_space(cert.space_after.dist, cert.space_after.labels)
        except NonpositiveOffDiagonal as exc:
            v = cert.violation
            return exc.indices == (v.i, v.j) and exc.value == v.value
        return False
    if cert.kind == "nonzero_diagonal":
        try:
            validate_space(cert.space_after.dist, cert.space_after.labels)
        except NonzeroDiagonal as exc:
            v = cert.violation
            return list(exc.indices) == v["indices"] and exc.value == v["value"]
        return False
    if cert.kind == "isosceles_inversion":
        ok, violation = is_ultrametric(cert.space_after)
        return (not ok) and violation == cert.violation
    if cert.kind == "covering_divergence":
        t = cert.violation
        return (
            covering_number(cert.space_before, t["eps_before"]) == t["covering_before"]
            and covering_number(cert.space_after, t["eps_after"]) == t["covering_after"]
            and t["covering_after"] == t["levels"]
        )
    return False


def _require_three_point_ultrametric(space: FiniteSemimetricSpace) -> tuple[float, ...]:
    if len(space) != 3:
        raise WrongSize(f"embedding needs a 3-point space, got {len(space)} points")
    ok, violation = is_ultrametric(space)
    if not ok:
        raise NotUltrametric(f"space is not ultrametric: {violation}")
    return distance_spectrum(space)


def embed_three_point_universal(
    space: FiniteSemimetricSpace,
) -> tuple[UniversalPoint, UniversalPoint, UniversalPoint]:
    """Isometric copy of a 3-point ultrametric space among the zero-coordinate
    pairs: {(0,0), (0,d1), (0,d2)} for a two-value spectrum and
    {(0,0), (0,d0), (d0,0)} for an equilateral one."""
    spectrum = _require_three_point_ultrametric(space)
    if len(spectrum) == 1:
        d0 = spectrum[0]
        pts = (UniversalPoint(0.0, 0.0), UniversalPoint(0.0, d0), UniversalPoint(d0, 0.0))
    else:
        d1, d2 = spectrum
        pts = (UniversalPoint(0.0, 0.0), UniversalPoint(0.0, d1), UniversalPoint(0.0, d2))
    ok, _ = are_isometric_small(space, dplus2_space(pts))
    if not ok:
        raise RuntimeError("embedding failed isometry verification")
    return pts


def _ratio_power_gap(small: float, big: float, ratio: float, max_power: int = 400) -> Optional[int]:
    """m >= 1 with small/big == ratio**m in exact rational arithmetic."""
    target = Fraction(small) / Fraction(big)
    step = Fraction(ratio)
    power = step
    for m in range(1, max_power + 1):
        if power == target:
            return m
        if power < target:
            return None
        power *= step
    return None


def embed_three_point_tbu(
    space: FiniteSemimetricSpace, ratio: float = 0.5
) -> tuple[tuple[UniversalPoint, UniversalPoint, UniversalPoint], LevelSequence]:
    """Isometric copy inside the totally-bounded-non-compact level family.

    Builds a geometric level sequence r_n = r_1 * ratio**(n-1) anchored at the
    largest spectrum value, so the spectrum sits inside the sequence range.
    The third point lives strictly below the spectrum levels. Spectra whose
    value ratio is not an exact power of `ratio` cannot be placed on the grid
    and raise SpectrumNotEmbeddable.
    """
    if not 0 < ratio < 1:
        raise InvalidParameters(f"ratio must lie in (0, 1), got {ratio!r}")
    spectrum = _require_three_point_ultrametric(space)
    if len(spectrum) == 1:
        d0 = spectrum[0]
        levels = [d0, d0 * ratio]
        pts = (UniversalPoint(0.0, d0), UniversalPoint(d0, 0.0), UniversalPoint(0.0, d0 * ratio))
    else:
        small, big = spectrum
        gap = _ratio_power_gap(small, big, ratio)
        if gap is None:
            raise SpectrumNotEmbeddable(
                f"{small!r}/{big!r} is not an exact power of {ratio!r}"
            )
        levels = [big]
        for _ in range(gap):
            levels.append(levels[-1] * ratio)
        levels[-1] = small  # equal by construction; anchor exactly
        levels.append(small * ratio)
        pts = (UniversalPoint(0.0, big), UniversalPoint(0.0, small),
               UniversalPoint(0.0, small * ratio))
    seq = LevelSequence(tuple(levels))
    ok, _ = are_isometric_small(space, dplus2_space(pts))
    if not ok:
        raise RuntimeError("embedding failed isometry verification")
    return pts, seq
