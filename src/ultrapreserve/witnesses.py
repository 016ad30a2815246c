"""Counterexample synthesis and three-point universal embeddings.

A transform that fails to preserve ultrametrics already fails on a space of
at most three points, and the failure is always one of three shapes: a
planted zero (an equilateral triangle whose image loses positivity), an
inversion (an isosceles triangle whose image breaks the strong triangle
inequality) or a nonzero f(0) (the one-point space, whose image has a
nonzero diagonal). The certificate renders the witness of classify's
ultrametric-preserving verdict, so `witness` and `classify` decide alike,
and its image is f of every entry of its source space. A transform that
preserves ultrametrics but not the topology is bounded away from zero on
(0, inf); pushing the geometric level family through it makes the covering
number at a fixed scale grow linearly with the truncation size while the
source covering number stays constant. Certificates store both matrices and
re-verify exactly by replaying the rule that built them.
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
from .parser import parse_function_spec
from .properties import inf_on_positive
from .spaces import (
    FiniteSemimetricSpace,
    PositivityViolation,
    TripleViolation,
    apply_function,
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
    """Render the failing ultrametric-preserving verdict of `classify` as a
    space of at most three points whose image under f is not ultrametric.

    A zero f(t) <= 0 at t > 0 maps the equilateral triangle of side t; an
    inversion t1 < t2 with f(t1) > f(t2) maps the isosceles triangle
    (t1, t2, t2); a nonzero f(0) lands on the diagonal of the one-point
    space. An inversion from t1 = 0 with f(0) = 0 has f(t2) < 0, a zero at
    t2. The image is f of every entry, the diagonal included, and its first
    defect is the violation. Returns None exactly when the verdict holds.
    """
    verdict = classify_ultrametric_preserving(spec)
    if verdict.holds:
        return None
    w = verdict.witness
    if w.get("t1", 0.0) > 0.0:
        parameters = {"c1": w["t1"], "c2": w["t2"]}
    else:  # f(0) != 0, or a zero at t > 0; from t1 = 0, f(0) != 0 or f(t2) < f(0) = 0
        t = w["t"] if "t" in w else 0.0 if w["f_t1"] != 0.0 else w["t2"]
        parameters = {"c": t} if t > 0.0 else {}
    before = _space_before(parameters)
    after = _space_after(before, spec)
    kind, violation = _first_defect(after)
    return WitnessCertificate(kind, spec.source, before, after, violation, parameters)


def _space_before(parameters: dict) -> FiniteSemimetricSpace:
    """The one-point space, the equilateral triangle of side c or the
    isosceles triangle (c1, c2, c2)."""
    if not parameters:
        return FiniteSemimetricSpace(("x1",), [[0.0]])
    if parameters.keys() == {"c"}:
        return triangle_equilateral(parameters["c"])
    return triangle_isosceles(parameters["c1"], parameters["c2"])


def _space_after(before: FiniteSemimetricSpace, spec: FunctionSpec) -> FiniteSemimetricSpace:
    """f of every entry, the diagonal included, from one walk."""
    return FiniteSemimetricSpace(before.labels, spec.values(before.dist))


def _first_defect(space: FiniteSemimetricSpace):
    """The certificate kind and violation of the first way `space` is not an
    ultrametric space: its first violating triple, else the first entry in
    row-major order that is a nonzero diagonal or a nonpositive off-diagonal
    value; None when there is none."""
    ok, triple = is_ultrametric(space)
    if not ok:
        return "isosceles_inversion", triple
    d = space.dist
    bad = np.flatnonzero(np.where(np.eye(len(d), dtype=bool), d != 0.0, ~(d > 0.0)))
    if not bad.size:
        return None
    i, j = divmod(int(bad[0]), len(d))
    if i == j:
        return "nonzero_diagonal", {"type": "nonzero_diagonal", "indices": [i, i],
                                    "value": float(d[i, i])}
    return "equilateral_zero", PositivityViolation(i, j, float(d[i, j]))


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
    after = apply_function(before, spec)
    parameters = {"inf_bound": a, "levels": n_levels, "ratio": 0.5,
                  "level_sequence": list(levels.values)}
    return WitnessCertificate("covering_divergence", spec.source, before, after,
                              _covering_table(before, after, a), parameters)


def _covering_table(before: FiniteSemimetricSpace, after: FiniteSemimetricSpace, a: float) -> dict:
    """Covering numbers of the source at 1/4 and of the image at a/2."""
    return {
        "type": "covering_table",
        "eps_before": COVERING_EPS_BEFORE,
        "covering_before": covering_number(before, COVERING_EPS_BEFORE),
        "eps_after": a / 2.0,
        "covering_after": covering_number(after, a / 2.0),
        "levels": len(before),
    }


def verify_certificate(cert: WitnessCertificate) -> bool:
    """True when replaying the rule that built the certificate reproduces
    every stored part exactly; False, never an error, otherwise. The source
    space must be a valid ultrametric and the image f of its every entry; a
    pu certificate's source is the space its parameters name and its kind
    and violation are the image's first defect; a covering certificate's
    source is the truncation its levels and ratio rebuild, with its level
    sequence, and its table is recounted."""
    try:
        spec = parse_function_spec(cert.function)
        before = validate_space(cert.space_before.dist, cert.space_before.labels)
        after = _space_after(before, spec)
        if not is_ultrametric(before)[0] or cert.space_after != after:
            return False
        if cert.kind == "covering_divergence":
            p = cert.parameters
            if p["levels"] != len(before):  # first, so a forged count builds nothing
                return False
            source, levels = tbu_noncompact_truncation(p["levels"], p["ratio"])
            table = _covering_table(before, after, p["inf_bound"])
            return (before == source and p["level_sequence"] == list(levels.values)
                    and cert.violation == table and table["covering_after"] == len(before))
        return (cert.space_before == _space_before(cert.parameters)
                and (cert.kind, cert.violation) == _first_defect(after))
    except (ValueError, KeyError, TypeError, AttributeError):
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
