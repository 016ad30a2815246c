"""Expression trees for distance transforms f : [0, inf) -> [0, inf).

The node set is deliberately small: nonnegative constants, the variable t,
sums, differences, products, powers with a fixed nonnegative exponent, binary
min/max, the extended Cantor step function, positive jump functions, and
piecewise definitions over a partition of [0, inf).

Trees are immutable after construction; evaluation and all analyses are pure,
so specs can be shared freely between concurrent tasks. One walker evaluates a
tree: it visits each node once for a whole array of points, and gives at each
point the bits, or the error, of a scalar walk in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

INF = math.inf

# Ternary digits scanned by the Cantor evaluator. Beyond 64 digits the input
# resolution of a double is long exhausted; the truncation error is < 2**-64.
CANTOR_DIGITS = 64


class FunctionSpecError(ValueError):
    """Base class for parse- and evaluation-time failures of function specs."""


class NegativeInput(FunctionSpecError):
    def __init__(self, t: float):
        super().__init__(f"function specs are defined on [0, inf); got t = {t!r}")
        self.t = t


class DomainGap(FunctionSpecError):
    """Piecewise pieces fail to form a partition of [0, inf)."""


class UndefinedValue(FunctionSpecError):
    """The expression has no real value at some point (a negative base under
    a fractional power, or inf - inf and 0 * inf in float arithmetic)."""


# ---------------------------------------------------------------------------
# Node types


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The single free variable t."""


@dataclass(frozen=True)
class Sum:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Difference:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Product:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: float


@dataclass(frozen=True)
class Min:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Max:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class CantorHat:
    """Extended Cantor function: ternary Cantor function on [0,1], 1 above."""


@dataclass(frozen=True)
class StepAbove:
    """0 at t = 0, the constant `height` on (0, inf)."""

    height: float


@dataclass(frozen=True)
class Piece:
    lower: float
    upper: float
    closed_lower: bool
    closed_upper: bool
    expr: "Node"

    def contains(self, t):
        """Membership of a float, or elementwise of an array of floats."""
        lo_ok = t >= self.lower if self.closed_lower else t > self.lower
        hi_ok = t <= self.upper if self.closed_upper else t < self.upper
        return lo_ok & hi_ok

    def is_empty(self) -> bool:
        if self.lower > self.upper:
            return True
        if self.lower == self.upper:
            return not (self.closed_lower and self.closed_upper)
        return False


@dataclass(frozen=True)
class Piecewise:
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        _validate_partition(self.pieces)


Node = Union[
    Const, Var, Sum, Difference, Product, Power, Min, Max, CantorHat, StepAbove, Piecewise
]


def _validate_partition(pieces: tuple[Piece, ...]) -> None:
    """Pieces must be sorted, disjoint, and cover [0, inf) exactly."""
    if not pieces:
        raise DomainGap("piecewise spec has no pieces")
    for p in pieces:
        if p.lower < 0:
            raise DomainGap(f"piece starts below 0: {p.lower}")
        if p.is_empty():
            raise DomainGap(f"empty piece [{p.lower}, {p.upper}]")
        if math.isinf(p.upper) and p.closed_upper:
            raise DomainGap("unbounded piece must be open at inf")
    first = pieces[0]
    if first.lower != 0 or not first.closed_lower:
        raise DomainGap("pieces must start with a piece containing 0")
    for prev, cur in zip(pieces, pieces[1:]):
        if prev.upper != cur.lower:
            raise DomainGap(
                f"gap or overlap between pieces at {prev.upper} vs {cur.lower}"
            )
        if prev.closed_upper == cur.closed_lower:
            which = "both cover" if prev.closed_upper else "neither covers"
            raise DomainGap(f"{which} the boundary point {prev.upper}")
    if not math.isinf(pieces[-1].upper):
        raise DomainGap(f"pieces end at {pieces[-1].upper}, not inf")


# ---------------------------------------------------------------------------
# Evaluation


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return INF
    except ValueError:
        raise UndefinedValue(f"pow({base!r}, {exponent!r}) has no real value") from None


def _cantor_hat_many(ts: np.ndarray) -> np.ndarray:
    """Extended Cantor function at every point of ts in [0, inf): G(t) on
    [0, 1], constant 1 above.

    Ternary digits of t are extracted by repeated multiplication by 3 (round
    to nearest); the usual digit-halving rule maps them to binary digits of
    the result, stopping at the first ternary digit equal to 1. The rounding
    in the digit loop keeps near-triadic inputs (such as float(1/3)) on the
    value of the intended rational; the 64-digit cap bounds the truncation
    error by 2**-64. Each step runs on the points still scanning.
    """
    out = np.where(ts >= 1.0, 1.0, 0.0)
    idx = np.flatnonzero((ts > 0.0) & (ts < 1.0))
    x = ts[idx]
    acc = np.zeros(len(idx), dtype=np.uint64)
    for k in range(1, CANTOR_DIGITS + 1):
        if not idx.size:
            break
        x = x * 3.0
        d = np.minimum(x.astype(np.int64), 2)  # x reaches 3.0 only by rounding
        x = x - d
        acc = (acc << 1) | (d > 0).astype(np.uint64)  # digit 1 -> 1, 2 -> 1, 0 -> 0
        done = (d == 1) | (x == 0.0)
        out[idx[done]] = np.ldexp(acc[done].astype(float), -k)
        idx, x, acc = idx[~done], x[~done], acc[~done]
    out[idx] = np.ldexp(acc.astype(float), -CANTOR_DIGITS)
    return out


# Points per Python-level pass of _pow_many. It bounds the Python floats alive
# at once: one list over all 10**4 sampled points cost the classify benchmark
# about 1 MB of peak RSS.
_POW_CHUNK = 1024


def _pow_many(base: np.ndarray, exponent: float) -> tuple[np.ndarray, dict]:
    """`_pow` per element, since `np.power` differs from `math.pow` in the
    last ulp; the UndefinedValue of each failing element goes into the
    errors, keyed by its index."""
    values = np.full(base.shape, math.nan)
    errors = {}
    for start in range(0, base.size, _POW_CHUNK):
        for k, b in enumerate(base[start:start + _POW_CHUNK].tolist(), start):
            try:
                values[k] = _pow(b, exponent)
            except UndefinedValue as exc:
                errors[k] = UndefinedValue(*exc.args)  # a fresh copy holds no traceback
    return values, errors


# In-place combiners: the left operand's array becomes the result. Python's
# min(a, b) and max(a, b) return a unless b compares strictly below (above)
# it, which fixes the result on ties, signed zeros and NaN.
_COMBINE_INTO = {
    Sum: lambda a, b: np.add(a, b, out=a),
    Difference: lambda a, b: np.subtract(a, b, out=a),
    Product: lambda a, b: np.multiply(a, b, out=a),
    Min: lambda a, b: np.copyto(a, b, where=b < a),
    Max: lambda a, b: np.copyto(a, b, where=b > a),
}


def _evaluate_many(node: Node, ts: np.ndarray) -> tuple[np.ndarray, dict]:
    """The tree at every point of the 1-d float array ts, in one walk; run it
    under np.errstate(all="ignore"), once per walk, not per node.

    Returns the values, each bit-identical to a scalar walk in Python floats
    (math.pow, Python's min and max, the Cantor digit loop) at its point, and
    the errors: a dict from the index of each point where that walk raises to
    the exception it raises there first. Left operands come before right
    ones, and operands before their node's own pow. Values at those points
    mean nothing. Each piecewise piece is evaluated only on its own points.
    """
    if isinstance(node, Const):
        return np.full(ts.shape, node.value, dtype=float), {}
    if isinstance(node, Var):
        return ts.copy(), {}
    if isinstance(node, StepAbove):
        return np.where(ts == 0.0, 0.0, node.height), {}
    if isinstance(node, CantorHat):
        return _cantor_hat_many(ts), {}
    if isinstance(node, Power):
        base, errors = _evaluate_many(node.base, ts)
        values, pow_errors = _pow_many(base, node.exponent)
        return values, {**pow_errors, **errors}
    if isinstance(node, Piecewise):
        values = np.full(ts.shape, math.nan)
        errors = {}
        uncovered = np.ones(ts.shape, dtype=bool)
        for piece in node.pieces:
            idx = np.flatnonzero(piece.contains(ts))
            if idx.size:
                values[idx], piece_errors = _evaluate_many(piece.expr, ts[idx])
                errors.update((int(idx[k]), exc) for k, exc in piece_errors.items())
                uncovered[idx] = False
        for k in np.flatnonzero(uncovered).tolist():  # t = inf, or outside [0, inf)
            errors[k] = FunctionSpecError(f"no piece covers t = {float(ts[k])!r}")
        return values, errors
    combine_into = _COMBINE_INTO.get(type(node))
    if combine_into is None:
        raise TypeError(f"unknown node {node!r}")
    values, errors = _evaluate_many(node.left, ts)
    right, right_errors = _evaluate_many(node.right, ts)
    combine_into(values, right)
    return values, {**right_errors, **errors}


@np.errstate(all="ignore")
def value_at(node: Node, t: float) -> float:
    """The tree at the one point t >= 0, NaN included; raises what a scalar
    walk raises there."""
    values, errors = _evaluate_many(node, np.array([t], dtype=float))
    if errors:
        raise errors[0]
    return float(values[0])


# ---------------------------------------------------------------------------
# Rendering (round-trips through the parser)

_PREC_SUM = 1
_PREC_PRODUCT = 2
_PREC_ATOM = 3


def _render(node: Node, parent_prec: int) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, (Sum, Difference)):
        op = "+" if isinstance(node, Sum) else "-"
        # the parser is left-associative: parenthesize sums on the right
        text = f"{_render(node.left, _PREC_SUM)} {op} {_render(node.right, _PREC_SUM + 1)}"
        return f"({text})" if parent_prec > _PREC_SUM else text
    if isinstance(node, Product):
        text = f"{_render(node.left, _PREC_PRODUCT)} * {_render(node.right, _PREC_PRODUCT + 1)}"
        return f"({text})" if parent_prec > _PREC_PRODUCT else text
    if isinstance(node, Power):
        return f"pow({_render(node.base, _PREC_SUM)}, {repr(node.exponent)})"
    if isinstance(node, Min):
        return f"min({_render(node.left, _PREC_SUM)}, {_render(node.right, _PREC_SUM)})"
    if isinstance(node, Max):
        return f"max({_render(node.left, _PREC_SUM)}, {_render(node.right, _PREC_SUM)})"
    if isinstance(node, CantorHat):
        return "cantor_hat(t)"
    if isinstance(node, StepAbove):
        return f"step_above({repr(node.height)})"
    if isinstance(node, Piecewise):
        parts = []
        for p in node.pieces:
            lo = "[" if p.closed_lower else "("
            hi = "]" if p.closed_upper else ")"
            up = "inf" if math.isinf(p.upper) else repr(p.upper)
            parts.append(f"{lo}{repr(p.lower)},{up}{hi}: {_render(p.expr, _PREC_SUM)}")
        return "piecewise { " + "; ".join(parts) + " }"
    raise TypeError(f"unknown node {node!r}")


def to_text(node: Node) -> str:
    return _render(node, _PREC_SUM)


# ---------------------------------------------------------------------------
# FunctionSpec


@dataclass(frozen=True)
class FunctionSpec:
    """Parsed, evaluable description of a transform f : [0, inf) -> [0, inf)."""

    root: Node
    source: str

    def __call__(self, t: float) -> float:
        return float(self.values([t])[0])

    def values(self, ts) -> np.ndarray:
        """f at every point of ts, as a float array of the shape of ts, from
        one walk of the tree. Where f fails, the failure at the first failing
        point (in C order) raises."""
        ts = np.asarray(ts, dtype=float)
        values, errors = self.try_values(ts.ravel())
        if errors:
            raise errors[min(errors)]
        return values.reshape(ts.shape)

    @np.errstate(all="ignore")
    def try_values(self, ts: np.ndarray) -> tuple[np.ndarray, dict]:
        """f at every point of the 1-d float array ts, from one walk, and the
        errors: a dict from the index of each point where f fails to what it
        raises there. A t outside [0, inf), NaN included, fails first, then
        what the walk meets, then a NaN value. Values at those points mean
        nothing."""
        values, errors = _evaluate_many(self.root, ts)
        for k in np.flatnonzero(np.isnan(values)).tolist():
            t = float(ts[k])
            errors.setdefault(k, UndefinedValue(f"{self.source} is undefined (NaN) at t = {t!r}"))
        for k in np.flatnonzero(~(ts >= 0.0)).tolist():
            errors[k] = NegativeInput(float(ts[k]))
        return values, errors

    @classmethod
    def from_node(cls, node: Node) -> "FunctionSpec":
        return cls(node, to_text(node))


# ---------------------------------------------------------------------------
# Static analyses


def children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, (Sum, Difference, Product, Min, Max)):
        return (node.left, node.right)
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, Piecewise):
        return tuple(p.expr for p in node.pieces)
    return ()


def walk(node: Node):
    yield node
    for child in children(node):
        yield from walk(child)


def fold_constant(node: Node) -> Optional[float]:
    """Value of a constant subtree, or None if it depends on t."""
    if any(isinstance(sub, (Var, CantorHat, StepAbove, Piecewise)) for sub in walk(node)):
        return None
    return value_at(node, 0.0)


def first_negative_fold(node: Node) -> Optional[Node]:
    """First subtree (preorder) that folds to a negative constant. Every
    subtree is folded before any is tested, so an undefined constant anywhere
    raises ahead of a negative one."""
    folds = [(sub, fold_constant(sub)) for sub in walk(node)]
    return next((sub for sub, v in folds if v is not None and v < 0), None)


def breakpoints(node: Node) -> tuple[float, ...]:
    """Finite piece boundaries anywhere in the tree, sorted ascending."""
    points: set[float] = set()
    for sub in walk(node):
        if isinstance(sub, Piecewise):
            for p in sub.pieces:
                points.add(p.lower)
                if math.isfinite(p.upper):
                    points.add(p.upper)
    return tuple(sorted(points))


def nonneg_certified(node: Node) -> bool:
    """True when the tree cannot produce a negative value for any t >= 0.

    Every node type except Difference maps nonnegative inputs to nonnegative
    outputs, so the certificate is simply the absence of subtraction (plus
    nonnegative literals, which the parser already enforces).
    """
    for sub in walk(node):
        if isinstance(sub, Difference):
            return False
        if isinstance(sub, Const) and sub.value < 0:
            return False
        if isinstance(sub, StepAbove) and sub.height < 0:
            return False
        if isinstance(sub, Power) and sub.exponent < 0:
            return False
    return True


def positive_certified(node: Node) -> bool:
    """True when the tree is provably > 0 everywhere on (0, inf)."""
    if isinstance(node, Const):
        return node.value > 0
    if isinstance(node, Var):
        return True
    if isinstance(node, CantorHat):
        return True  # G(t) >= G(3**-k) = 2**-k > 0 for t > 0
    if isinstance(node, StepAbove):
        return node.height > 0
    if isinstance(node, Sum):
        l, r = node.left, node.right
        if not (nonneg_certified(l) and nonneg_certified(r)):
            return False
        return positive_certified(l) or positive_certified(r)
    if isinstance(node, Product):
        return positive_certified(node.left) and positive_certified(node.right)
    if isinstance(node, Min):
        return positive_certified(node.left) and positive_certified(node.right)
    if isinstance(node, Max):
        return positive_certified(node.left) or positive_certified(node.right)
    if isinstance(node, Power):
        if node.exponent == 0:
            return True  # x**0 == 1, including 0**0
        return node.exponent > 0 and positive_certified(node.base)
    if isinstance(node, Piecewise):
        return all(
            positive_certified(p.expr) for p in node.pieces if p.upper > 0
        )
    return False


def monotone_certified(node: Node) -> bool:
    """True when the tree is provably nondecreasing on [0, inf).

    Sound for trees built from nondecreasing nonnegative atoms under
    sum / product / min / max / power; subtraction and piecewise glue
    defeat the certificate and fall back to numeric probing.
    """
    if isinstance(node, (Const, Var, CantorHat)):
        return True
    if isinstance(node, StepAbove):
        return node.height >= 0
    if isinstance(node, (Sum, Min, Max)):
        return monotone_certified(node.left) and monotone_certified(node.right)
    if isinstance(node, Product):
        return (
            monotone_certified(node.left)
            and monotone_certified(node.right)
            and nonneg_certified(node.left)
            and nonneg_certified(node.right)
        )
    if isinstance(node, Power):
        return node.exponent >= 0 and monotone_certified(node.base) and nonneg_certified(node.base)
    return False


def right_limit_at_zero(node: Node) -> float:
    """Exact lim_{t -> 0+} of the expression.

    Every combiner in the grammar (sum, difference, product, min, max, power
    with fixed exponent) is continuous, and every atom has a known right
    limit at 0, so the limit always exists and is computed exactly.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return 0.0
    if isinstance(node, CantorHat):
        return 0.0
    if isinstance(node, StepAbove):
        return node.height
    if isinstance(node, Sum):
        return right_limit_at_zero(node.left) + right_limit_at_zero(node.right)
    if isinstance(node, Difference):
        return right_limit_at_zero(node.left) - right_limit_at_zero(node.right)
    if isinstance(node, Product):
        return right_limit_at_zero(node.left) * right_limit_at_zero(node.right)
    if isinstance(node, Power):
        return _pow(right_limit_at_zero(node.base), node.exponent)
    if isinstance(node, Min):
        return min(right_limit_at_zero(node.left), right_limit_at_zero(node.right))
    if isinstance(node, Max):
        return max(right_limit_at_zero(node.left), right_limit_at_zero(node.right))
    if isinstance(node, Piecewise):
        for p in node.pieces:
            if p.upper > 0:  # first piece intersecting (0, delta)
                return right_limit_at_zero(p.expr)
        raise DomainGap("no piece intersects (0, inf)")  # unreachable
    raise TypeError(f"unknown node {node!r}")
