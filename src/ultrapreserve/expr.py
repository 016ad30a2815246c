"""Expression trees for distance transforms f : [0, inf) -> [0, inf).

The node set is deliberately small: nonnegative constants, the variable t,
sums, differences, products, powers with a fixed nonnegative exponent, binary
min/max, the extended Cantor step function, positive jump functions, and
piecewise definitions over a partition of [0, inf).

Trees are immutable after construction; evaluation and all analyses are pure,
so specs can be shared freely between concurrent tasks. One walker evaluates a
tree: it visits each node once for a whole array of points, and gives at each
point the bits, or the error, of a scalar walk in Python floats.

Static analyses: one fold, `facts(node)`, derives from the leaves up what is
known of a tree without a grid: its constant value, whether it is >= 0 on
[0, inf) and > 0 on (0, inf), whether it rises or falls, its right limit at
0, its infimum over (0, inf) where those decide it, and the first subtree
that folds to a negative constant. Its proofs reason over the reals and hold
in floats because rounding is monotone; a difference l - r rises when l
rises and r falls, and a piecewise tree rises when every piece does and the
values at each inner boundary rise. The checks read the record: `up` skips
the monotonicity grid, `positive` marks a grid-clean amenability verdict
exact, `limit` decides continuity at 0 and `inf` the infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

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


class Facts(NamedTuple):
    """What the fold proves of a tree on [0, inf). A proof holds over the
    reals and, since rounding is monotone, in floats wherever f is defined;
    a false fact is only unproven."""

    const: Optional[float]  # the value of a tree without t, else None
    nonneg: bool  # f >= 0 on [0, inf)
    positive: bool  # f > 0 on (0, inf) over the reals; a float product may underflow to 0
    up: bool  # nondecreasing on [0, inf)
    down: bool  # nonincreasing on [0, inf)
    limit: float  # lim f(t) as t -> 0+, NaN where the fold cannot compute it
    inf: Optional[float]  # inf of f over (0, inf) where the facts decide it, else None
    continuous: bool  # continuous on (0, inf) where defined: no piecewise glue below
    first_negative: Optional[Node]  # first subtree (preorder) that folds to a negative constant


# Constants and right limits combine as a scalar walk combines values.
_SCALAR = {Sum: lambda a, b: a + b, Difference: lambda a, b: a - b,
           Product: lambda a, b: a * b, Min: min, Max: max}


def facts(node: Node) -> Facts:
    """The facts of the tree, from one bottom-up fold over its nodes.

    Constants fold in Python floats, left operands first, bit for bit as the
    walker evaluates them; an undefined one raises the walker's
    UndefinedValue, before any subtree is tested for a negative constant.
    """
    with np.errstate(all="ignore"):
        return _fold(node)


def _fold(node: Node) -> Facts:
    kids = [_fold(child) for child in children(node)]
    if isinstance(node, Piecewise):
        return _fold_piecewise(node, kids)
    if isinstance(node, Const):
        v = node.value
        const, nonneg, positive, up, down, limit = v, v >= 0, v > 0, True, True, v
    elif isinstance(node, (Var, CantorHat)):  # G(t) >= G(3**-k) = 2**-k > 0 for t > 0
        const, nonneg, positive, up, down, limit = None, True, True, True, False, 0.0
    elif isinstance(node, StepAbove):
        h = node.height
        const, nonneg, positive, up, down, limit = None, h >= 0, h > 0, h >= 0, h <= 0, h
    elif isinstance(node, Power):
        (base,), p = kids, node.exponent
        const = None if base.const is None else _pow(base.const, p)
        flat = p == 0  # x**0 == 1, 0**0 and nan**0 included
        nonneg, positive = flat or base.nonneg, flat or base.positive
        up = flat or (p > 0 and base.nonneg and base.up)
        down = flat or (p > 0 and base.nonneg and base.down)
        try:
            limit = _pow(base.limit, p)
        except UndefinedValue:
            limit = math.nan
    else:
        left, right = kids
        op = _SCALAR[type(node)]
        const = None if left.const is None or right.const is None else op(left.const, right.const)
        nonneg, positive, up, down = _combine(node, left, right)
        limit = op(left.limit, right.limit)
        if isinstance(node, Product) and {abs(left.limit), abs(right.limit)} == {0.0, INF}:
            limit = 0.0  # a zero factor beats an overflowed one, finite over the reals
    if const is not None:
        up = down = True
        nonneg, positive = nonneg or const >= 0, positive or const > 0
    return Facts(
        const, nonneg, positive, up, down, limit,
        inf=limit if up and limit == limit else None,  # a nondecreasing f starts at its infimum
        continuous=all(k.continuous for k in kids),
        first_negative=node if const is not None and const < 0 else _first_negative(kids),
    )


def _combine(node: Node, left: Facts, right: Facts) -> tuple[bool, bool, bool, bool]:
    """(nonneg, positive, up, down) of a binary node from its operands' facts."""
    if isinstance(node, Difference):  # l - r rises as l rises and r falls
        return False, False, left.up and right.down, left.down and right.up
    up, down = left.up and right.up, left.down and right.down
    if isinstance(node, Max):
        return left.nonneg or right.nonneg, left.positive or right.positive, up, down
    nonneg, positive = left.nonneg and right.nonneg, left.positive and right.positive
    if isinstance(node, Sum):  # one term > 0 and both >= 0 on (0, inf)
        positive = (left.positive or right.positive) and all(
            k.positive or k.nonneg for k in (left, right))
    if isinstance(node, Product):  # factors scale each other monotonically only when >= 0
        up, down = up and nonneg, down and nonneg
    return nonneg, positive, up, down


def _first_negative(kids: list[Facts]) -> Optional[Node]:
    return next((k.first_negative for k in kids if k.first_negative is not None), None)


def _fold_piecewise(node: Piecewise, kids: list[Facts]) -> Facts:
    """Pieces meet at their boundary values. With every piece nondecreasing
    and f_i(b) <= f_{i+1}(b) at each inner boundary b, t < b < s gives
    f_i(t) <= f_i(b) <= f_{i+1}(b) <= f_{i+1}(s), with no continuity needed;
    the same holds downwards. A value that is undefined proves nothing."""
    ends = [_ends(piece) for piece in node.pieces]
    joints = [(a[1], b[0]) for a, b in zip(ends, ends[1:])]
    defined = all(x is not None and y is not None for x, y in joints)
    up = all(k.up for k in kids) and defined and all(x <= y for x, y in joints)
    down = all(k.down for k in kids) and defined and all(x >= y for x, y in joints)
    live = [(p, k, e[0]) for p, k, e in zip(node.pieces, kids, ends) if p.upper > 0]
    return Facts(
        None, all(k.nonneg for k in kids), all(k.positive for _, k, _ in live), up, down,
        limit=live[0][1].limit,  # the first piece meeting (0, delta)
        inf=_piecewise_inf(live), continuous=False, first_negative=_first_negative(kids),
    )


def _ends(piece: Piece) -> tuple[Optional[float], Optional[float]]:
    """The piece's expression at its finite ends, from one walk; None where
    it is undefined."""
    ts = np.array([piece.lower, piece.upper] if math.isfinite(piece.upper) else [piece.lower])
    values, errors = _evaluate_many(piece.expr, ts)
    ends = [None if k in errors or v != v else v for k, v in enumerate(values.tolist())]
    return ends[0], ends[-1] if len(ends) == 2 else None


def _piecewise_inf(live) -> Optional[float]:
    """Infimum over (0, inf) when every piece meeting it is nondecreasing:
    the least of each piece's right limit at 0 or value at its left end. A
    value at an open end is the piece's infimum only if the expression is
    continuous there."""
    values = []
    for piece, k, at_lower in live:
        if not k.up:
            return None
        if piece.lower == 0.0:
            values.append(k.limit if k.limit == k.limit else None)
        else:
            values.append(at_lower if piece.closed_lower or k.continuous else None)
    return None if None in values else min(values)
