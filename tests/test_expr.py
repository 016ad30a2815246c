"""Expression evaluation, the extended Cantor function, and tree analyses.

The Cantor expectations are frozen from an exact-rational digit oracle
(`cantor_oracle` below), which extracts ternary digits of the intended
rational with integer arithmetic and never touches the float code path.
The batch walker is held to a scalar walker kept here (`evaluate`), which
computes one point at a time in Python floats: same bits, same first error.
The `facts` fold is held to the walker on the probe grid and to the
certifiers it replaced, kept here as the oracle that it loses nothing.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ultrapreserve.expr import (
    CANTOR_DIGITS,
    CantorHat,
    Const,
    Difference,
    FunctionSpec,
    FunctionSpecError,
    Max,
    Min,
    NegativeInput,
    UndefinedValue,
    Piece,
    Piecewise,
    Power,
    Product,
    StepAbove,
    Sum,
    Var,
    _evaluate_many,
    facts,
    to_text,
    walk as subtrees,
)
from ultrapreserve.properties import probe_points


# ---------------------------------------------------------------------------
# The scalar walker: the bit-identity oracle of the batch walker


def cantor_hat(t: float) -> float:
    """The Cantor digit loop on one Python float."""
    if t < 0:
        raise NegativeInput(t)
    if t >= 1.0:
        return 1.0
    if t == 0.0:
        return 0.0
    acc = 0
    x = t
    for k in range(1, CANTOR_DIGITS + 1):
        x *= 3.0
        d = int(x)
        if d > 2:  # only reachable if rounding pushes x to exactly 3.0
            d = 2
        x -= d
        if d == 1:
            acc = (acc << 1) | 1
            return math.ldexp(acc, -k)
        acc = (acc << 1) | (d >> 1)
        if x == 0.0:
            return math.ldexp(acc, -k)
    return math.ldexp(acc, -CANTOR_DIGITS)


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf
    except ValueError:
        raise UndefinedValue(f"pow({base!r}, {exponent!r}) has no real value") from None


def evaluate(node, t: float) -> float:
    """Value of the expression at t >= 0. Overflow saturates to +inf."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Sum):
        return evaluate(node.left, t) + evaluate(node.right, t)
    if isinstance(node, Difference):
        return evaluate(node.left, t) - evaluate(node.right, t)
    if isinstance(node, Product):
        return evaluate(node.left, t) * evaluate(node.right, t)
    if isinstance(node, Power):
        return _pow(evaluate(node.base, t), node.exponent)
    if isinstance(node, Min):
        return min(evaluate(node.left, t), evaluate(node.right, t))
    if isinstance(node, Max):
        return max(evaluate(node.left, t), evaluate(node.right, t))
    if isinstance(node, CantorHat):
        return cantor_hat(t)
    if isinstance(node, StepAbove):
        return 0.0 if t == 0.0 else node.height
    if isinstance(node, Piecewise):
        for piece in node.pieces:
            if piece.contains(t):
                return evaluate(piece.expr, t)
        raise FunctionSpecError(f"no piece covers t = {t!r}")
    raise TypeError(f"unknown node {node!r}")


def scalar_call(spec: FunctionSpec, t: float) -> float:
    """What `spec(t)` must do, one Python float at a time."""
    if not t >= 0:
        raise NegativeInput(t)
    value = evaluate(spec.root, t)
    if value != value:  # NaN
        raise UndefinedValue(f"{spec.source} is undefined (NaN) at t = {t!r}")
    return value


# ---------------------------------------------------------------------------
# The certifiers the facts fold replaced: the no-loss oracle of `facts`


def nonneg_certified(node) -> bool:
    """No subtraction, and nonnegative literals."""
    for sub in subtrees(node):
        if isinstance(sub, Difference):
            return False
        if isinstance(sub, Const) and sub.value < 0:
            return False
        if isinstance(sub, StepAbove) and sub.height < 0:
            return False
        if isinstance(sub, Power) and sub.exponent < 0:
            return False
    return True


def positive_certified(node) -> bool:
    if isinstance(node, Const):
        return node.value > 0
    if isinstance(node, (Var, CantorHat)):
        return True
    if isinstance(node, StepAbove):
        return node.height > 0
    if isinstance(node, Sum):
        l, r = node.left, node.right
        if not (nonneg_certified(l) and nonneg_certified(r)):
            return False
        return positive_certified(l) or positive_certified(r)
    if isinstance(node, (Product, Min)):
        return positive_certified(node.left) and positive_certified(node.right)
    if isinstance(node, Max):
        return positive_certified(node.left) or positive_certified(node.right)
    if isinstance(node, Power):
        if node.exponent == 0:
            return True
        return node.exponent > 0 and positive_certified(node.base)
    if isinstance(node, Piecewise):
        return all(positive_certified(p.expr) for p in node.pieces if p.upper > 0)
    return False


def monotone_certified(node) -> bool:
    if isinstance(node, (Const, Var, CantorHat)):
        return True
    if isinstance(node, StepAbove):
        return node.height >= 0
    if isinstance(node, (Sum, Min, Max)):
        return monotone_certified(node.left) and monotone_certified(node.right)
    if isinstance(node, Product):
        return (monotone_certified(node.left) and monotone_certified(node.right)
                and nonneg_certified(node.left) and nonneg_certified(node.right))
    if isinstance(node, Power):
        return node.exponent >= 0 and monotone_certified(node.base) and nonneg_certified(node.base)
    return False


def right_limit_at_zero(node) -> float:
    """Limits combined as values are; inf * 0 gives NaN."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, (Var, CantorHat)):
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
        return right_limit_at_zero(next(p.expr for p in node.pieces if p.upper > 0))
    raise TypeError(f"unknown node {node!r}")


G = FunctionSpec.from_node(CantorHat())
walk = np.errstate(all="ignore")(_evaluate_many)  # as FunctionSpec.try_values runs it


def cantor_oracle(x: Fraction, digits: int = 64) -> Fraction:
    """Cantor ternary function by exact rational digit extraction."""
    if x >= 1:
        return Fraction(1)
    if x <= 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    acc = Fraction(0)
    for k in range(1, digits + 1):
        num *= 3
        d, num = divmod(num, den)
        if d == 1:
            return acc + Fraction(1, 2**k)
        acc += Fraction(d // 2, 2**k)
        if num == 0:
            break
    return acc


# oracle sanity: the two headline rationals
assert cantor_oracle(Fraction(1, 3)) == Fraction(1, 2)
assert abs(cantor_oracle(Fraction(1, 4)) - Fraction(1, 3)) < Fraction(1, 2**60)


class TestCantorHat:
    def test_anchor_values(self):
        assert G(0.0) == 0.0
        assert G(1.0) == 1.0
        assert G(2.0) == 1.0
        assert G(100.0) == 1.0

    def test_one_third_is_one_half(self):
        # frozen from cantor_oracle(Fraction(1, 3)) == 1/2
        assert abs(G(1.0 / 3.0) - 0.5) <= 2.0**-50

    def test_one_quarter_is_one_third(self):
        # frozen from cantor_oracle(Fraction(1, 4)); exact digits cycle 0,2
        assert abs(G(0.25) - 1.0 / 3.0) <= 2.0**-50

    def test_plateau_values(self):
        # G is 1/2 on [1/3, 2/3] and 1/4 on [1/9, 2/9]
        assert G(0.5) == 0.5
        assert G(2.0 / 3.0) == 0.5
        assert abs(G(1.0 / 9.0) - 0.25) <= 2.0**-50
        assert abs(G(0.2) - 0.25) <= 2.0**-50

    def test_negative_input_rejected(self):
        with pytest.raises(NegativeInput):
            G(-0.5)

    def test_matches_rational_oracle_on_dyadics(self):
        ks = np.random.default_rng(20240811).integers(1, 2**40, size=200)
        values = G.values(ks / 2.0**40)
        for k, value in zip(ks.tolist(), values.tolist()):
            assert abs(value - float(cantor_oracle(Fraction(k, 2**40)))) <= 2.0**-28

    def test_symmetry_on_dyadic_grid(self):
        # G(x) + G(1 - x) = 1; dyadic x keeps 1 - x exactly representable
        x = np.random.default_rng(7).integers(1, 2**40, size=1000) / 2.0**40
        assert (np.abs(G.values(x) + G.values(1.0 - x) - 1.0) <= 2.0**-50).all()

    def test_monotone_on_grid(self):
        values = G.values(np.linspace(0.0, 2.0, 10_000))
        assert (values[:-1] <= values[1:]).all()


class TestEvaluate:
    @staticmethod
    def at(node, t):
        return FunctionSpec.from_node(node)(t)

    def test_identity(self):
        assert self.at(Var(), 7.0) == 7.0

    def test_arithmetic(self):
        node = Sum(Product(Const(2.0), Var()), Const(1.0))  # 2t + 1
        assert self.at(node, 3.0) == 7.0
        assert self.at(Difference(Var(), Const(1.0)), 0.5) == -0.5
        assert self.at(Power(Var(), 0.5), 4.0) == 2.0
        assert self.at(Min(Var(), Const(1.0)), 5.0) == 1.0
        assert self.at(Max(Var(), Const(1.0)), 5.0) == 5.0

    def test_step_above(self):
        node = StepAbove(3.0)
        assert self.at(node, 0.0) == 0.0
        assert self.at(node, 1e-300) == 3.0

    def test_piecewise_dispatch(self):
        node = Piecewise(
            (
                Piece(0.0, 1.0, True, False, Var()),
                Piece(1.0, math.inf, True, False, Const(5.0)),
            )
        )
        assert self.at(node, 0.5) == 0.5
        assert self.at(node, 1.0) == 5.0
        assert self.at(node, 100.0) == 5.0

    def test_overflow_saturates(self):
        assert self.at(Power(Var(), 100.0), 2.0**60) == math.inf

    def test_spec_callable_rejects_negative(self):
        spec = FunctionSpec.from_node(Var())
        with pytest.raises(NegativeInput):
            spec(-1.0)

    @pytest.mark.parametrize("node", [Var(), CantorHat(), Const(1.0), StepAbove(1.0),
                                      Piecewise((Piece(0.0, math.inf, True, False, Const(1.0)),))])
    def test_nan_is_outside_the_domain(self, node):
        spec = FunctionSpec.from_node(node)
        message = r"^function specs are defined on \[0, inf\); got t = nan$"
        with pytest.raises(NegativeInput, match=message):
            spec(math.nan)
        with pytest.raises(NegativeInput, match=message):
            spec.values([1.0, math.nan])

    def test_call_is_a_one_point_batch(self):
        spec = FunctionSpec.from_node(Sum(CantorHat(), Power(Var(), 0.5)))
        value = spec(0.37)
        assert type(value) is float
        assert _bits(value) == _bits(float(spec.values([0.37])[0]))

    def test_determinism_bit_for_bit(self):
        spec = FunctionSpec.from_node(Sum(CantorHat(), Power(Var(), 0.5)))
        values = [spec(0.37) for _ in range(5)]
        assert len(set(values)) == 1


class TestFoldConstant:
    def test_constant_folds(self):
        assert facts(Sum(Const(1.0), Power(Const(4.0), 0.5))).const == 3.0

    def test_inf_minus_inf_folds_to_nan(self):
        assert math.isnan(facts(_NAN).const)

    def test_a_tree_with_t_has_no_constant(self):
        assert facts(Sum(Const(1.0), Var())).const is None

    def test_undefined_constant_raises_as_the_walker_does(self):
        with pytest.raises(UndefinedValue, match=r"pow\(-1\.0, 0\.5\)"):
            facts(Sum(Var(), Power(Difference(Const(1.0), Const(2.0)), 0.5)))

    def test_first_negative_is_the_first_in_preorder(self):
        inner = Difference(Const(1.0), Const(2.0))
        outer = Difference(Const(0.0), Const(5.0))
        assert facts(Sum(Var(), inner)).first_negative == inner
        assert facts(Sum(Var(), Sum(outer, inner))).first_negative == Sum(outer, inner)
        assert facts(Sum(Sum(Var(), outer), inner)).first_negative == outer
        assert facts(Sum(Var(), Const(1.0))).first_negative is None

    def test_a_spec_folds_once_and_a_failing_fold_raises_on_every_read(self):
        spec = FunctionSpec.from_node(Sum(Var(), Const(1.0)))
        assert spec.facts is spec.facts
        assert spec.facts == facts(spec.root)
        bad = FunctionSpec.from_node(Sum(Var(), Power(Difference(Const(1.0), Const(2.0)), 0.5)))
        for _ in range(2):
            with pytest.raises(UndefinedValue, match=r"pow\(-1\.0, 0\.5\)"):
                bad.facts

    @pytest.mark.parametrize("command", [["classify"], ["witness", "--mode", "pu"]])
    def test_one_command_folds_its_spec_once(self, monkeypatch, capsys, command):
        import ultrapreserve.expr as expr_module
        from ultrapreserve.cli import main

        folds = []
        monkeypatch.setattr(expr_module, "facts", lambda node: folds.append(node) or facts(node))
        source = "piecewise { [0,1): t; [1,2): 5; [2,inf): 3 }"
        main([command[0], source, *command[1:]])
        capsys.readouterr()
        assert len(folds) == 1


class TestAnalyses:
    def test_right_limit_atoms(self):
        assert facts(Var()).limit == 0.0
        assert facts(Const(2.0)).limit == 2.0
        assert facts(CantorHat()).limit == 0.0
        assert facts(StepAbove(3.0)).limit == 3.0

    def test_right_limit_composite(self):
        # t + step_above(1): limit 1, value at 0 is 0
        node = Sum(Var(), StepAbove(1.0))
        assert facts(node).limit == 1.0
        assert FunctionSpec.from_node(node)(0.0) == 0.0

    def test_right_limit_piecewise_skips_degenerate_piece(self):
        node = Piecewise(
            (
                Piece(0.0, 0.0, True, True, Const(0.0)),
                Piece(0.0, math.inf, False, False, Sum(Var(), Const(1.0))),
            )
        )
        assert facts(node).limit == 1.0

    def test_zero_factor_beats_an_overflowed_limit(self):
        # (step_above(1e308) + step_above(1e308)) * t: inf * 0 in floats, 0 over the reals
        overflowed = Sum(StepAbove(1e308), StepAbove(1e308))
        assert facts(Product(overflowed, Var())).limit == 0.0
        assert facts(Product(Var(), overflowed)).limit == 0.0
        assert math.isnan(facts(Difference(overflowed, overflowed)).limit)

    def test_monotone_certificate(self):
        assert facts(Sum(Var(), Product(Var(), Var()))).up
        assert facts(Min(CantorHat(), Var())).up
        assert facts(Difference(Var(), Const(1.0))).up
        assert facts(Piecewise((Piece(0.0, math.inf, True, False, Var()),))).up
        falling = facts(Difference(Const(1.0), Var()))
        assert not falling.up and falling.down

    def test_piecewise_is_monotone_across_its_boundaries(self):
        def glued(low, high):
            return facts(Piecewise((Piece(0.0, 1.0, True, False, low),
                                    Piece(1.0, math.inf, True, False, high))))

        assert glued(Var(), Const(1.0)).up  # meets at 1
        assert glued(Var(), Sum(Var(), Const(1.0))).up  # jumps up at 1
        assert not glued(Sum(Var(), Const(1.0)), Var()).up  # jumps down at 1
        assert glued(Const(2.0), Const(1.0)).down
        assert not glued(Const(1.0), Const(2.0)).down
        # the high piece is undefined at 1: pow(-1, 0.5)
        assert not glued(Const(0.0), Power(Difference(Var(), Const(2.0)), 0.5)).up

    def test_positive_certificate(self):
        assert facts(Var()).positive
        assert facts(Product(Const(2.0), Var())).positive
        assert facts(StepAbove(1.0)).positive
        assert not facts(Const(0.0)).positive
        assert not facts(StepAbove(0.0)).positive
        assert not facts(Max(Const(0.0), Difference(Var(), Const(1.0)))).positive
        assert facts(Max(Var(), Difference(Var(), Const(1.0)))).positive
        assert not facts(Min(Var(), Difference(Var(), Const(1.0)))).positive

    def test_infimum_of_pieces(self):
        rising = Piecewise((Piece(0.0, 1.0, True, True, Var()),
                            Piece(1.0, math.inf, False, False, Const(0.5))))
        assert facts(rising).inf == 0.0
        assert facts(Piecewise((Piece(0.0, 1.0, True, True, Const(3.0)),
                                Piece(1.0, math.inf, False, False, Var())))).inf == 1.0
        # an open left end is the infimum only where the expression is continuous:
        # the nested piecewise is 0 at 1 and 5 on (1, inf)
        nested = Piecewise((Piece(0.0, 1.0, True, True, Const(0.0)),
                            Piece(1.0, math.inf, False, False, Const(5.0))))
        outer = Piecewise((Piece(0.0, 1.0, True, True, Const(7.0)),
                           Piece(1.0, math.inf, False, False, nested)))
        assert facts(outer).inf is None
        assert facts(Difference(Const(1.0), Var())).inf is None


@given(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
def test_cantor_weakly_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert G(lo) <= G(hi)


def test_to_text_round_trips_structure():
    from ultrapreserve.parser import parse_function_spec

    node = Max(Const(0.0), Difference(Var(), Const(1.0)))
    assert parse_function_spec(to_text(node)).root == node


# Random DSL trees for the batch evaluator: neither monotone nor amenable in
# general, with constants and exponents that reach overflow, inf - inf, 0 * inf
# and negative bases under fractional powers.
_CONSTANTS = st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 7.25, 1e-300, 1e308])
_EXPONENTS = st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.5, 2.0, 3.0])
_CUTS = st.sampled_from([0.25, 0.5, 1.0, 2.0])

_trees = st.recursive(
    st.one_of(
        st.builds(Const, _CONSTANTS),
        st.just(Var()),
        st.just(CantorHat()),
        st.builds(StepAbove, _CONSTANTS),
    ),
    lambda sub: st.one_of(
        *(st.builds(cls, sub, sub) for cls in (Sum, Difference, Product, Min, Max)),
        st.builds(Power, sub, _EXPONENTS),
        st.builds(
            lambda cut, closed, low, high: Piecewise((
                Piece(0.0, cut, True, not closed, low),
                Piece(cut, math.inf, closed, False, high),
            )),
            _CUTS, st.booleans(), sub, sub,
        ),
    ),
    max_leaves=12,
)

_PROBES = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, allow_infinity=True),
        st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 2.0**-60, 2.0**60, -1.0, math.nan]),
    ),
    min_size=1,
    max_size=24,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _scalar(fn, t):
    try:
        return fn(t), None
    except Exception as exc:  # any exception is part of the behaviour compared
        return None, exc


_NAN = Difference(Const(math.inf), Const(math.inf))
_NEGATIVE_ZERO = Product(Const(0.0), Difference(Var(), Const(2.0)))  # -0.0 for t < 2
_TWO_PIECES = Piecewise((Piece(0.0, 1.0, True, False, Var()),
                         Piece(1.0, math.inf, True, False, Const(2.0))))


def _sqrt_t_minus(c):
    return Power(Difference(Var(), Const(c)), 0.5)  # undefined for t < c


@pytest.mark.parametrize("closed_lower", [True, False])
@pytest.mark.parametrize("closed_upper", [True, False])
def test_piece_contains_floats_and_arrays_alike(closed_lower, closed_upper):
    piece = Piece(1.0, 2.0, closed_lower, closed_upper, Var())
    ts = [0.0, 1.0, 1.5, 2.0, 3.0, math.nan]
    expected = [False, closed_lower, True, closed_upper, False, False]
    assert [piece.contains(t) for t in ts] == expected
    assert piece.contains(np.array(ts)).tolist() == expected


class TestEvaluateMany:
    @settings(max_examples=300)
    @given(_trees, _PROBES)
    # Python's min/max keep the first argument on ties (0.0 vs -0.0) and
    # unless the second compares strictly below/above it (never for NaN)
    @example(Min(Const(1.0), _NAN), [1.0])
    @example(Min(_NAN, Const(1.0)), [1.0])
    @example(Max(Const(1.0), _NAN), [1.0])
    @example(Min(Const(0.0), _NEGATIVE_ZERO), [1.0])
    @example(Max(_NEGATIVE_ZERO, Const(0.0)), [1.0])
    # the left operand's error comes first; no piece covers t = inf
    @example(Sum(_sqrt_t_minus(2.0), _sqrt_t_minus(3.0)), [1.0, 2.5])
    @example(Sum(Var(), _TWO_PIECES), [math.inf, 1.0])
    def test_bit_identical_to_evaluate(self, node, ts):
        # the walker's domain is [0, inf): a FunctionSpec rejects any other
        # t before it reads the walk, so such points are walked, not compared
        values, errors = walk(node, np.array(ts))
        for k, t in enumerate(ts):
            if not t >= 0:
                continue
            expected, exc = _scalar(lambda x: evaluate(node, x), t)
            got = errors.get(k)
            assert type(got) is type(exc) and str(got) == str(exc), (to_text(node), t, exc)
            if exc is None:
                assert _bits(values[k]) == _bits(expected), (to_text(node), t)

    @settings(max_examples=300)
    @given(_trees, _PROBES)
    @example(Sum(_sqrt_t_minus(2.0), _sqrt_t_minus(3.0)), [4.0, 1.0, 2.5])
    def test_values_raise_as_the_first_failing_call(self, node, ts):
        spec = FunctionSpec.from_node(node)
        expected, exc = [], None
        for t in ts:
            value, exc = _scalar(lambda x: scalar_call(spec, x), t)
            if exc is not None:
                break
            expected.append(value)
        got, got_exc = _scalar(spec.values, np.array(ts))
        if exc is None:
            assert got_exc is None, (spec.source, got_exc)
            assert [_bits(v) for v in got.tolist()] == [_bits(v) for v in expected]
        else:
            assert type(got_exc) is type(exc) and str(got_exc) == str(exc), spec.source

    @pytest.mark.parametrize("exponent", [0.25, 1.0 / 3.0, 0.5, 1.5, 2.0, 3.0])
    def test_power_matches_math_pow_to_the_bit(self, exponent):
        # np.power differs from math.pow in the last ulp on ~5% of these
        ts = 2.0 ** np.random.default_rng(0).uniform(-30.0, 30.0, 4096)
        values, errors = walk(Power(Var(), exponent), ts)
        assert not errors
        assert values.tobytes() == np.array([math.pow(t, exponent) for t in ts.tolist()]).tobytes()

    def test_cantor_matches_the_scalar_digit_loop(self):
        ts = np.concatenate([np.random.default_rng(0).uniform(0.0, 1.2, 4096),
                             [k / 3.0**6 for k in range(3**6 + 1)]])
        values, errors = walk(CantorHat(), ts)
        assert not errors
        assert values.tobytes() == np.array([cantor_hat(t) for t in ts.tolist()]).tobytes()

    def test_values_keep_the_shape(self):
        spec = FunctionSpec.from_node(Power(Var(), 0.5))
        assert spec.values(np.array([[1.0, 4.0], [9.0, 16.0]])).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_swallowed_domain_error_still_raises(self):
        # min(1, nan) is 1, so only the recorded error can tell that pow failed
        spec = FunctionSpec.from_node(Min(Const(1.0), Power(Difference(Var(), Const(2.0)), 0.5)))
        assert spec.values(np.array([3.0])).tolist() == [1.0]
        with pytest.raises(UndefinedValue, match=r"pow\(-1\.0, 0\.5\)"):
            spec.values(np.array([3.0, 1.0, 0.0]))


def _limit_meets_no_nan(node) -> bool:
    """The old limit of every subtree is a number: none met inf * 0, inf - inf
    or an undefined pow."""
    for sub in subtrees(node):
        try:
            if math.isnan(right_limit_at_zero(sub)):
                return False
        except UndefinedValue:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(_trees)
@example(Product(Sum(StepAbove(1e308), StepAbove(1e308)), Var()))  # inf * 0 at the limit
@example(Piecewise((Piece(0.0, 1.0, True, True, Var()),
                    Piece(1.0, math.inf, False, False, Sum(Var(), Const(1.0))))))
def test_facts_are_sound_and_lose_nothing(node):
    """No fact is contradicted by the walker on the probe grid (from 0, at the
    points where f is defined), constants fold to the walker's bits at 0, the
    limit is the old one wherever that met no NaN, and every tree the old
    certifiers certified is still certified."""
    try:
        fx = facts(node)
    except UndefinedValue:  # an undefined constant: the parser refuses the tree
        return
    spec = FunctionSpec.from_node(node)
    grid = probe_points(spec, include_zero=True)
    values, errors = spec.try_values(grid)
    defined = np.ones(len(grid), dtype=bool)
    defined[list(errors)] = False
    t, v = grid[defined], values[defined]
    assert not fx.up or (v[:-1] <= v[1:]).all(), spec.source
    assert not fx.down or (v[:-1] >= v[1:]).all(), spec.source
    assert not fx.nonneg or (v >= 0.0).all(), spec.source
    assert not fx.positive or (v[t > 0.0] >= 0.0).all(), spec.source  # a product may underflow
    assert fx.inf is None or (v[t > 0.0] >= fx.inf).all(), spec.source
    for sub in subtrees(node):
        const = facts(sub).const
        if const is not None:
            at_zero, _ = walk(sub, np.array([0.0]))
            assert _bits(const) == _bits(at_zero[0]), to_text(sub)
    if _limit_meets_no_nan(node):
        assert _bits(fx.limit) == _bits(right_limit_at_zero(node)), spec.source
    assert fx.up or not monotone_certified(node), spec.source
    assert fx.positive or not positive_certified(node), spec.source
