"""DSL grammar, parse errors, and parse/render round trips."""

import math

import pytest
from hypothesis import given, strategies as st

from ultrapreserve.expr import (
    CantorHat,
    Const,
    DomainGap,
    Max,
    Min,
    Power,
    Product,
    StepAbove,
    Sum,
    UndefinedValue,
    Var,
    to_text,
)
from ultrapreserve.parser import (
    NegativeValueRisk,
    SpecSyntaxError,
    parse_function_file,
    parse_function_spec,
)


class TestGrammar:
    def test_identity(self):
        assert parse_function_spec("t").root == Var()

    def test_precedence(self):
        spec = parse_function_spec("1 + 2 * t")
        assert spec.root == Sum(Const(1.0), Product(Const(2.0), Var()))

    def test_parentheses(self):
        spec = parse_function_spec("(1 + t) * 2")
        assert spec.root == Product(Sum(Const(1.0), Var()), Const(2.0))

    def test_builtins(self):
        assert parse_function_spec("cantor_hat(t)").root == CantorHat()
        assert parse_function_spec("step_above(1.5)").root == StepAbove(1.5)
        assert parse_function_spec("pow(t, 0.5)").root == Power(Var(), 0.5)
        assert parse_function_spec("min(t, 1)").root == Min(Var(), Const(1.0))
        assert parse_function_spec("max(t, 1)").root == Max(Var(), Const(1.0))

    def test_scientific_notation(self):
        assert parse_function_spec("1e-3").root == Const(0.001)

    def test_piecewise_step(self):
        spec = parse_function_spec("piecewise { [0,0]: 0; (0,inf): t + 1 }")
        assert spec(0.0) == 0.0
        assert spec(2.0) == 3.0
        assert spec(2.0**-40) == 1.0 + 2.0**-40

    def test_piecewise_half_open(self):
        spec = parse_function_spec("piecewise { [0,1): t; [1,inf): 5 }")
        assert spec(0.999) == 0.999
        assert spec(1.0) == 5.0

    def test_trailing_semicolon(self):
        spec = parse_function_spec("piecewise { [0,1): t; [1,inf): 5; }")
        assert spec(3.0) == 5.0


class TestErrors:
    def test_garbage_raises_with_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_function_spec("garbage(((")
        assert exc.value.position >= 0

    def test_trailing_input(self):
        with pytest.raises(SpecSyntaxError):
            parse_function_spec("t t")

    def test_empty(self):
        with pytest.raises(SpecSyntaxError):
            parse_function_spec("")

    def test_unknown_character(self):
        with pytest.raises(SpecSyntaxError):
            parse_function_spec("t ^ 2")

    def test_domain_gap_no_unbounded_piece(self):
        with pytest.raises(DomainGap):
            parse_function_spec("piecewise { [0,1): t }")

    def test_domain_gap_at_zero(self):
        with pytest.raises(DomainGap):
            parse_function_spec("piecewise { (0,inf): t }")

    def test_domain_gap_interior(self):
        with pytest.raises(DomainGap):
            parse_function_spec("piecewise { [0,1): t; [2,inf): t }")

    def test_domain_overlap(self):
        with pytest.raises(DomainGap):
            parse_function_spec("piecewise { [0,1]: t; [1,inf): t }")

    def test_negative_constant_fold(self):
        with pytest.raises(NegativeValueRisk):
            parse_function_spec("3 - 5")
        with pytest.raises(NegativeValueRisk):
            parse_function_spec("t + (2 - 3)")

    def test_undefined_constant_reported_before_negative_one(self):
        # every constant subtree folds before any is tested for its sign
        with pytest.raises(UndefinedValue, match=r"pow\(-1\.0, 0\.5\)"):
            parse_function_spec("t + (0 - 2) + pow(0 - 1, 0.5)")

    def test_variable_subtraction_allowed(self):
        # not statically negative: only a constant fold is rejected
        spec = parse_function_spec("max(0, t - 1)")
        assert spec(0.5) == 0.0
        assert spec(3.0) == 2.0


class TestFunctionFiles:
    def test_one_spec_per_line_with_comments(self):
        text = "# catalog\nt\n\ncantor_hat(t)  # the interesting one\n"
        specs = parse_function_file(text)
        assert [s.source for s in specs] == ["t", "cantor_hat(t)"]

    def test_error_positions_survive(self):
        with pytest.raises(SpecSyntaxError):
            parse_function_file("t\nmin(t\n")


_leaves = st.one_of(
    st.builds(Const, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.just(Var()),
    st.just(CantorHat()),
    st.builds(StepAbove, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
)

_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Sum, inner, inner),
        st.builds(Product, inner, inner),
        st.builds(Min, inner, inner),
        st.builds(Max, inner, inner),
        st.builds(Power, inner, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
    ),
    max_leaves=8,
)


@given(_trees)
def test_render_parse_round_trip(node):
    assert parse_function_spec(to_text(node)).root == node


def test_piecewise_round_trip():
    source = "piecewise { [0,0]: 0; (0,2): t; [2,inf): max(t, 4) }"
    spec = parse_function_spec(source)
    again = parse_function_spec(to_text(spec.root))
    assert again.root == spec.root
    assert math.isinf(spec.root.pieces[-1].upper)
