"""Parser for the function-spec DSL.

Grammar (whitespace-insensitive)::

    spec      := expr EOF
    expr      := product (('+'|'-') product)*
    product   := factor ('*' factor)*
    factor    := NUMBER | 't' | 'min(' expr ',' expr ')' | 'max(' expr ',' expr ')'
               | 'pow(' expr ',' NUMBER ')' | 'cantor_hat(t)'
               | 'step_above(' NUMBER ')' | '(' expr ')' | piecewise
    piecewise := 'piecewise' '{' piece (';' piece)* ';'? '}'
    piece     := ('['|'(') bound ',' bound (']'|')') ':' expr
    bound     := NUMBER | 'inf'

Number literals are nonnegative; the only way to write something negative is
a '-' expression, and any subtree that folds to a negative constant is
rejected at parse time. Function files carry one spec per line; '#' starts a
comment.
"""

from __future__ import annotations

import math
import re

from .expr import (
    CantorHat,
    Const,
    Difference,
    FunctionSpec,
    FunctionSpecError,
    Max,
    Min,
    Node,
    Piece,
    Piecewise,
    Power,
    Product,
    StepAbove,
    Sum,
    Var,
    to_text,
)


class SpecSyntaxError(FunctionSpecError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeValueRisk(FunctionSpecError):
    """A subtree folds to a negative constant."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*(),:;\[\]{}]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].lstrip()
            if not tail:
                break
            at = len(text) - len(tail)
            raise SpecSyntaxError(f"unexpected character {tail[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text_or_kind: str):
        kind, text, pos = self.peek()
        if text == text_or_kind or kind == text_or_kind:
            return self.advance()
        shown = text if text else "end of input"
        raise SpecSyntaxError(f"expected {text_or_kind!r}, found {shown!r}", pos)

    # grammar rules ---------------------------------------------------

    def parse_expr(self) -> Node:
        node = self.parse_product()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            right = self.parse_product()
            node = Sum(node, right) if op == "+" else Difference(node, right)
        return node

    def parse_product(self) -> Node:
        node = self.parse_factor()
        while self.peek()[1] == "*":
            self.advance()
            node = Product(node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            return Const(float(text))
        if text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            return self.parse_named()
        shown = text if text else "end of input"
        raise SpecSyntaxError(f"expected a number, 't', or a function, found {shown!r}", pos)

    def parse_named(self) -> Node:
        kind, name, pos = self.advance()
        if name == "t":
            return Var()
        if name in ("min", "max"):
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return Min(left, right) if name == "min" else Max(left, right)
        if name == "pow":
            self.expect("(")
            base = self.parse_expr()
            self.expect(",")
            exp_tok = self.expect("number")
            self.expect(")")
            return Power(base, float(exp_tok[1]))
        if name == "cantor_hat":
            self.expect("(")
            self.expect("t")
            self.expect(")")
            return CantorHat()
        if name == "step_above":
            self.expect("(")
            height = self.expect("number")
            self.expect(")")
            return StepAbove(float(height[1]))
        if name == "piecewise":
            return self.parse_piecewise()
        raise SpecSyntaxError(f"unknown name {name!r}", pos)

    def parse_piecewise(self) -> Node:
        self.expect("{")
        pieces = [self.parse_piece()]
        while self.peek()[1] == ";":
            self.advance()
            if self.peek()[1] == "}":
                break  # trailing ';'
            pieces.append(self.parse_piece())
        self.expect("}")
        return Piecewise(tuple(pieces))

    def parse_piece(self) -> Piece:
        kind, text, pos = self.advance()
        if text not in ("[", "("):
            raise SpecSyntaxError(f"expected '[' or '(' opening an interval, found {text!r}", pos)
        closed_lower = text == "["
        lower = self.parse_bound()
        self.expect(",")
        upper = self.parse_bound()
        kind, text, pos = self.advance()
        if text not in ("]", ")"):
            raise SpecSyntaxError(f"expected ']' or ')' closing an interval, found {text!r}", pos)
        closed_upper = text == "]" and not math.isinf(upper)
        self.expect(":")
        expr = self.parse_expr()
        return Piece(lower, upper, closed_lower, closed_upper, expr)

    def parse_bound(self) -> float:
        kind, text, pos = self.advance()
        if kind == "number":
            return float(text)
        if text == "inf":
            return math.inf
        raise SpecSyntaxError(f"expected a number or 'inf', found {text!r}", pos)


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse one DSL expression into a validated FunctionSpec."""
    parser = _Parser(text)
    root = parser.parse_expr()
    kind, tok_text, pos = parser.peek()
    if kind != "eof":
        raise SpecSyntaxError(f"trailing input {tok_text!r}", pos)
    spec = FunctionSpec(root, text.strip())
    bad = spec.facts.first_negative
    if bad is not None:
        raise NegativeValueRisk(
            f"subexpression {to_text(bad)!r} is a negative constant"
        )
    return spec


def parse_function_file(text: str) -> list[FunctionSpec]:
    """Parse a function file: one spec per line, '#' comments, blanks skipped."""
    specs = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            specs.append(parse_function_spec(body))
    return specs
