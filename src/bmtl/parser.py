"""Recursive-descent parser for the formula concrete syntax.

Grammar (whitespace insignificant, ``#`` starts a line comment):

    formula  = conj
    conj     = unary { "&" unary }
    unary    = ("bplus"|"bminus"|"dplus"|"dminus") bound unary
             | "!" unary
             | atom
    atom     = "true" | IDENT | "(" binary ")" | "(" formula ")"
    binary   = formula ("S"|"U") bound formula
    bound    = "[" rational "," rational "]"
    rational = ["-"] INT ["/" INT]

Since/until are only legal inside parentheses, so no precedence between
"&" and the binary operators ever arises.  Conjunction associates to
the left.  Prefix chains of any length parse in a loop; parentheses may
nest at most MAX_PAREN_DEPTH deep.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import BmtlError, ParseError
from .syntax import NODE_TABLE, And, Bound, Formula, Pred, Top
from .traces import NAME

_TOKEN_RE = re.compile(
    rf"""(?P<ws>[ \t\r]+)
      | (?P<nl>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>{NAME})
      | (?P<punct>[\[\](),&!/-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {k.keyword for k in NODE_TABLE if k.keyword and k.keyword.isalpha()}
# prefix operators ("!" and the bounded unary keywords) and the bounded
# binary keywords, each mapped to its row of the node table
_PREFIX_OPS = {k.keyword: k for k in NODE_TABLE if len(k.children) == 1}
_BINARY_OPS = {k.keyword: k for k in NODE_TABLE if len(k.children) == 2 and k.bounded}

# Parentheses nest by recursion (three frames a level), so their depth is
# capped well inside the interpreter's default recursion limit.
MAX_PAREN_DEPTH = 200


class Token(NamedTuple):
    kind: str  # "int", "ident", "kw", or the punct character itself
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        col = pos - line_start + 1
        pos = m.end()
        if m.lastgroup == "nl":
            line += 1
            line_start = pos
        elif m.lastgroup in ("ws", "comment"):
            pass
        elif m.lastgroup == "int":
            tokens.append(Token("int", m.group(), line, col))
        elif m.lastgroup == "ident":
            kind = "kw" if m.group() in _KEYWORDS else "ident"
            tokens.append(Token(kind, m.group(), line, col))
        else:
            tokens.append(Token(m.group(), m.group(), line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], text: str):
        self.tokens = tokens
        self.pos = 0
        self.paren_depth = 0
        # final position for end-of-input diagnostics
        nlines = text.count("\n") + 1
        last = text.rsplit("\n", 1)[-1]
        self.end = (nlines, len(last) + 1)

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self.end)
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input", *self.end)
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "&":
                self.next()
                node = And(node, self.unary())
            else:
                return node

    def unary(self) -> Formula:
        prefix = []
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("expected a formula, found end of input", *self.end)
            kind = _PREFIX_OPS.get(tok.text) if tok.kind in ("kw", "!") else None
            if kind is None:
                break
            self.next()
            prefix.append((kind, self.bound() if kind.bounded else None))
        node = self.atom()
        for kind, bound in reversed(prefix):
            node = kind.make((node,), bound)
        return node

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "kw" and tok.text == "true":
            return Top()
        if tok.kind == "ident":
            return Pred(tok.text)
        if tok.kind == "(":
            if self.paren_depth == MAX_PAREN_DEPTH:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_PAREN_DEPTH}", tok.line, tok.column
                )
            self.paren_depth += 1
            left = self.formula()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "kw" and nxt.text in _BINARY_OPS:
                self.next()
                bound = self.bound()
                left = _BINARY_OPS[nxt.text].make((left, self.formula()), bound)
            self.expect(")", "')'")
            self.paren_depth -= 1
            return left
        raise ParseError(f"expected a formula, found {tok.text!r}", tok.line, tok.column)

    def bound(self) -> Bound:
        opening = self.expect("[", "'['")
        lo = self.rational()
        self.expect(",", "','")
        hi = self.rational()
        self.expect("]", "']'")
        try:
            return Bound(lo, hi)
        except BmtlError as e:
            raise type(e)(
                f"{e} (bound at line {opening.line}, column {opening.column})"
            ) from None

    def rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            sign = -1
        num = self.expect("int", "an integer")
        value = Fraction(self.integer(num))
        tok = self.peek()
        if tok is not None and tok.kind == "/":
            self.next()
            den = self.expect("int", "a denominator")
            d = self.integer(den)
            if d == 0:
                raise ParseError("zero denominator", den.line, den.column)
            value /= d
        return sign * value

    @staticmethod
    def integer(tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # only a number past the int conversion limit gets here
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"number longer than {limit} digits", tok.line, tok.column) from None


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises ParseError and friends."""
    parser = _Parser(_tokenize(text), text)
    node = parser.formula()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(
            f"trailing input {trailing.text!r}", trailing.line, trailing.column
        )
    return node
