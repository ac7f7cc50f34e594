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
    INT      = one or more of the ASCII digits 0-9

Since/until are only legal inside parentheses, so no precedence between
"&" and the binary operators ever arises.  Conjunction associates to
the left.  Prefix chains of any length parse in a loop; parentheses may
nest at most MAX_PAREN_DEPTH deep.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import BmtlError, ParseError
from .syntax import NODE_TABLE, And, Bound, Formula, Pred, Top
from .traces import NAME

# A token is a (kind, text, offset) tuple.  Its kind is its own text for
# keywords and punctuation, else "int", "ident", or "end" for the empty
# token that closes every token list.
_TOKEN_RE = re.compile(
    rf"""[ \t\r\n]+ | \#[^\n]*
      | (?P<int>[0-9]+)
      | (?P<ident>{NAME})
      | (?P<punct>[\[\](),&!/-])
      | (?P<end>\Z)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)
_LITERALS = {k.keyword for k in NODE_TABLE if k.keyword} | set("[](),/-")
# prefix operators ("!" and the bounded unary keywords) and the bounded
# binary keywords, each mapped to its row of the node table
_PREFIX_OPS = {k.keyword: k for k in NODE_TABLE if len(k.children) == 1}
_BINARY_OPS = {k.keyword: k for k in NODE_TABLE if len(k.children) == 2 and k.bounded}

# Parentheses nest by recursion (three frames a level), so their depth is
# capped well inside the interpreter's default recursion limit.
MAX_PAREN_DEPTH = 200


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of text[offset], for error messages."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group is None:  # whitespace or a comment
            continue
        word = m.group()
        if group == "bad":
            raise ParseError(f"unexpected character {word!r}", *_position(text, m.start()))
        tokens.append((word if word in _LITERALS else group, word, m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.paren_depth = 0

    def take(self, kind: str, what: Optional[str] = None) -> Optional[tuple[str, str, int]]:
        """Consume and return the next token if it is of this kind.  Else
        return None or, when ``what`` names the expected token, raise."""
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        if what is None:
            return None
        found = "end of input" if tok[0] == "end" else repr(tok[1])
        raise ParseError(f"expected {what}, found {found}", *_position(self.text, tok[2]))

    def formula(self) -> Formula:
        node = self.unary()
        while self.take("&"):
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        prefix = []
        while (kind := _PREFIX_OPS.get(self.tokens[self.pos][0])) is not None:
            self.pos += 1
            prefix.append((kind, self.bound() if kind.bounded else None))
        node = self.atom()
        for kind, bound in reversed(prefix):
            node = kind.make((node,), bound)
        return node

    def atom(self) -> Formula:
        if self.take("true"):
            return Top()
        paren = self.take("(")
        if paren is None:
            return Pred(self.take("ident", "a formula")[1])
        if self.paren_depth == MAX_PAREN_DEPTH:
            message = f"parentheses nested deeper than {MAX_PAREN_DEPTH}"
            raise ParseError(message, *_position(self.text, paren[2]))
        self.paren_depth += 1
        left = self.formula()
        binary = _BINARY_OPS.get(self.tokens[self.pos][0])
        if binary is not None:
            self.pos += 1
            bound = self.bound()
            left = binary.make((left, self.formula()), bound)
        self.take(")", "')'")
        self.paren_depth -= 1
        return left

    def bound(self) -> Bound:
        opening = self.take("[", "'['")[2]
        lo = self.rational()
        self.take(",", "','")
        hi = self.rational()
        self.take("]", "']'")
        try:
            return Bound(lo, hi)
        except BmtlError as e:
            line, column = _position(self.text, opening)
            raise type(e)(f"{e} (bound at line {line}, column {column})") from None

    def rational(self) -> Fraction:
        sign = -1 if self.take("-") else 1
        value = Fraction(self.integer(self.take("int", "an integer")))
        if self.take("/"):
            den = self.take("int", "a denominator")
            d = self.integer(den)
            if d == 0:
                raise ParseError("zero denominator", *_position(self.text, den[2]))
            value /= d
        return sign * value

    def integer(self, tok: tuple[str, str, int]) -> int:
        try:
            return int(tok[1])
        except ValueError:  # only a number past the int conversion limit gets here
            limit = sys.get_int_max_str_digits()
            raise ParseError(
                f"number longer than {limit} digits", *_position(self.text, tok[2])
            ) from None


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into an AST; raises ParseError and friends."""
    parser = _Parser(text)
    node = parser.formula()
    kind, word, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(f"trailing input {word!r}", *_position(text, offset))
    return node
