"""Formula AST for bounded metric temporal logic: node table, fold, printers.

Temporal operators carry a closed, non-negative, ordered bound [lo, hi]
measuring distance from the evaluation point:

  dplus  -- somewhere within [t+lo, t+hi]
  dminus -- somewhere within [t-hi, t-lo]
  bplus  -- everywhere within [t+lo, t+hi]
  bminus -- everywhere within [t-hi, t-lo]
  U / S  -- until / since with the witness constrained to the window

NODE_TABLE describes each node class once and builds it: the class name,
the kind name (census, the generators), the keyword in the concrete
syntax and the fields in order; a bound always sits just before the last
operand.  Nodes are hash-consed: structurally equal formulas are one
object, so == is identity and the box body the mitl rule copies into two
conjuncts is one shared subtree.  Child access, rebuilding, both
printers and repr, the parser and the generators read the table.
fold(f, step) is the one traversal: iterative and post-order, it calls
step(node, operand results) once per distinct node, so depth is bounded
only by memory.  The evaluator, the oracle and the analyses here run on
it, each dispatching through a dict keyed by node class; scope(f), f's
reach and bound scale, is the one analysis of its bounds.  Its memo is
the node's ``_scope`` slot, filled the first time a scope fold reaches
the node: an interned node is its own key and never changes, so the
value cannot go stale, and it dies with the node (Filliâtre & Conchon,
Type-Safe Modular Hash-Consing, 2006).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InvertedBoundError, NegativeBoundError, OutputTooLargeError
from .intervals import rat


@dataclass(frozen=True)
class Bound:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo < 0:
            raise NegativeBoundError(f"bound lower endpoint {self.lo} is negative")
        if self.hi < self.lo:
            raise InvertedBoundError(f"bound [{self.lo},{self.hi}] is inverted")

    @property
    def singleton(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


class Formula:
    """Base of the node classes NODE_TABLE makes.  A weak-value unique
    table maps each node's key (its class, a bound's four ints and its
    operands, or a predicate's name) to the one live node with it, so ==
    and hash are identity, O(1) at any depth, an interned node is its own
    key in any table, and a copy, a deep copy or an unpickled node is the
    interned node.  ``_scope`` is empty until scope fills it."""

    __slots__ = ("__weakref__", "_operands", "_scope")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        return _render(self, _repr_pieces)


_UNIQUE: dict = {}  # node key -> weakref.KeyedRef to the live node with that key


def _forget(ref: weakref.KeyedRef, unique: dict = _UNIQUE) -> None:
    # runs as the node dies; the key holds its operands, so they outlive
    # the entry, and dropping it may free them in turn
    if unique.get(ref.key) is ref:
        del unique[ref.key]


def _node_class(name: str, fields: tuple[str, ...]) -> type:
    """A slots class with these fields, and its operands in order as one
    tuple, whose constructor interns its nodes."""
    bounded, named = "bound" in fields, fields == ("name",)

    def __new__(cls, *args):
        if len(args) != len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments ({len(args)} given)")
        if bounded:
            kids = (*args[:-2], args[-1])
            lo, hi = args[-2].lo, args[-2].hi
            key = (cls, lo.numerator, lo.denominator, hi.numerator, hi.denominator, *kids)
        else:
            kids = () if named else args
            key = (cls, *args)
        ref = _UNIQUE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "_operands", kids)
            for field, value in zip(fields, args):
                object.__setattr__(node, field, value)
            _UNIQUE[key] = weakref.KeyedRef(node, _forget, key)
        return node

    return type(name, (Formula,), {"__slots__": fields, "_fields": fields, "__new__": __new__})


class Kind:
    """One row of the node table: the node class built from its fields,
    the kind name, the keyword (None for predicates, which print as their
    name), the operand fields and whether a bound sits before the last."""

    def __init__(self, class_name: str, name: str, keyword: Optional[str], fields=()):
        self.cls = _node_class(class_name, fields)
        self.name, self.keyword = name, keyword
        self.children = tuple(f for f in fields if f not in ("name", "bound"))
        self.bounded = "bound" in fields

    def make(self, kids: Sequence[Formula], bound: Optional[Bound] = None) -> Formula:
        """A node of this kind from its operands in order and its bound."""
        if not self.bounded:
            return self.cls(*kids)
        return self.cls(*kids[:-1], bound, kids[-1])


NODE_TABLE = (
    Kind("Pred", "pred", None, ("name",)),
    Kind("Top", "top", "true"),
    Kind("Not", "not", "!", ("body",)),
    Kind("And", "and", "&", ("left", "right")),
    Kind("BoxPlus", "bplus", "bplus", ("bound", "body")),
    Kind("BoxMinus", "bminus", "bminus", ("bound", "body")),
    Kind("DiaPlus", "dplus", "dplus", ("bound", "body")),
    Kind("DiaMinus", "dminus", "dminus", ("bound", "body")),
    Kind("Since", "since", "S", ("left", "bound", "right")),
    Kind("Until", "until", "U", ("left", "bound", "right")),
)
Pred, Top, Not, And, BoxPlus, BoxMinus, DiaPlus, DiaMinus, Since, Until = (
    k.cls for k in NODE_TABLE)
KINDS = {k.cls: k for k in NODE_TABLE}
KINDS_BY_NAME = {k.name: k for k in NODE_TABLE}


def children(f: Formula) -> tuple[Formula, ...]:
    return f._operands


def replace_children(f: Formula, new: tuple[Formula, ...]) -> Formula:
    """f with these operands: f itself when each is the one it has."""
    if new == children(f):  # node == is identity
        return f
    return KINDS[type(f)].make(new, getattr(f, "bound", None))


def fold(f: Formula, step: Callable[[Formula, list], object]):
    """Post-order fold: step(node, results of its operands in order).

    Iterative, so depth is not limited by the interpreter's stack; step
    runs once per distinct node object, so shared subtrees cost once.
    """
    memo: dict[Formula, object] = {}
    todo: list = [(f, None)]
    while todo:
        node, kids = todo.pop()
        if kids is not None:
            memo[node] = step(node, [memo[k] for k in kids])
        elif node not in memo:
            kids = node._operands
            todo.append((node, kids))
            for k in reversed(kids):
                if k not in memo:
                    todo.append((k, None))
    return memo[f]


# longest text either printer or repr produces; a shared subtree prints
# once per occurrence, so a formula's text can double with each level of
# sharing
MAX_PRINTED_CHARS = 1_000_000


def _render(f: Formula, pieces: Callable[[Formula, Kind, tuple], list]) -> str:
    """Join the text pieces of every node; a piece is a string or an operand.

    The length is folded first, over distinct nodes, with the operands'
    lengths in their place: text over MAX_PRINTED_CHARS is refused.
    """

    def length(node: Formula, kids: list) -> int:
        n = sum(p if type(p) is int else len(p) for p in pieces(node, KINDS[type(node)], kids))
        return min(n, MAX_PRINTED_CHARS + 1)

    if fold(f, length) > MAX_PRINTED_CHARS:
        raise OutputTooLargeError(f"formula text longer than {MAX_PRINTED_CHARS:,} characters")
    out: list[str] = []
    todo: list = [f]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:
            todo.extend(reversed(pieces(item, KINDS[type(item)], children(item))))
    return "".join(out)


def _print_pieces(node: Formula, kind: Kind, kids: tuple) -> list:
    if not kids:
        return [kind.keyword or node.name]
    op = kind.keyword + (str(node.bound) if kind.bounded else "")
    if len(kids) == 1:
        return [op + " " if kind.bounded else op, kids[0]]
    return ["(", kids[0], f" {op} ", kids[1], ")"]


def _repr_pieces(node: Formula, kind: Kind, kids: tuple) -> list:
    operands = iter(kids)
    out = [type(node).__name__ + "("]
    for i, name in enumerate(node._fields):
        value = next(operands) if name in kind.children else repr(getattr(node, name))
        out += [", " + name + "=" if i else name + "=", value]
    return out + [")"]


def print_formula(f: Formula) -> str:
    """Concrete syntax; re-parsing the output reproduces the tree.

    Conjunctions and since/until nodes are always parenthesized, which
    keeps the printer unambiguous without precedence bookkeeping (and
    limits re-parsing to the parser's MAX_PAREN_DEPTH of them nested).
    """
    return _render(f, _print_pieces)


def _s_expression_pieces(node: Formula, kind: Kind, kids: tuple) -> list:
    words = ([] if kind.keyword else [node.name]) + list(kids)
    if kind.bounded:
        words.insert(-1, str(node.bound))
    out = ["(" + kind.name]
    for word in words:
        out += [" ", word]
    return out + [")"]


def s_expression(f: Formula) -> str:
    """Prefix rendering of the AST, one parenthesized node per operator."""
    return _render(f, _s_expression_pieces)


class Census(NamedTuple):
    counts: dict[str, int]
    has_singleton_bound: bool = False
    max_depth: int = 0


def census(f: Formula) -> Census:
    """Count node kinds, flag singleton bounds, measure nesting depth.

    Counts are per occurrence in the tree, so a shared subtree counts
    once for each parent.  Depth counts edges: a lone predicate has
    depth 0.
    """

    def step(node: Formula, kids: list) -> tuple[dict[str, int], bool, int]:
        kind = KINDS[type(node)]
        counts = {kind.name: 1}
        singleton = kind.bounded and node.bound.singleton
        depth = 0
        for sub, sub_singleton, sub_depth in kids:
            for name, n in sub.items():
                counts[name] = counts.get(name, 0) + n
            singleton = singleton or sub_singleton
            depth = max(depth, sub_depth + 1)
        return counts, singleton, depth

    return Census(*fold(f, step))


# the side each temporal operator looks toward: 0 the past, 1 the future
_LOOKS_TOWARD = {DiaMinus: 0, BoxMinus: 0, Since: 0, DiaPlus: 1, BoxPlus: 1, Until: 1}
_NO_SCOPE = (0, 0, 1)


class Scope(NamedTuple):
    """How far a formula looks and how finely its bounds cut time.

    Truth at t is determined by trace content within
    [t - past, t + future]: each operator adds its bound's upper
    endpoint on the side it looks toward, and a binary node takes the
    larger reach of its operands on each side.  scale is the lcm of the
    denominators of every bound endpoint, 1 for a formula without bounds.
    """

    past: Fraction
    future: Fraction
    scale: int


def _scope_step(node: Formula, kids: list) -> tuple[int, int, int]:
    """(past, future, scale) of a node, its reach as integers at scale,
    kept in its _scope slot."""
    side = _LOOKS_TOWARD.get(type(node))
    if side is None and len(kids) < 2:
        # a predicate, true or a negation: no bound and nothing to combine
        found = kids[0] if kids else _NO_SCOPE
    else:
        scales = [s for _, _, s in kids]
        if side is not None:
            hi = node.bound.hi
            scales += (node.bound.lo.denominator, hi.denominator)
        scale = math.lcm(*scales)
        reach = [max(k[i] * (scale // k[2]) for k in kids) for i in (0, 1)]
        if side is not None:
            reach[side] += hi.numerator * (scale // hi.denominator)
        found = (reach[0], reach[1], scale)
    object.__setattr__(node, "_scope", found)
    return found


def scope(f: Formula) -> Scope:
    """f's reach and bound scale, from one fold in integer time, or from
    f's _scope slot once a fold has reached f.

    A node's reach is kept at the lcm of the bound denominators below
    it, rescaled by an integer factor where operands meet, and becomes
    Fractions once, at the root.  A subtree shared by several parents,
    as the mitl box rule shares the box body, is read once.  The fold
    fills the slot of every node it reaches, so a campaign trial folds
    once, over the conjunction of its two formulas.
    """
    try:
        past, future, scale = f._scope
    except AttributeError:  # not yet asked: the slot is empty
        past, future, scale = fold(f, _scope_step)
    return Scope(Fraction(past, scale), Fraction(future, scale), scale)
