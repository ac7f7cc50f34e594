"""Directed rewriting of box and diamond operators into the since/until core.

Two modes:

  Punctual      -- boxes become a diamond pinned at the window's start
                   whose body must keep holding for the window's width;
                   the resulting bounds are singletons.
  SingletonFree -- boxes become a conjunction of two diamonds with
                   positive-width bounds, one anchored near each end of
                   the window, overlapping in the middle.  Requires a
                   non-degenerate bound (lo < hi) with 3*lo >= hi, and
                   positive slack parameters kappa and lambda.

Diamonds themselves reduce to since/until with a true witness.  After
normalize, a negation-free formula uses only predicates, true,
conjunction, since and until.

RULES maps each rule identifier below to its node class, its mode (None:
both) and its rewrite function; normalize and apply_rule_at both fire
rules through it, so replay runs exactly the code that produced a log.

  R-DIA-F   dplus[l,h] A   ->  (true U[l,h] A)
  R-DIA-P   dminus[l,h] A  ->  (true S[l,h] A)
  R-BOXF-P  bplus[l,h] A   ->  dplus[l,l] (A U[h-l,h-l] true)
  R-BOXP-P  bminus[l,h] A  ->  dminus[l,l] (A S[h-l,h-l] true)
  R-BOXF-M  bplus[l,h] A   ->  dplus[(3l-h)/2,l] (A U[h-l,h-l+kappa] true)
                               & dplus[h,(3h-l)/2] (A S[h-l,h-l+lambda] true)
  R-BOXP-M  bminus[l,h] A  ->  dminus[(3l-h)/2,l] (A S[h-l,h-l+lambda] true)
                               & dminus[h,(3h-l)/2] (A U[h-l,h-l+kappa] true)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    DegenerateBoundError,
    MitlPreconditionError,
    NonpositiveSlackError,
    NotApplicableError,
)
from .intervals import rat
from .syntax import (
    And,
    Bound,
    BoxMinus,
    BoxPlus,
    DiaMinus,
    DiaPlus,
    Formula,
    Not,
    Since,
    Top,
    Until,
    children,
    replace_children,
)


@dataclass(frozen=True)
class Punctual:
    pass


@dataclass(frozen=True)
class SingletonFree:
    """Slack parameters; None means (hi - lo) / 2, resolved per box."""

    kappa: Optional[Fraction] = None
    lam: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("kappa", "lam"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, rat(v))
                if getattr(self, name) <= 0:
                    raise NonpositiveSlackError(f"{name} must be positive, got {v}")


RewriteMode = Union[Punctual, SingletonFree]


@dataclass(frozen=True, eq=False, repr=False)
class RuleApplication:
    """One logged rule firing.  `link` locates the node it fired at: ()
    at the root, else (the parent's link, child index), so applications
    down one spine share their prefixes and a log stays linear in depth.
    `.path` spells the link out, on each read, as child indices from the
    root.  Equality, hash and repr go by (rule, path, kappa, lam), since
    a deep link nests too far for tuple ==, hash or repr."""

    rule: str
    link: tuple
    kappa: Optional[Fraction] = None
    lam: Optional[Fraction] = None

    @property
    def path(self) -> tuple[int, ...]:
        steps, link = [], self.link
        while link:
            link, i = link
            steps.append(i)
        return tuple(reversed(steps))

    def _key(self) -> tuple:
        return self.rule, self.path, self.kappa, self.lam

    def __eq__(self, other) -> bool:
        return isinstance(other, RuleApplication) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "RuleApplication(rule=%r, path=%r, kappa=%r, lam=%r)" % self._key()

    def __reduce__(self):
        # pickle and deepcopy would recurse through a deep link: go by the path
        return _from_path, self._key()


def _from_path(rule: str, path: tuple[int, ...], kappa, lam) -> RuleApplication:
    """The application with its link rebuilt from the flat path."""
    link: tuple = ()
    for i in path:
        link = (link, i)
    return RuleApplication(rule, link, kappa, lam)


class RewriteReport(NamedTuple):
    input: Formula
    output: Formula
    applied: tuple[RuleApplication, ...]


# The since/until connective each diamond becomes.
_DIAMOND_CORE = {DiaPlus: Until, DiaMinus: Since}
# Per box: the diamond looking its way, then the connectives looking the
# same way and the other way.
_BOX_PARTS = {BoxPlus: (DiaPlus, Until, Since), BoxMinus: (DiaMinus, Since, Until)}


def rewrite_diamond(f: Formula) -> Formula:
    """Eliminate a root diamond in favor of since/until with a true witness."""
    core = _DIAMOND_CORE.get(type(f))
    if core is None:
        raise NotApplicableError(f"no diamond at the root of {type(f).__name__}")
    return core(Top(), f.bound, f.body)


def _box_parts(f: Formula) -> tuple[type, type, type]:
    parts = _BOX_PARTS.get(type(f))
    if parts is None:
        raise NotApplicableError(f"no box at the root of {type(f).__name__}")
    return parts


def rewrite_box_punctual(f: Formula) -> Formula:
    """Eliminate a root box using singleton bounds.

    The window [t+lo, t+hi] is covered by requiring, at the single point
    t+lo, that the body then persists for hi-lo time units (witnessed by
    an until/since whose bound is the singleton [hi-lo, hi-lo]).
    """
    dia, ahead, _ = _box_parts(f)
    lo, hi = f.bound.lo, f.bound.hi
    return dia(Bound(lo, lo), ahead(f.body, Bound(hi - lo, hi - lo), Top()))


def rewrite_box_singleton_free(f: Formula, kappa, lam) -> Formula:
    """Eliminate a root box without introducing singleton bounds.

    Two overlapping persistence requirements, one anchored in
    [t + (3lo-hi)/2, t+lo] and one in [t+hi, t + (3hi-lo)/2], jointly
    cover [t+lo, t+hi].  Needs lo < hi, 3*lo >= hi, kappa > 0, lam > 0.
    """
    dia, ahead, behind = _box_parts(f)
    kappa, lam = rat(kappa), rat(lam)
    lo, hi = f.bound.lo, f.bound.hi
    if lo == hi:
        raise DegenerateBoundError(f"bound {f.bound} is a singleton")
    if 3 * lo < hi:
        raise MitlPreconditionError(f"bound {f.bound} violates 3*lo >= hi")
    if kappa <= 0:
        raise NonpositiveSlackError(f"kappa must be positive, got {kappa}")
    if lam <= 0:
        raise NonpositiveSlackError(f"lambda must be positive, got {lam}")
    width = hi - lo
    # until persists with slack kappa, since with slack lambda
    persist = {Until: Bound(width, width + kappa), Since: Bound(width, width + lam)}
    return And(
        dia(Bound((3 * lo - hi) / 2, lo), ahead(f.body, persist[ahead], Top())),
        dia(Bound(hi, (3 * hi - lo) / 2), behind(f.body, persist[behind], Top())),
    )


class Rule(NamedTuple):
    """The node class a rule rewrites, its mode (None: every mode) and
    rewrite(node, application) -> the rewritten node."""

    node: type
    mode: Optional[type]
    rewrite: Callable[[Formula, RuleApplication], Formula]


RULES: dict[str, Rule] = {
    "R-DIA-F": Rule(DiaPlus, None, lambda f, app: rewrite_diamond(f)),
    "R-DIA-P": Rule(DiaMinus, None, lambda f, app: rewrite_diamond(f)),
    "R-BOXF-P": Rule(BoxPlus, Punctual, lambda f, app: rewrite_box_punctual(f)),
    "R-BOXP-P": Rule(BoxMinus, Punctual, lambda f, app: rewrite_box_punctual(f)),
    "R-BOXF-M": Rule(
        BoxPlus, SingletonFree, lambda f, app: rewrite_box_singleton_free(f, app.kappa, app.lam)
    ),
    "R-BOXP-M": Rule(
        BoxMinus, SingletonFree, lambda f, app: rewrite_box_singleton_free(f, app.kappa, app.lam)
    ),
}


def _fire(app: RuleApplication, node: Formula) -> Formula:
    rule = RULES.get(app.rule)
    if rule is None:
        raise NotApplicableError(f"unknown rule {app.rule!r}")
    if type(node) is not rule.node:
        raise NotApplicableError(f"{app.rule} does not match {type(node).__name__}")
    return rule.rewrite(node, app)


def _slack(rule: Rule, mode: RewriteMode, bound: Bound) -> tuple[Optional[Fraction], ...]:
    """kappa and lambda of a singleton-free box rule; None for the others."""
    if rule.mode is not SingletonFree:
        return None, None
    default = (bound.hi - bound.lo) / 2
    kappa = mode.kappa if mode.kappa is not None else default
    lam = mode.lam if mode.lam is not None else default
    return kappa, lam


def normalize(f: Formula, mode: RewriteMode) -> RewriteReport:
    """Bottom-up elimination of every box and diamond outside negations.

    Negated subtrees pass through untouched.  The applied-rule log lists
    every step with the link of the node it fired at (see
    RuleApplication) in an order that replays: folding apply_rule_at over
    the input reproduces the output exactly.  A shared subtree is
    rewritten, and logged, once per path.  The walk is iterative and each
    node on it carries its link; a rule's result is walked again at the
    same link, passing over every node already finished as normal.
    """
    rule_for = {r.node: rid for rid, r in RULES.items() if r.mode in (None, type(mode))}
    log: list[RuleApplication] = []
    done: list[Formula] = []  # normalized operands awaiting their parent
    normal: set = set()  # finished nodes at which no rule fired
    todo: list = [(f, (), None)]  # node, link, operands
    while todo:
        node, link, kids = todo.pop()
        if kids is None:
            if type(node) is Not or node in normal:
                done.append(node)
                continue
            kids = children(node)
            todo.append((node, link, kids))
            for i in reversed(range(len(kids))):
                todo.append((kids[i], (link, i), None))
            continue
        operands = tuple(done[len(done) - len(kids) :])
        del done[len(done) - len(kids) :]
        node = replace_children(node, operands)
        rid = rule_for.get(type(node))
        if rid is None:
            normal.add(node)
            done.append(node)
            continue
        app = RuleApplication(rid, link, *_slack(RULES[rid], mode, node.bound))
        log.append(app)
        todo.append((_fire(app, node), link, None))
    (output,) = done
    return RewriteReport(input=f, output=output, applied=tuple(log))


def apply_rule_at(f: Formula, app: RuleApplication) -> Formula:
    """Replay a single logged rule application at its recorded path:
    descend keeping the spine, fire, and rebuild the spine upward."""
    path = app.path
    spine = [f]
    for i in path:
        spine.append(children(spine[-1])[i])
    new = _fire(app, spine.pop())
    for parent, i in zip(reversed(spine), reversed(path)):
        kids = list(children(parent))
        kids[i] = new
        new = replace_children(parent, tuple(kids))
    return new
