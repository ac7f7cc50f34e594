"""Randomized equivalence campaigns for the rewriting pipeline.

Reproducibility: every random draw comes from a Mersenne Twister seeded
with a splitmix64-style mix of (campaign seed, stream tag, stream
index), so a (seed, config) pair fully determines every formula, trace,
wrapper box and slack value, independently of iteration interleaving.
Reports are deterministic modulo wall time.

A trial generates a negation-free formula and a trace, wraps the
formula under one fresh box (either polarity), normalizes it, and
compares exact truth sets inside the reliable region, where horizon
edge effects cannot leak in.  When they agree, both truth sets are
cross-checked against the pointwise witness oracle on the whole
region, at every point of the oracle's grid, which is exact there.

Trials whose reliable region is empty are counted separately: with the
region empty there is nothing to compare, so they are neither passes
nor failures, and passes + failures equals the number of trials that
actually ran.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ConfigError
from .evaluate import eval_truth_set, reliable_region
from .intervals import Interval, IntervalSet, rat
from .oracle import oracle_first_difference
from .rewrite import Punctual, RewriteMode, SingletonFree, normalize
from .syntax import KINDS_BY_NAME, And, Bound, BoxMinus, BoxPlus, Formula, Not, Pred, print_formula
from .traces import NAME, Trace, format_trace

_MASK = (1 << 64) - 1

# stream tags
_TAG_FORMULA = 1
_TAG_TRACE = 2
_TAG_TRIAL = 3


def _mix(*parts: int) -> int:
    """splitmix64-style combination of integers into one 64-bit seed."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= p & _MASK
        h = (h * 0xBF58476D1CE4E5B9) & _MASK
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
    return h


def _stream(seed: int, tag: int, index: int) -> random.Random:
    return random.Random(_mix(seed, tag, index))


# generated formulas grow about as 1.28**depth nodes (6,921 on average at
# depth 32, where 20 trials take up to 10 s on a 2-CPU VM), and at depth
# 2000 the recursive generator runs out of stack
MAX_DEPTH_CAP = 32


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_depth: int = 3
    predicate_pool: tuple[str, ...] = ("p", "q", "r")
    bound_denominator_max: int = 4
    bound_max: Fraction = Fraction(4)
    facts_per_trace: int = 5
    horizon_length: Fraction = Fraction(40)
    trials: int = 100

    def __post_init__(self):
        object.__setattr__(self, "bound_max", rat(self.bound_max))
        object.__setattr__(self, "horizon_length", rat(self.horizon_length))
        object.__setattr__(self, "predicate_pool", tuple(self.predicate_pool))
        if min(self.max_depth, self.trials, self.facts_per_trace) < 0:
            raise ConfigError("max_depth, trials and facts_per_trace must be non-negative")
        if self.max_depth > MAX_DEPTH_CAP:
            raise ConfigError(f"max_depth must be at most {MAX_DEPTH_CAP}, got {self.max_depth}")
        if self.bound_denominator_max < 1:
            raise ConfigError("bound_denominator_max must be at least 1")
        if self.bound_max <= 0 or self.horizon_length <= 0:
            raise ConfigError("bound_max and horizon_length must be positive")
        if not self.predicate_pool:
            raise ConfigError("predicate pool must not be empty")
        keywords = {k.keyword for k in KINDS_BY_NAME.values()}
        for name in self.predicate_pool:  # each must print as text that parses back to it
            if not (isinstance(name, str) and re.fullmatch(NAME, name)) or name in keywords:
                raise ConfigError(f"predicate name {name!r} is not an identifier or is a keyword")


def _least_denominator(cfg: GenConfig, count: int) -> int:
    """The least d with count multiples of 1/d in (0, bound_max], if d <= bound_denominator_max."""
    d = -(-count * cfg.bound_max.denominator // cfg.bound_max.numerator)
    if d > cfg.bound_denominator_max:
        raise ConfigError(f"mitl bounds within bound_max {cfg.bound_max} need denominator {d} "
                          f"or more; bound_denominator_max is {cfg.bound_denominator_max}")
    return d


def _any_bound(cfg: GenConfig, rng: random.Random, singleton_free: bool) -> Bound:
    # a singleton-free bound needs a step of 1/d within bound_max
    least = _least_denominator(cfg, 1) if singleton_free else 1
    d = rng.randint(least, cfg.bound_denominator_max)
    cap = int(cfg.bound_max * d)
    a, b = sorted((rng.randint(0, cap), rng.randint(0, cap)))
    if singleton_free and a == b:
        if b < cap:
            b += 1
        else:
            a -= 1
    return Bound(Fraction(a, d), Fraction(b, d))


def _mitl_box_bound(cfg: GenConfig, rng: random.Random) -> Bound:
    # lo < hi <= 3*lo, both within (0, bound_max]: d leaves two steps
    d = rng.randint(_least_denominator(cfg, 2), cfg.bound_denominator_max)
    cap = int(cfg.bound_max * d)
    n1 = rng.randint(1, cap - 1)
    n2 = rng.randint(n1 + 1, min(3 * n1, cap))
    return Bound(Fraction(n1, d), Fraction(n2, d))


_LEAF_W = [("pred", 0.85), ("top", 0.15)]
_NODE_W = [
    ("pred", 0.15),
    ("top", 0.03),
    ("and", 0.14),
    ("bplus", 0.08),
    ("bminus", 0.08),
    ("dplus", 0.10),
    ("dminus", 0.10),
    ("since", 0.16),
    ("until", 0.16),
]


def _pick(rng: random.Random, table) -> str:
    roll = rng.random() * sum(w for _, w in table)
    for name, w in table:
        roll -= w
        if roll < 0:
            return name
    return table[-1][0]


def gen_formula(
    cfg: GenConfig,
    stream_index: int,
    *,
    box_bounds: str = "any",
    singleton_free: bool = False,
) -> Formula:
    """Deterministic negation-free random formula, nesting <= max_depth.

    box_bounds="mitl" constrains every box bound to lo < hi <= 3*lo so
    the singleton-free rewrite applies throughout; singleton_free=True
    additionally keeps every bound non-degenerate.
    """
    rng = _stream(cfg.seed, _TAG_FORMULA, stream_index)

    def go(budget: int) -> Formula:
        kind = KINDS_BY_NAME[_pick(rng, _LEAF_W if budget == 0 else _NODE_W)]
        if kind.cls is Pred:
            return Pred(rng.choice(cfg.predicate_pool))
        bound = None
        if kind.cls in (BoxPlus, BoxMinus) and box_bounds == "mitl":
            bound = _mitl_box_bound(cfg, rng)
        elif kind.bounded:
            bound = _any_bound(cfg, rng, singleton_free)
        return kind.make([go(budget - 1) for _ in kind.children], bound)

    return go(cfg.max_depth)


def gen_trace(cfg: GenConfig, stream_index: int) -> Trace:
    """Deterministic random trace on the horizon [-L/2, L/2].

    Each fact draws its predicate, a denominator d and the ends a/d and
    b/d with a <= b, both within the horizon.  The draws stay ints: their
    columns go straight to the trace's conversion core, which checks each
    span as it checks a parsed one.
    """
    rng = _stream(cfg.seed, _TAG_TRACE, stream_index)
    half = cfg.horizon_length / 2
    h_num, h_den = half.numerator, half.denominator
    names, los, dens, his = [], [], [], []
    for _ in range(cfg.facts_per_trace):
        name = rng.choice(cfg.predicate_pool)
        d = rng.randint(1, cfg.bound_denominator_max)
        hi_n = h_num * d // h_den
        a = rng.randint(-hi_n, hi_n)
        b = rng.randint(a, hi_n)
        names.append(name)
        los.append(a)
        dens.append(d)
        his.append(b)
    tr = Trace.__new__(Trace)
    tr._build(Interval(-half, half), names, los, dens, his, dens)
    return tr


class Verdict(NamedTuple):
    """Outcome of one comparison.  ``truths`` holds the two truth sets,
    clipped to the region, unless the region is empty."""

    status: str  # "equal" | "not_equal" | "empty_region"
    region: Optional[Interval] = None
    first_diff: Optional[Interval] = None
    witness: Optional[Fraction] = None
    truths: Optional[tuple[IntervalSet, IntervalSet]] = None


def _point_inside(part: Interval) -> Fraction:
    if part.lo_closed:
        return part.lo
    if part.hi_closed:
        return part.hi
    return (part.lo + part.hi) / 2


def check_equivalence(f1: Formula, f2: Formula, tr: Trace) -> Verdict:
    """Compare exact truth sets inside the shared reliable region.

    The region is that of f1 & f2, whose reach is the larger of the two
    formulas' on each side; an empty region is reported as such rather
    than treated as agreement.  The evaluator clips each truth set to
    the region.  When they differ, the points where they do are the
    truth set of f1 xor f2, written in & and !, and first_diff is its
    first part.
    """
    region = reliable_region(And(f1, f2), tr)
    if region is None:
        return Verdict(status="empty_region")
    s1 = eval_truth_set(f1, tr, region)
    s2 = eval_truth_set(f2, tr, region)
    if s1 == s2:
        return Verdict(status="equal", region=region, truths=(s1, s2))
    xor = Not(And(Not(And(f1, Not(f2))), Not(And(f2, Not(f1)))))
    first = eval_truth_set(xor, tr, region).parts[0]
    return Verdict(
        status="not_equal",
        region=region,
        first_diff=first,
        witness=_point_inside(first),
        truths=(s1, s2),
    )


class TrialFailure(NamedTuple):
    trial: int
    kind: str  # "mismatch" | "oracle_mismatch"
    formula: str
    normalized: str
    trace: str
    first_diff: Optional[str] = None
    witness: Optional[str] = None

    def to_json(self) -> dict:
        return self._asdict()


@dataclass
class CampaignReport:
    mode: str
    config: GenConfig
    trials: int = 0
    passes: int = 0
    failures: list[TrialFailure] = field(default_factory=list)
    empty_regions: int = 0
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        """The report's fields, in order, as JSON values.  vars() of a
        dataclass instance holds its fields in declaration order."""
        config = {name: _json_value(v) for name, v in vars(self.config).items()}
        return {**vars(self), "config": config, "failures": [f.to_json() for f in self.failures]}


def _json_value(v):
    """A config value as JSON: a Fraction as an "n/d" string, a tuple as a list."""
    return str(v) if isinstance(v, Fraction) else list(v) if isinstance(v, tuple) else v


def _wrapper_box(cfg: GenConfig, rng: random.Random, mode: RewriteMode, body: Formula) -> Formula:
    future = rng.random() < 0.5
    if isinstance(mode, SingletonFree):
        bound = _mitl_box_bound(cfg, rng)
    else:
        bound = _any_bound(cfg, rng, singleton_free=False)
    return (BoxPlus if future else BoxMinus)(bound, body)


def _random_slack(cfg: GenConfig, rng: random.Random) -> Fraction:
    d = rng.randint(_least_denominator(cfg, 1), cfg.bound_denominator_max)
    return Fraction(rng.randint(1, int(cfg.bound_max * d)), d)


def run_campaign(cfg: GenConfig, mode: RewriteMode) -> CampaignReport:
    """Generate, wrap, normalize and check cfg.trials formulas.

    In singleton-free mode with unset slacks, each trial draws its own
    kappa and lambda from (0, bound_max].  Exit summary counts trials
    that ran (passes + failures) plus empty-region trials.
    """
    started = time.monotonic()
    mode_name = "punctual" if isinstance(mode, Punctual) else "mitl"
    report = CampaignReport(mode=mode_name, config=cfg)
    box_bounds = "mitl" if isinstance(mode, SingletonFree) else "any"
    if box_bounds == "mitl":
        _least_denominator(cfg, 2)  # no legal box bound: refuse before the first trial
    for trial in range(cfg.trials):
        rng = _stream(cfg.seed, _TAG_TRIAL, trial)
        inner = gen_formula(cfg, trial, box_bounds=box_bounds)
        tr = gen_trace(cfg, trial)
        wrapped = _wrapper_box(cfg, rng, mode, inner)
        if isinstance(mode, SingletonFree):
            trial_mode: RewriteMode = SingletonFree(
                kappa=mode.kappa if mode.kappa is not None else _random_slack(cfg, rng),
                lam=mode.lam if mode.lam is not None else _random_slack(cfg, rng),
            )
        else:
            trial_mode = mode
        normalized = normalize(wrapped, trial_mode).output
        verdict = check_equivalence(wrapped, normalized, tr)
        if verdict.status == "empty_region":
            report.empty_regions += 1
            continue
        report.trials += 1
        kind = first_diff = None
        if verdict.status == "not_equal":
            kind, first_diff, witness = "mismatch", str(verdict.first_diff), verdict.witness
        else:
            for f, truth in zip((wrapped, normalized), verdict.truths):
                witness = oracle_first_difference(f, tr, truth, verdict.region)
                if witness is not None:
                    kind = "oracle_mismatch"
                    break
        if kind is None:
            report.passes += 1
        else:
            report.failures.append(TrialFailure(
                trial=trial,
                kind=kind,
                formula=print_formula(wrapped),
                normalized=print_formula(normalized),
                trace=format_trace(tr),
                first_diff=first_diff,
                witness=str(witness),
            ))
    report.wall_time_s = time.monotonic() - started
    return report
