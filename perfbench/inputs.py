"""Seeded input generators for the three workloads.

Every generator takes the workload seed and derives its own random
stream from it, so the same seed always yields the same inputs and the
library only ever sees the generated values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

PREDICATES = ("p", "q", "r")

# Facts per predicate of the eval-large traces: the mix holds one
# request per size of each family, eight sizes a family, evenly spaced
# on a log scale.  Since/until sizes run from 80 to 240 because the
# clause is quadratic today (about 0.2 s at 240 facts and 3.3 s at 1000
# on a 2-CPU machine): the whole mix then runs in about a second and a
# half, so a run times each request seventeen times, and sixteen requests
# make a smooth latency distribution.  The sizes span enough for the
# clause's growth to show as a slope; window-only requests reach 1000
# facts, where parsing dominates.
FAMILY_SIZES = {
    "since_until": tuple(round(80 * 3 ** (k / 7)) for k in range(8)),
    "window": tuple(round(250 * 4 ** (k / 7)) for k in range(8)),
}

# Each fact sits in its own slot of this width, so the facts of one
# predicate never touch and a trace with n facts per predicate has
# truth bases of exactly n parts: request cost then depends on n, not on
# how many facts the seed happened to overlap.
SLOT = 4

# Lattice of the probe points checked against the oracle; a multiple of
# every denominator the generators emit.
PROBE_DENOMINATOR = 8
PROBES_PER_REQUEST = 16


def stream(seed: int, *tags) -> random.Random:
    """An independent random stream for (seed, tags); stable across runs."""
    return random.Random("perfbench/" + "/".join(str(t) for t in (seed, *tags)))


def campaign_seed(seed: int, index: int) -> int:
    """GenConfig seed of the index-th campaign request of a run (index < 10**6).

    A request replays on its own as
    ``bmtl check --seed <campaign_seed> --trials 1``.
    """
    return seed * 1_000_000 + index


@dataclass(frozen=True)
class EvalRequest:
    family: str  # "since_until" or "window"
    facts: int  # closed facts per predicate
    formula: str
    trace: str
    probe_seed: str  # stream tag for the oracle probe points


def trace_text(rng: random.Random, facts: int) -> str:
    """Trace text: one closed fact per slot and predicate, in shuffled order."""
    horizon = SLOT * facts
    lines = []
    for name in PREDICATES:
        for slot in range(facts):
            d = rng.choice((1, 2, 4))
            start = rng.randint(0, 3 * d // 2)  # offset in [0, 3/2]
            length = rng.randint(1, 2 * d)  # length in (0, 2]
            lo = Fraction(SLOT * slot * d + start, d)
            hi = lo + Fraction(length, d)
            lines.append(f"{name} @ [{lo},{hi}]")
    rng.shuffle(lines)
    return f"horizon [0,{horizon}]\n" + "\n".join(lines) + "\n"


def _bound(rng: random.Random) -> str:
    lo = Fraction(rng.randint(0, 4), 2)
    hi = lo + rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
    return f"[{lo},{hi}]"


def since_until_formula(rng: random.Random) -> str:
    """One since or until over two distinct predicates, sometimes negated.

    Bounds start at 0 or 1/2: later starts shift most witnesses out of
    the left operand's parts, which makes the clause markedly cheaper,
    so a wider choice would let the seed rather than the size set the cost.
    """
    left, right = rng.sample(PREDICATES, 2)
    op = rng.choice("SU")
    lo = rng.choice((Fraction(0), Fraction(1, 2)))
    hi = lo + rng.choice((Fraction(1, 2), Fraction(1)))
    core = f"({left} {op}[{lo},{hi}] {right})"
    return "!" + core if rng.random() < 0.5 else core


WINDOW_OPS = ("dplus", "dminus", "bplus", "bminus")


def window_formula(rng: random.Random) -> str:
    """Two window operators, a negation and a conjunction; never since/until.

    One fixed shape, so that the trace size rather than the seed sets
    the cost.
    """
    x, y = rng.sample(PREDICATES, 2)
    outer, inner = rng.choice(WINDOW_OPS), rng.choice(WINDOW_OPS)
    return f"{outer}{_bound(rng)} ({x} & {inner}{_bound(rng)} !{y})"


def eval_mix(seed: int) -> list[EvalRequest]:
    """The eval-large mix: one request per family and size, each with its
    own trace."""
    rng = stream(seed, "eval")
    out = []
    for family, sizes in FAMILY_SIZES.items():
        for facts in sizes:
            formula = since_until_formula(rng) if family == "since_until" else window_formula(rng)
            out.append(EvalRequest(family, facts, formula, trace_text(rng, facts),
                                   f"probe/{len(out)}"))
    return out


def probe_points(seed: int, request: EvalRequest, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Seeded lattice points inside [lo, hi] for the oracle check."""
    rng = stream(seed, request.probe_seed)
    d = PROBE_DENOMINATOR
    first, last = math.ceil(lo * d), math.floor(hi * d)
    if first > last:
        return []
    return [Fraction(rng.randint(first, last), d) for _ in range(PROBES_PER_REQUEST)]
