"""Bounded metric temporal logic over dense rational time.

Parsing, exact interval-set evaluation, elimination of box and diamond
operators in favor of since/until, and randomized equivalence campaigns
that check the rewriting against an independent pointwise oracle.
"""

from .errors import (
    BmtlError,
    ConfigError,
    DegenerateBoundError,
    FactOutsideHorizonError,
    InvertedBoundError,
    MissingHorizonError,
    MitlPreconditionError,
    NegativeBoundError,
    NonpositiveSlackError,
    NotApplicableError,
    OracleGridError,
    OutputTooLargeError,
    ParseError,
    PointOutsideHorizonError,
    RewriteError,
)
from .evaluate import eval_truth_set, reliable_region
from .harness import (
    CampaignReport,
    GenConfig,
    Trial,
    TrialFailure,
    Verdict,
    check_equivalence,
    gen_formula,
    gen_trace,
    run_campaign,
    run_trial,
)
from .intervals import Interval, IntervalSet, coalesce, rat
from .oracle import oracle_eval_many, oracle_first_difference
from .parser import parse_formula
from .rewrite import (
    Punctual,
    RewriteMode,
    RewriteReport,
    RuleApplication,
    SingletonFree,
    apply_rule_at,
    normalize,
    rewrite_box_punctual,
    rewrite_box_singleton_free,
    rewrite_diamond,
)
from .syntax import (
    And,
    Bound,
    BoxMinus,
    BoxPlus,
    Census,
    DiaMinus,
    DiaPlus,
    Formula,
    Not,
    Pred,
    Scope,
    Since,
    Top,
    Until,
    census,
    children,
    print_formula,
    s_expression,
    scope,
)
from .traces import Fact, Trace, format_trace, parse_trace

__version__ = "0.1.0"
