"""Command-line interface.

Subcommands: parse, rewrite, eval, census, check.  Machine-readable
output goes to stdout, diagnostics to stderr.  Exit codes: 0 success
(and campaigns with zero failures), 1 campaign failures, 2 syntax errors,
invalid campaign settings (including an oracle grid too large to build)
and output too large to print, 3 rewrite precondition violations, 4 I/O
errors (including files that are not UTF-8, and a stdout that its
reader closed before the output ended, which exits quietly), 5 a
campaign that compared no trial, 6 an internal error (an exception that
is not a BmtlError: a fault in bmtl).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import BmtlError, OutputTooLargeError, RewriteError
from .evaluate import eval_truth_set, reliable_region
from .harness import MAX_DEPTH_CAP, GenConfig, run_campaign
from .intervals import Interval
from .parser import parse_formula
from .rewrite import Punctual, RewriteMode, SingletonFree, normalize
from .syntax import Formula, census, print_formula, s_expression
from .traces import RATIONAL, parse_trace

EXIT_OK = 0
EXIT_CAMPAIGN_FAILURES = 1
EXIT_SYNTAX = 2
EXIT_REWRITE = 3
EXIT_IO = 4
EXIT_NOTHING_COMPARED = 5
EXIT_INTERNAL = 6


_RATIONAL_RE = re.compile(RATIONAL)


def _fraction_arg(text: str) -> Fraction:
    """A rational written as trace endpoints are: n or n/d, d nonzero."""
    m = _RATIONAL_RE.fullmatch(text)
    try:
        if m is not None and int(m[2] or 1):
            return Fraction(int(m[1]), int(m[2] or 1))
    except ValueError:  # a number past the int conversion limit
        pass
    raise argparse.ArgumentTypeError(f"not a rational n or n/d: {text!r}")


def _text(x) -> str:
    """str(x); a number past the int conversion limit is too large to print."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise OutputTooLargeError(f"a number to print has more than {limit} digits") from None


def _interval_json(p: Interval) -> dict:
    return {
        "lo": _text(p.lo),
        "hi": _text(p.hi),
        "lo_closed": p.lo_closed,
        "hi_closed": p.hi_closed,
    }


def _fail(message: str, exit_code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return exit_code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a leading byte-order mark is not text; stripped after decoding,
            # so that an error's byte offset still counts from the file's start
            return fh.read().removeprefix("\ufeff")
    except OSError as e:
        raise _IOFailure(str(e))
    except UnicodeDecodeError as e:
        raise _IOFailure(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
    except ValueError as e:  # open() refuses a path holding a NUL
        raise _IOFailure(f"{path!r}: {e}")


def _load_formula(ns) -> Formula:
    if ns.file is not None:
        if ns.formula is not None:
            raise _UsageError("give a formula inline or via --file, not both")
        text = _read_text(ns.file)
    else:
        if ns.formula is None:
            raise _UsageError("a formula is required (inline or via --file)")
        text = ns.formula
    return parse_formula(text)


class _UsageError(Exception):
    pass


class _IOFailure(Exception):
    pass


def _build_mode(ns) -> RewriteMode:
    if ns.mode == "punctual":
        if ns.kappa is not None or ns.lam is not None:
            raise _UsageError("--kappa/--lambda only apply to --mode mitl")
        return Punctual()
    return SingletonFree(kappa=ns.kappa, lam=ns.lam)


def _cmd_parse(ns) -> int:
    f = _load_formula(ns)
    if ns.json:
        print(json.dumps({"ast": s_expression(f)}))
    else:
        print(s_expression(f))
    return EXIT_OK


def _cmd_rewrite(ns) -> int:
    f = _load_formula(ns)
    mode = _build_mode(ns)
    report = normalize(f, mode)
    if ns.json:
        payload = {"formula": print_formula(report.output)}
        if ns.report:
            payload["applied"] = [
                {"rule": app.rule, "path": list(app.path)}
                | ({"kappa": str(app.kappa), "lambda": str(app.lam)}
                   if app.kappa is not None else {})
                for app in report.applied
            ]
        print(json.dumps(payload))
    else:
        print(print_formula(report.output))
        if ns.report:
            for app in report.applied:
                where = ".".join(str(i) for i in app.path) or "root"
                extra = f" kappa={app.kappa} lambda={app.lam}" if app.kappa is not None else ""
                print(f"applied {app.rule} at {where}{extra}")
    return EXIT_OK


def _cmd_eval(ns) -> int:
    f = _load_formula(ns)
    tr = parse_trace(_read_text(ns.trace))
    truth = eval_truth_set(f, tr)
    region = reliable_region(f, tr)
    if ns.json:
        reliable = _interval_json(region) if region is not None else None
        print(json.dumps({"truth": [_interval_json(p) for p in truth], "reliable": reliable}))
    else:
        print(f"truth: {_text(truth)}")
        print(f"reliable: {_text(region) if region is not None else 'empty'}")
    return EXIT_OK


def _cmd_census(ns) -> int:
    f = _load_formula(ns)
    c = census(f)
    if ns.json:
        print(json.dumps({**c._asdict(), "counts": dict(sorted(c.counts.items()))}))
    else:
        for name in sorted(c.counts):
            print(f"{name}: {c.counts[name]}")
        print(f"has_singleton_bound: {str(c.has_singleton_bound).lower()}")
        print(f"max_depth: {c.max_depth}")
    return EXIT_OK


def _cmd_check(ns) -> int:
    mode = _build_mode(ns)
    cfg = GenConfig(
        seed=ns.seed,
        trials=ns.trials,
        max_depth=ns.max_depth,
        bound_max=ns.bound_max,
        bound_denominator_max=ns.bound_denominator_max,
        facts_per_trace=ns.facts,
        horizon_length=ns.horizon_length,
    )
    report = run_campaign(cfg, mode)
    if ns.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"mode: {report.mode}")
        print(
            f"trials: {report.trials}  passes: {report.passes}  "
            f"failures: {len(report.failures)}  empty-region: {report.empty_regions}"
        )
        print(f"elapsed: {report.wall_time_s:.1f}s")
        for failure in report.failures[:5]:
            print(
                f"failure (trial {failure.trial}, {failure.kind}): {failure.formula}",
                file=sys.stderr,
            )
    if report.failures:
        return EXIT_CAMPAIGN_FAILURES
    return EXIT_OK if report.trials else EXIT_NOTHING_COMPARED


def _add_formula_args(sub: argparse.ArgumentParser):
    sub.add_argument("formula", nargs="?", help="formula text (or use --file)")
    sub.add_argument("--file", help="read the formula from this path")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_mode_args(sub: argparse.ArgumentParser):
    sub.add_argument("--mode", choices=("punctual", "mitl"), required=True)
    sub.add_argument("--kappa", type=_fraction_arg, default=None)
    sub.add_argument("--lambda", dest="lam", type=_fraction_arg, default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bmtl",
        description="Bounded metric temporal logic: parse, rewrite, evaluate, census, check.",
    )
    subs = top.add_subparsers(dest="command", required=True)

    p_parse = subs.add_parser("parse", help="parse a formula and print its AST")
    _add_formula_args(p_parse)
    p_parse.set_defaults(func=_cmd_parse)

    p_rw = subs.add_parser("rewrite", help="normalize away boxes and diamonds")
    _add_formula_args(p_rw)
    _add_mode_args(p_rw)
    p_rw.add_argument("--report", action="store_true", help="list applied rules")
    p_rw.set_defaults(func=_cmd_rewrite)

    p_eval = subs.add_parser("eval", help="evaluate a formula over a trace")
    _add_formula_args(p_eval)
    p_eval.add_argument("--trace", required=True, help="trace file path")
    p_eval.set_defaults(func=_cmd_eval)

    p_census = subs.add_parser("census", help="operator counts and bound shapes")
    _add_formula_args(p_census)
    p_census.set_defaults(func=_cmd_census)

    p_check = subs.add_parser("check", help="run a rewrite-equivalence campaign")
    _add_mode_args(p_check)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument(
        "--max-depth",
        type=int,
        default=3,
        help=f"formula nesting depth, at most {MAX_DEPTH_CAP} (default 3)",
    )
    p_check.add_argument("--bound-max", type=_fraction_arg, default=Fraction(4))
    p_check.add_argument("--bound-denominator-max", type=int, default=4)
    p_check.add_argument("--facts", type=int, default=5)
    p_check.add_argument("--horizon-length", type=_fraction_arg, default=Fraction(40))
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: not a fault, and
        # nothing left to report.  Point stdout at devnull so that the
        # flush at exit finds nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except _UsageError as e:
        return _fail(str(e), EXIT_SYNTAX)
    except _IOFailure as e:
        return _fail(str(e), EXIT_IO)
    except RewriteError as e:
        return _fail(f"[{e.code}] {e}", EXIT_REWRITE)
    except BmtlError as e:
        return _fail(f"[{e.code}] {e}", EXIT_SYNTAX)
    except Exception as e:
        # not an input fault but a bmtl one: kept apart from exit 1, which
        # would read as a campaign that found failures
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
