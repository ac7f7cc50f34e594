"""Fuzzing the input boundary: arbitrary text, bytes and argv must end in
a `BmtlError` from the parsers and in a documented exit code from the
CLI, never in a traceback or in exit 6 (an internal error).

`check` is left out: arbitrary argv could start long campaigns.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import bmtl.cli as cli
from bmtl.errors import BmtlError, ParseError
from bmtl.parser import parse_formula
from bmtl.syntax import print_formula
from bmtl.traces import format_trace, parse_trace
from conftest import formulas_st, traces_st


def _token_text(tokens):
    """Strings glued from tokens, so inputs get past the first character."""
    return st.lists(st.sampled_from(tokens), max_size=40).map("".join)


_FORMULA_TOKENS = (
    "p", "q", "true", "!", "&", "(", ")", " ", "U", "S", "bplus", "bminus", "dplus",
    "dminus", "[", "]", ",", "/", "-", "0", "1", "2", "7", "99999999999999999999", "\n", "#",
)
_TRACE_TOKENS = (
    "horizon", "p", "q", "@", "[", "]", ",", "/", "-", " ", "\n", "#", "0", "1", "3",
    "10", "99999999999999999999",
)

# arbitrary text, token soup, and well-formed input (alone, or with
# token soup after it) so that some inputs reach the evaluator
formulas = st.one_of(
    st.text(),
    _token_text(_FORMULA_TOKENS),
    formulas_st(allow_not=True).map(print_formula),
)
traces = st.one_of(
    st.text(),
    _token_text(_TRACE_TOKENS),
    traces_st().map(format_trace),
    st.tuples(traces_st().map(format_trace), _token_text(_TRACE_TOKENS)).map("".join),
)
trace_files = st.one_of(
    st.binary(),
    traces.map(lambda t: t.encode("utf-8")),
    # text with a byte that is never UTF-8 spliced in
    st.tuples(traces, traces).map(lambda ab: ab[0].encode() + b"\xff" + ab[1].encode()),
)


@settings(max_examples=300)
@given(formulas)
def test_parse_formula_raises_only_bmtl_errors(text):
    try:
        parse_formula(text)
    except ParseError as e:
        # a position names a place in the text: a line it has, and a
        # column at most one past that line's end
        if e.line is not None:
            lines = text.split("\n")
            assert 1 <= e.line <= len(lines), (e.line, len(lines))
            assert e.column is None or 1 <= e.column <= len(lines[e.line - 1]) + 1, e.column
    except BmtlError:
        pass


@settings(max_examples=300)
@given(traces)
def test_parse_trace_raises_only_bmtl_errors(text):
    try:
        parse_trace(text)
    except BmtlError:
        pass


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.txt"


@settings(max_examples=150)
@given(data=trace_files, formula=formulas)
def test_eval_ends_in_a_documented_exit_code(trace_path, data, formula):
    trace_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--trace", str(trace_path), "--", formula])
    assert code in (cli.EXIT_OK, cli.EXIT_SYNTAX, cli.EXIT_IO), err.getvalue()


_SUBCOMMANDS = ("parse", "rewrite", "census", "eval")
_FLAGS = ("--mode", "--kappa", "--lambda", "--report", "--json", "--file", "--trace")
_RATIONALS = ("0", "1", "-1", "1/2", "3/4", "-2/3", "1/0", "99999999999999999999", "1" * 5000)
# stand-ins for the paths of a valid trace file and of a missing file
_PATHS = ("<trace>", "<missing>")

argvs = st.tuples(
    st.sampled_from(_SUBCOMMANDS),
    st.lists(
        st.one_of(
            st.sampled_from(_SUBCOMMANDS + _FLAGS + ("punctual", "mitl") + _RATIONALS + _PATHS),
            formulas,
            st.text(),
        ),
        max_size=8,
    ),
).map(lambda t: [t[0], *t[1]])


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "trace.txt").write_text("horizon [-5,15]\np @ [0,4]\nq @ [3,6]\n")
    return dict(zip(_PATHS, (str(root / "trace.txt"), str(root / "missing.txt"))))


@settings(max_examples=200)
@given(argvs)
@example(["parse", "--file", "a\x00b"])
@example(["eval", "--trace", "a\x00b", "p"])
def test_argv_ends_in_a_documented_exit_code(argv_paths, argv):
    argv = [argv_paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    assert code in (cli.EXIT_OK, cli.EXIT_SYNTAX, cli.EXIT_REWRITE, cli.EXIT_IO), err.getvalue()
