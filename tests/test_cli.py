"""Command-line contract: subcommands, exit codes, output stability."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import bmtl.cli as cli
from bmtl.harness import CampaignReport, GenConfig, TrialFailure


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_prints_ast(self, capsys):
        code, out, err = run(capsys, "parse", "bplus[1,3] p")
        assert code == 0
        assert out.strip() == "(bplus [1,3] (pred p))"
        assert err == ""

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "(p & q)")
        assert code == 0
        assert json.loads(out) == {"ast": "(and (pred p) (pred q))"}

    # a bound's numbers are ASCII digits: Arabic-Indic 3 and 4 are not
    @pytest.mark.parametrize("text", ["p &", "bplus[\u0663,\u0664] p"])
    def test_syntax_error_exits_2(self, capsys, text):
        code, out, err = run(capsys, "parse", text)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_reads_formula_from_file(self, capsys, tmp_path):
        path = tmp_path / "f.bmtl"
        path.write_text("dminus[0,2] q\n")
        code, out, _ = run(capsys, "parse", "--file", str(path))
        assert code == 0
        assert out.strip() == "(dminus [0,2] (pred q))"

    @pytest.mark.parametrize("command", [("parse",), ("rewrite", "--mode", "mitl")])
    def test_byte_order_mark_is_not_text(self, capsys, tmp_path, command):
        plain, marked = tmp_path / "plain.bmtl", tmp_path / "marked.bmtl"
        plain.write_text("bplus[1,2] (p & q)\n")
        marked.write_bytes("\ufeffbplus[1,2] (p & q)\n".encode())
        want = run(capsys, *command, "--file", str(plain))
        assert want[0] == 0
        assert run(capsys, *command, "--file", str(marked)) == want

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "parse", "--file", str(tmp_path / "absent"))
        assert code == 4
        assert "error:" in err

    def test_inline_and_file_together_exit_2(self, capsys, tmp_path):
        path = tmp_path / "f.bmtl"
        path.write_text("p\n")
        code, _, err = run(capsys, "parse", "p", "--file", str(path))
        assert code == 2

    def test_no_formula_exits_2(self, capsys):
        code, _, err = run(capsys, "parse")
        assert code == 2


class TestRewrite:
    def test_punctual(self, capsys):
        code, out, _ = run(capsys, "rewrite", "--mode", "punctual", "bplus[1,3] p")
        assert code == 0
        assert out.strip() == "(true U[1,1] (p U[2,2] true))"

    def test_report_lists_rules(self, capsys):
        code, out, _ = run(
            capsys, "rewrite", "--mode", "punctual", "--report", "bplus[1,3] p"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "(true U[1,1] (p U[2,2] true))"
        assert "applied R-BOXF-P at root" in lines[1]
        assert "applied R-DIA-F at root" in lines[2]

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "rewrite",
            "--mode",
            "mitl",
            "--kappa",
            "1",
            "--lambda",
            "1",
            "--report",
            "--json",
            "bplus[2,4] p",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["formula"] == (
            "((true U[1,2] (p U[2,3] true)) & (true U[4,5] (p S[2,3] true)))"
        )
        rules = [a["rule"] for a in payload["applied"]]
        assert rules == ["R-BOXF-M", "R-DIA-F", "R-DIA-F"]
        assert payload["applied"][0]["kappa"] == "1"
        assert payload["applied"][0]["path"] == []

    def test_degenerate_bound_exits_3(self, capsys):
        code, _, err = run(capsys, "rewrite", "--mode", "mitl", "bplus[2,2] p")
        assert code == 3
        assert "DEGENERATE_BOUND" in err

    def test_wide_window_exits_3(self, capsys):
        code, _, err = run(capsys, "rewrite", "--mode", "mitl", "bminus[1,4] p")
        assert code == 3
        assert "MITL_PRECONDITION" in err

    def test_slack_with_punctual_exits_2(self, capsys):
        code, _, err = run(
            capsys, "rewrite", "--mode", "punctual", "--kappa", "1", "bplus[1,3] p"
        )
        assert code == 2

    def test_oversized_output_exits_2(self, capsys):
        # each singleton-free box shares its body between two conjuncts:
        # the 30-deep chain's text would have billions of characters
        code, out, err = run(capsys, "rewrite", "--mode", "mitl", "bplus[1,2] " * 30 + "p")
        assert code == 2
        assert out == ""
        assert err == "error: [OUTPUT_TOO_LARGE] formula text longer than 1,000,000 characters\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_oversized_report_exits_2_quickly(self, capsys, tmp_path, json_flag):
        # 3,000 boxes log 6,000 applications down paths up to 3,000 long:
        # the log alone would print over 18,000,000 characters, the
        # formula some 60,000
        path = tmp_path / "chain.txt"
        path.write_text("bplus[1,2] " * 3000 + "p")
        started = time.monotonic()
        code, out, err = run(
            capsys, "rewrite", "--mode", "punctual", "--report", *json_flag, "--file", str(path)
        )
        assert time.monotonic() - started < 2
        assert code == 2
        assert out == ""
        assert err == "error: [OUTPUT_TOO_LARGE] rewrite report longer than 1,000,000 characters\n"

    def test_report_under_the_cap_prints_whole(self, capsys):
        # 300 boxes: 600 applications, paths up to 300 long
        formula = "bplus[1,2] " * 300 + "p"
        code, text, _ = run(capsys, "rewrite", "--mode", "punctual", "--report", formula)
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 601
        assert lines[1] == "applied R-BOXF-P at " + ".".join(["0"] * 299)
        assert lines[-1] == "applied R-DIA-F at root"
        code, out, _ = run(capsys, "rewrite", "--mode", "punctual", "--report", "--json", formula)
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload) + "\n"
        assert payload["formula"] == lines[0]
        assert len(payload["applied"]) == 600
        assert payload["applied"][0] == {"rule": "R-BOXF-P", "path": [0] * 299}

    def test_fractional_slack_parses(self, capsys):
        code, out, _ = run(
            capsys, "rewrite", "--mode", "mitl", "--kappa", "1/2", "bplus[2,4] p"
        )
        assert code == 0
        assert "U[2,5/2]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("rewrite", "--mode", "mitl", "--kappa", "1.5", "bplus[1,2] p"),
        ("rewrite", "--mode", "mitl", "--kappa", "1e0", "bplus[1,2] p"),
        ("rewrite", "--mode", "mitl", "--lambda", " 4/1 ", "bplus[1,2] p"),
        ("rewrite", "--mode", "mitl", "--kappa", "1/0", "bplus[1,2] p"),
        ("rewrite", "--mode", "mitl", "--kappa", "1" * 5000, "bplus[1,2] p"),
        ("rewrite", "--mode", "mitl", "--kappa", "\u0661/\u0662", "bplus[1,2] p"),
        ("check", "--mode", "mitl", "--kappa", "1.5", "--trials", "1"),
        ("check", "--mode", "punctual", "--bound-max", "1e0", "--trials", "1"),
        ("check", "--mode", "punctual", "--horizon-length", "40.0", "--trials", "1"),
    ],
    ids=[
        "kappa-decimal",
        "kappa-exponent",
        "lambda-spaces",
        "kappa-zero-denominator",
        "kappa-past-int-conversion-limit",
        "kappa-arabic-indic-digits",
        "check-kappa-decimal",
        "bound-max-exponent",
        "horizon-decimal",
    ],
)
def test_rational_options_take_the_trace_endpoint_grammar_only(capsys, argv):
    # the same form as trace endpoints and formula bounds: n or n/d
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "not a rational n or n/d" in capsys.readouterr().err


TRACE_TEXT = "horizon [-5,15]\np @ [0,4]\nq @ [3,6]\n"


class TestEval:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(TRACE_TEXT)
        return str(path)

    def test_eval_json(self, capsys, trace_file):
        code, out, _ = run(
            capsys, "eval", "--json", "--trace", trace_file, "dminus[1,2] p"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["truth"] == [
            {"lo": "1", "hi": "6", "lo_closed": True, "hi_closed": True}
        ]
        assert payload["reliable"] == {
            "lo": "-3",
            "hi": "15",
            "lo_closed": True,
            "hi_closed": True,
        }

    def test_eval_human(self, capsys, trace_file):
        code, out, _ = run(capsys, "eval", "--trace", trace_file, "dminus[1,2] p")
        assert code == 0
        assert out.splitlines()[0] == "truth: {[1,6]}"

    def test_eval_rational_output_keeps_fractions(self, capsys, trace_file):
        code, out, _ = run(
            capsys, "eval", "--json", "--trace", trace_file, "dminus[1/2,3/2] p"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["truth"][0]["lo"] == "1/2"
        assert payload["truth"][0]["hi"] == "11/2"

    def test_missing_trace_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--trace", str(tmp_path / "absent"), "p"
        )
        assert code == 4

    # the second is a horizon whose end is 10 in Arabic-Indic digits
    @pytest.mark.parametrize("text", ["p @ [0,1]\n", "horizon [0,\u0661\u0660]\np @ [0,1]\n"])
    def test_malformed_trace_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "eval", "--trace", str(path), "p")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text", ["horizon [0,1/0]\n", "horizon [0,10]\np @ [0,1/0]\n"])
    def test_zero_denominator_in_trace_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "eval", "--trace", str(path), "p")
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    def test_non_utf8_trace_exits_4(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"horizon [0,10]\np @ [0,1] # \xff\n")
        code, out, err = run(capsys, "eval", "--trace", str(path), "p")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_byte_order_mark_is_not_text(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(TRACE_TEXT)
        marked.write_bytes(b"\xef\xbb\xbf" + TRACE_TEXT.encode())
        want = run(capsys, "eval", "--trace", str(plain), "dminus[1,2] p")
        assert want[0] == 0
        assert run(capsys, "eval", "--trace", str(marked), "dminus[1,2] p") == want

    def test_non_utf8_byte_after_a_byte_order_mark_is_counted_from_the_file_start(
            self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xef\xbb\xbfhorizon [0,10]\n\xff\n")
        code, out, err = run(capsys, "eval", "--trace", str(path), "p")
        assert code == 4
        assert "at byte 18)" in err

    def test_internal_error_exits_6(self, capsys, monkeypatch, trace_file):
        def broken(*_):
            raise ValueError("kernel invariant broken")

        monkeypatch.setattr(cli, "eval_truth_set", broken)
        code, out, err = run(capsys, "eval", "--trace", trace_file, "p")
        assert code == cli.EXIT_INTERNAL == 6
        assert out == ""
        assert err == "internal error: ValueError: kernel invariant broken\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_end_past_the_int_conversion_limit_exits_2(self, capsys, tmp_path, json_flag):
        # each input number has 3,000 digits; the truth set's ends have
        # about 6,000, past what str() of an int converts
        path = tmp_path / "fine.txt"
        path.write_text(f"horizon [-5,10]\np @ [1/{'7' * 3000},1]\n")
        formula = f"dminus[1/3{'1' * 2999},2] p"
        code, out, err = run(capsys, "eval", *json_flag, "--trace", str(path), formula)
        assert code == 2
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: [OUTPUT_TOO_LARGE] a number to print has more than {limit} digits\n"

    def test_stdout_closed_early_exits_4_quietly(self, tmp_path):
        # a truth set of 20,000 parts, far more text than a pipe buffers:
        # the reader closes after 10 bytes, as `| head -c 10` does
        path = tmp_path / "large.txt"
        path.write_text("horizon [0,80000]\n"
                        + "".join(f"p @ [{4 * i},{4 * i + 1}]\n" for i in range(20_000)))
        src = Path(__file__).resolve().parent.parent / "src"
        child = subprocess.Popen(
            [sys.executable, "-m", "bmtl", "eval", "--trace", str(path), "(p U[0,1/7] p)"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            assert child.stdout.read(10) == b"truth: {[0"
            child.stdout.close()
            err = child.stderr.read()
        finally:
            code = child.wait(timeout=120)
        assert code == cli.EXIT_IO == 4
        assert err == b""

    def test_empty_reliable_region_is_null(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("horizon [0,2]\n")
        code, out, _ = run(capsys, "eval", "--json", "--trace", str(path), "dminus[0,3] p")
        assert code == 0
        assert json.loads(out)["reliable"] is None


class TestCensus:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "census", "--json", "(bplus[1,3] p & dplus[2,2] q)"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "counts": {"and": 1, "bplus": 1, "dplus": 1, "pred": 2},
            "has_singleton_bound": True,
            "max_depth": 2,
        }

    def test_human(self, capsys):
        code, out, _ = run(capsys, "census", "bplus[1,3] p")
        assert code == 0
        assert "bplus: 1" in out
        assert "has_singleton_bound: false" in out


class TestCheck:
    def test_small_campaign_green(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--mode",
            "punctual",
            "--seed",
            "3",
            "--trials",
            "10",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "punctual"
        assert payload["failures"] == []
        assert payload["trials"] == payload["passes"]

    def test_human_output(self, capsys):
        code, out, _ = run(
            capsys, "check", "--mode", "mitl", "--seed", "3", "--trials", "5"
        )
        assert code == 0
        assert "mode: mitl" in out
        assert "trials:" in out

    def test_failures_exit_1(self, capsys, monkeypatch):
        cfg = GenConfig(seed=0, trials=1)
        fake = CampaignReport(mode="punctual", config=cfg, trials=1, passes=0)
        fake.failures.append(
            TrialFailure(
                trial=0,
                kind="mismatch",
                formula="p",
                normalized="p",
                trace="horizon [0,1]",
                witness="1/2",
            )
        )
        monkeypatch.setattr(cli, "run_campaign", lambda *_: fake)
        code, out, err = run(
            capsys, "check", "--mode", "punctual", "--trials", "1", "--json"
        )
        assert code == 1
        assert json.loads(out)["failures"][0]["witness"] == "1/2"

    @pytest.mark.parametrize(
        "flags",
        [("--trials", "-1"), ("--bound-max", "0"), ("--max-depth", "2000")],
        ids=["trials", "bound_max", "max_depth"],
    )
    def test_out_of_range_settings_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "check", "--mode", "punctual", *flags)
        assert code == 2
        assert out == ""
        assert "[CONFIG_ERROR]" in err

    def test_mitl_bounds_within_a_small_bound_max(self, capsys):
        flags = ("--seed", "42", "--trials", "50", "--bound-max", "1/2")
        code, out, _ = run(capsys, "check", "--mode", "mitl", *flags)
        assert code == 0
        assert "failures: 0" in out

    def test_mitl_without_a_legal_bound_exits_2(self, capsys):
        flags = ("--bound-max", "1/4", "--trials", "5")
        code, out, err = run(capsys, "check", "--mode", "mitl", *flags)
        assert code == 2
        assert out == ""
        assert "[CONFIG_ERROR]" in err

    def test_depth_cap_is_named(self, capsys):
        code, _, err = run(capsys, "check", "--mode", "punctual", "--max-depth", "33")
        assert code == 2
        assert "max_depth must be at most 32" in err

    def test_json_output_is_byte_stable(self, capsys):
        args = ("check", "--mode", "punctual", "--seed", "3", "--trials", "5", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a) == json.dumps(b)

    def test_too_fine_oracle_grid_exits_2(self, capsys):
        flags = ("--trials", "3", "--bound-denominator-max", "40")
        code, out, err = run(capsys, "check", "--mode", "punctual", *flags)
        assert code == cli.EXIT_SYNTAX == 2
        assert out == ""
        assert err.startswith("error: [ORACLE_GRID_TOO_FINE] ")
        assert err.count("\n") == 1
        # a narrow span at a fine scale: the message names the scale
        assert "444326401 points" in err
        assert "[-20,20] is 40 time units wide, at 11108160 points per time unit" in err

    def test_too_wide_oracle_grid_names_the_width(self, capsys):
        flags = ("--trials", "3", "--horizon-length", "100000000000000000000")
        code, out, err = run(capsys, "check", "--mode", "mitl", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: [ORACLE_GRID_TOO_FINE] ")
        assert "is 299999999999999999975/3 time units wide, at 24 points per time unit" in err

    def test_campaign_that_compared_nothing_exits_5(self, capsys):
        flags = ("--horizon-length", "1/2", "--trials", "20")
        code, out, err = run(capsys, "check", "--mode", "punctual", *flags)
        assert code == cli.EXIT_NOTHING_COMPARED == 5
        assert "trials: 0  passes: 0  failures: 0  empty-region: 20" in out
        assert err == ""

    def test_compared_nothing_keeps_json(self, capsys):
        flags = ("--horizon-length", "1/2", "--trials", "4", "--json")
        code, out, _ = run(capsys, "check", "--mode", "mitl", *flags)
        assert code == 5
        payload = json.loads(out)
        assert (payload["trials"], payload["empty_regions"]) == (0, 4)
