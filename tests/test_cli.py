"""Command line interface: exit codes, JSON schemas, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import braidreps
from braidreps import (
    FieldContext,
    Matrix,
    RepSpec,
    ParameterSet,
    build_rep,
    minpoly,
    parse_element,
    rationals,
)
from braidreps import cli
from braidreps.cli import main


_small = st.integers(min_value=-6, max_value=6)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuild:
    def test_single_dim2(self, capsys):
        payload = run_json(capsys, "build", "--params", "[1, 2]", "--dim", "2")
        (rep,) = payload["reps"]
        assert rep["g2"]["entries"] == ["4", "2", "-3", "-1"]
        assert rep["g1"]["entries"] == ["1", "0", "0", "2"]

    def test_dim_defaults_to_set_size(self, capsys):
        payload = run_json(capsys, "build", "--params", "[1, 2, 3]")
        assert payload["reps"][0]["spec"]["dim"] == 3

    def test_dim4_without_h_emits_both_roots(self, capsys):
        payload = run_json(capsys, "build", "--params", "[1, 2, 3, 6]")
        hs = sorted(r["spec"]["h"] for r in payload["reps"])
        assert hs == ["-6", "6"]

    def test_dim6_without_variant_emits_all_five(self, capsys):
        payload = run_json(capsys, "build", "--params", "[1, 2, 3, 4, 5]",
                           "--dim", "6")
        variants = sorted(r["spec"]["variant"] for r in payload["reps"])
        assert variants == [1, 2, 3, 4, 5]

    def test_extension_context(self, capsys):
        payload = run_json(capsys, "build", "--params", "[1, 2, 3, 4]",
                           "--context", "t^2-24")
        hs = {r["spec"]["h"] for r in payload["reps"]}
        assert hs == {"[0, 1]", "[0, -1]"}


class TestVerify:
    def test_dim2_pair_report(self, capsys):
        payload = run_json(capsys, "verify", "--params", "[1, 2]", "--dim", "2")
        assert payload["all_ok"] is True
        assert payload["braid_relation_ok"] is True
        assert payload["minpoly_ok"] is True
        assert payload["spectral"]["C_rho"] == "-8"
        assert payload["spectral"]["all_ok"] is True

    def test_all_dims_pass(self, capsys):
        for params, extra in (
            ("[1, 2, 3]", ()),
            ("[1, 2, 3, 6]", ()),
            ("[1, 2, 3, 4, 5]", ("--dim", "6", "--variant", "2")),
        ):
            payload = run_json(capsys, "verify", "--params", params, *extra)
            assert payload["all_ok"] is True, params

    @pytest.mark.parametrize("params, variant", [
        *((["-4", "3/2", "[0,3]", "-1", "1/2"], v) for v in (1, 2, 3, 4, 5)),
        (["-1", "-2", "-4", "3", "[-4,1/2]"], 2),
    ])
    def test_minpoly_over_reducible_modulus(self, capsys, params, variant):
        # Q[t]/(t^2 - 1) = Q x Q through t -> 1 and t -> -1: minpoly(g2) is
        # P_X, and it maps to the minimal polynomial of each image over Q
        payload = run_json(capsys, "verify", "--context", "t^2-1", "--params",
                           json.dumps(params), "--dim", "6", "--variant", str(variant))
        assert payload["minpoly_ok"] is True and payload["all_ok"] is True
        ctx = FieldContext([-1, 0, 1])
        X = ParameterSet(tuple(parse_element(ctx, v) for v in params))
        rep = build_rep(RepSpec(dim=6, params=X, variant=variant))
        mp = minpoly(rep.g2)
        q = rationals()
        for sign in (1, -1):
            image = Matrix(q, 6, 6, [q.from_rational(e.coeffs[0] + sign * e.coeffs[1])
                                     for e in rep.g2.entries])
            assert [c.coeffs[0] + sign * c.coeffs[1] for c in mp.coeffs] == \
                [c.rational_value() for c in minpoly(image).coeffs]


class TestIrred:
    def test_generic_irreducible(self, capsys):
        payload = run_json(capsys, "irred", "--params", "[1, 2]", "--dim", "2")
        assert payload["oracle_irreducible"] is True
        assert payload["predicate_verdict_irreducible"] is True
        assert payload["verdicts_agree"] is True
        assert payload["witness"] is None

    def test_degenerate_with_witness(self, capsys):
        payload = run_json(capsys, "irred", "--params", "[2, 1, -4]")
        assert payload["oracle_irreducible"] is False
        assert payload["verdicts_agree"] is True
        assert payload["witness"]["Y"] == [2, 3]
        assert payload["witness"]["complement_found"] is False
        assert payload["decomposable"] is False
        names = [p["name"] for p in payload["predicates"] if p["zero"]]
        assert "I3(1,2,3)" in names

    def test_dim6_line_witness(self, capsys):
        payload = run_json(capsys, "irred", "--params",
                           '["2", "3", "-1", "1/6", "1"]',
                           "--dim", "6", "--variant", "5")
        assert payload["witness"]["Y"] == []
        assert payload["witness"]["line"] == ["-441/5", "-63/5"]

    def test_predicates_multiply_over_a_product_of_fields(self, capsys):
        # over t^2 - 1 no predicate is 0, but each image is reducible through
        # a different one, so their product vanishes: both routes say reducible
        payload = run_json(capsys, "irred", "--context", "t^2-1", "--params",
                           '["[1/2,7/2]", "[0,1]", "[1/2,-7/2]", "[-3/2,-5/2]", '
                           '"[-12,-28/3]"]', "--f=[-3,-1]")
        assert not any(p["zero"] for p in payload["predicates"])
        assert payload["predicate_verdict_irreducible"] is False
        assert payload["oracle_irreducible"] is False
        assert payload["witness"] is None and payload["decomposable"] is None

    @pytest.mark.parametrize("params, option, root", [
        ('["-3/4", "3/2", "-2/3", "27"]', "--h", "-9/2"),
        ('[1, -1, 2, 4, "1/256"]', "--f", "-1/2"),
    ])
    def test_negative_fractional_root_in_either_form(self, capsys, params, option, root):
        spaced = run_cli(capsys, "irred", "--params", params, option, root)
        joined = run_cli(capsys, "irred", "--params", params, f"{option}={root}")
        assert spaced[0] == 0, spaced[2]
        assert spaced == joined


class TestSemisimple:
    def test_generic_census(self, capsys):
        payload = run_json(capsys, "semisimple", "--params", "[1, 2, 3]")
        assert payload["verdict"] is True
        assert payload["failing"] == []
        assert payload["census"]["sum_of_squares"] == 24

    def test_i3_degenerate_triple(self, capsys):
        payload = run_json(capsys, "semisimple", "--params", "[2, 1, -4]")
        assert payload["verdict"] is False
        assert [p["name"] for p in payload["failing"]] == ["I3(1,2,3)"]
        assert payload["census"] is None

    def test_j6_degenerate_five_set(self, capsys):
        payload = run_json(capsys, "semisimple", "--params", "[1, 2, 3, 4, 24]")
        assert payload["verdict"] is False
        assert "J6(1,5)" in [p["name"] for p in payload["failing"]]

    def test_constructive_mode(self, capsys):
        payload = run_json(capsys, "semisimple", "--params", "[1, 2, 3, 6]",
                           "--mode", "constructive")
        assert payload["census"]["sum_of_squares"] == 96
        assert payload["census"]["mode"] == "constructive"


class TestEval:
    def test_central_word(self, capsys):
        payload = run_json(capsys, "eval", "--params", "[1, 2]", "--dim", "2",
                           "--words", "(s1 s2)^3", "--words", "b^2")
        first, second = payload["words"]
        assert first["matrix"] == second["matrix"]
        assert first["matrix"]["entries"] == ["-8", "0", "0", "-8"]
        assert first["trace"] == "-16"

    def test_words_required(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--params", "[1, 2]")
        assert code == 2
        assert "word" in err.lower()


class TestExitCodes:
    def test_six_eigenvalues_rejected(self, capsys):
        code, _, err = run_cli(capsys, "semisimple", "--params",
                               "[1, 2, 3, 4, 5, 6]")
        assert code == 2
        assert "finite" in err.lower()

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_bad_word_syntax(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--params", "[1, 2]",
                               "--words", "s3 s1")
        assert code == 2

    def test_repeated_eigenvalues(self, capsys):
        code, _, err = run_cli(capsys, "build", "--params", "[1, 1]")
        assert code == 2

    def test_root_missing_in_context(self, capsys):
        code, _, err = run_cli(capsys, "build", "--params", "[1, 2, 3, 4]",
                               "--dim", "4")
        assert code == 2
        assert "square root" in err

    @pytest.mark.parametrize("argv, dim, count", [
        (("verify", "--params", "[1,2,3,4,5]", "--dim", "4"), 4, 4),
        (("verify", "--params", "[1,2,3,4]", "--dim", "5"), 5, 5),
        (("verify", "--params", "[1,2,3,4,6]", "--dim", "4"), 4, 4),
    ], ids=["d4-e4-no-root", "d5-e5-no-root", "d4-e4-root"])
    def test_eigenvalue_count_checked_before_roots(self, capsys, argv, dim, count):
        # the first two said that e4 = 120 and e5 = 24 have no root; whether
        # e_d(X) has one in the context must not decide which error is named
        expected = f"error: dimension {dim} needs exactly {count} eigenvalues\n"
        assert run_cli(capsys, *argv) == (2, "", expected)

    @pytest.mark.parametrize("params", ['["[1,2,3]", 2]', "[[1,2,3], 2]"],
                             ids=["string", "list"])
    def test_coefficient_vector_longer_than_the_degree(self, capsys, params):
        expected = ("error: bad parameters: coefficient vector of length 3 in a "
                    "degree 2 context\n")
        assert run_cli(capsys, "build", "--context", "t^2-24", "--params", params) == (
            2, "", expected)

    def test_json_integer_past_the_digit_limit(self, capsys, tmp_path):
        # json raises a plain ValueError, no JSONDecodeError, past 4300 digits
        text = "[1" + "0" * 5000 + ", 2]"
        path = tmp_path / "job.json"
        path.write_text(text, encoding="utf-8")
        for argv, head in [(text, "error: bad inline params: "),
                           (f"@{path}", "error: cannot read params file: ")]:
            code, out, err = run_cli(capsys, "build", "--params", argv)
            assert code == 2 and out == ""
            assert err.startswith(head) and "digits" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("verify", "--params", '{"X": 5}'),
        ("verify", "--params", '{"X": "12"}'),
        ("build", "--params", '{"X": ["1", "2", "3"], "dim": "x"}'),
        ("verify", "--params", '{"X": [1, 2, 3, 4, 5], "dim": 6, "variant": "x"}'),
        ("scan", "--params", '{"grid": [["1", "2"]], "jobs": "x"}'),
        ("scan", "--params", '{"grid": [5]}'),
        ("verify", "--context", "t^2-24", "--params", '["[1,23", 2]'),
        ("semisimple", "--params", '{"X": [1, 2, 3, 4, 24], "mode": "bogus"}'),
        ("semisimple", "--params", '{"X": [1, 2, 3, 4, 5], "mode": "bogus"}'),
        ("eval", "--params", "[1, 2]", "--words", "s1^99999999"),
        ("eval", "--params", "[1, 2]", "--words", "(s1^1000)^2"),
        ("eval", "--params", "[1, 2]", "--words", "(s1 s2)^1000 " * 6),
        ("eval", "--params", '["1/99991", 2]', "--words", "s1^1000"),
        ("verify", "--params", '[1, "1/0"]'),
        ("semisimple", "--params", '[1, "2/0", 3]'),
        ("build", "--context", "t^2-1/0", "--params", "[1,2]"),
        ("build", "--params", "[1,2]", "--dim", "4", "--h", "1/0"),
        ("scan", "--params", '{"grid": [["1/0", "2"]]}'),
        ("eval", "--params", '{"X": [1, 2], "words": "ab"}'),
        ("eval", "--params", '{"X": [1, 2], "words": {"a": 1}}'),
        ("eval", "--params", '{"X": [1, 2], "words": [1]}'),
        ("eval", "--params", '{"X": [1, 2], "words": [null]}'),
        ("eval", "--params", '{"X": [1, 2], "words": ["a", 2]}'),
        ("build", "--params", "[1,2]", "--context", "t^65"),
        ("build", "--params", "[1,2]", "--context", "t^1000"),
        ("build", "--params", json.dumps({"X": [1, 2], "context": [-2] + [0] * 64 + [1]})),
        ("build", "--params", "@/nonexistent/x.json"),
        ("build", "--params", "[1,"),
        ("build", "--params", "5"),
        ("scan", "--params", '{"grid": [[1, 2]], "mode": "x"}'),
        ("verify", "--params", json.dumps(["7" * 1000])),
    ], ids=["X-int", "X-string", "build-dim", "variant", "scan-jobs",
            "grid-row", "unbalanced-bracket", "mode-not-semisimple",
            "mode-semisimple", "word-exponent", "word-merged-exponent",
            "word-length", "result-too-large", "zero-denominator-X",
            "zero-denominator-semisimple", "zero-denominator-context",
            "zero-denominator-h", "zero-denominator-grid", "words-string",
            "words-object", "words-int", "words-null", "words-mixed",
            "modulus-degree-65", "modulus-degree-1000", "modulus-list-66",
            "params-file-missing", "params-bad-json", "params-scalar", "scan-mode",
            "result-too-large-at-encode"])
    def test_malformed_job_fields(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("build", "--params", '{"X": [true, 2]}'),
        ("semisimple", "--params", "[false, 2]"),
        ("build", "--params", '{"X": [1, 2, 3, 6], "h": true}'),
        ("verify", "--context", "t^2-24", "--params", '[[1, true], 2]'),
        ("build", "--params", '{"X": [1, 2], "context": [true, 0, 1]}'),
    ], ids=["X", "semisimple-X", "h", "coefficient", "modulus"])
    def test_boolean_is_not_a_rational(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a rational: " in err

    @pytest.mark.parametrize("argv, message", [
        (("build", "--params", "[1,2]", "--h", "5"), "dimension 2 takes no root or variant"),
        (("verify", "--params", "[1,2,3]", "--variant", "9", "--f", "7"),
         "dimension 3 takes no root or variant"),
        (("build", "--params", "[1,2,3,6]", "--h", "6", "--f", "2"), "dimension 4 takes no f"),
        (("irred", "--params", "[1,2,3,6]", "--variant", "2"), "dimension 4 takes no variant"),
        (("build", "--params", "[-4, 1, 2, 4, -1]", "--h", "2"), "dimension 5 takes no h"),
        (("verify", "--params", "[-4, 1, 2, 4, -1]", "--f", "2", "--variant", "1"),
         "dimension 5 takes no variant"),
        (("irred", "--params", "[1, 2, 3, 4, 5]", "--dim", "6", "--f", "2"),
         "dimension 6 takes no f"),
        (("eval", "--params", "[1, 2, 3, 4, 5]", "--dim", "6", "--h", "2", "--words", "s1"),
         "dimension 6 takes no h"),
    ], ids=["d2-h", "d3-f-variant", "d4-f", "d4-variant", "d5-h", "d5-variant",
            "d6-f", "d6-h"])
    def test_option_the_dimension_does_not_take(self, capsys, argv, message):
        # each was dropped silently: the call built the rep without it
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["semisimple", "irred"])
    def test_zero_divisor_exits_two(self, capsys, command):
        # Q[t]/(t^2 - 1) = Q x Q, and at t = 1 this is the fixture (2, 1, -4):
        # no verdict is printed, and the factor t - 1 is named
        code, out, err = run_cli(capsys, command, "--context", "t^2-1", "--params",
                                 '["[5/2,-1/2]", 1, "[1/2,-9/2]"]')
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero divisor" in err and "['-1', '1']" in err

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["build", "verify", "irred", "semisimple",
                                    "constructive"]),
           values=st.lists(st.tuples(_small, _small), min_size=1, max_size=5,
                           unique=True),
           variant=st.none() | st.integers(min_value=1, max_value=5))
    # products of nonzero factors that are exactly 0: in a builder's delta,
    # in det g1, and in the semisimplicity predicates
    @example(command="build", values=[(-3, 0), (1, 0), (-2, -1), (-6, 1), (0, 1)],
             variant=None)
    @example(command="constructive", values=[(5, 2), (1, 0), (2, 0), (-1, -1), (-2, 0)],
             variant=None)
    @example(command="irred", values=[(5, 5), (5, -5)], variant=None)
    def test_zero_divisors_never_raise(self, command, values, variant):
        # Q[t]/(t^2 - 1) = Q x Q: every call answers or exits 2 with one line
        argv = [command, "--context", "t^2-1",
                "--params", json.dumps([f"[{a},{b}]" for a, b in values])]
        if command == "constructive":
            argv[:1] = ["semisimple", "--mode", "constructive"]
        elif len(values) == 5 and command != "semisimple":
            argv += ["--dim", "6"] + ([] if variant is None else ["--variant", str(variant)])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1

    def test_long_word_rejected_before_evaluation(self, capsys):
        # 2 000 000 letters in 2000 factors: refused at parse time
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "--params", "[1,2]",
                                 "--words", "(s1^1000 s2^1000)^1000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "letters" in err

    def test_growing_product_stopped_during_evaluation(self, capsys, monkeypatch):
        # 10 000 letters, within the parse bounds: the running product passes
        # the printable digit limit before the last factor, and evaluation
        # stops there instead of finishing the word
        products = []
        real = braidreps.Matrix.__matmul__

        def counting(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(braidreps.Matrix, "__matmul__", counting)
        code, out, err = run_cli(
            capsys, "eval", "--params", "[1,2,3]", "--words",
            "((s1 s2^-1)^1000)^2 (s1 s2^-1)^1000 (s1 s2^-1)^1000 ((s1 s2^-1)^1000)")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "too large to print" in err
        assert len(products) < 10_000 - 1

    def test_census_mismatch_exits_one(self, capsys, monkeypatch):
        import braidreps.analysis as analysis

        monkeypatch.setattr(analysis, "_combinatorial_count", lambda n: 5)
        code, out, err = run_cli(capsys, "semisimple", "--params", "[1, 2]")
        assert code == 1 and out == ""
        assert "sum of squared dimensions 5 != algebra dimension 6" in err

    def test_identity_violation_exits_one(self, capsys, monkeypatch):
        import braidreps.cli as climod

        def broken(rep):
            raise climod.CheckFailure("braid relation violated (forced)")

        monkeypatch.setattr(climod, "spectral_report", broken)
        code, _, err = run_cli(capsys, "verify", "--params", "[1, 2]")
        assert code == 1
        assert "braid relation" in err

    def test_failed_spectral_check_exits_one(self, capsys, monkeypatch):
        # a report whose trace of A disagrees with its closed form
        real = cli.spectral_report

        def failing(rep):
            report = real(rep)
            checks = tuple((name, name != "trace_A") for name, _ in report.checks)
            return dataclasses.replace(report, checks=checks, all_ok=False)

        monkeypatch.setattr(cli, "spectral_report", failing)
        code, out, err = run_cli(capsys, "verify", "--params", "[1, 2, 3]")
        assert (code, out) == (1, "")
        assert err == "check failed: verification failed: trace_A\n"

    def test_oracle_disagreeing_with_predicates_exits_one(self, capsys, monkeypatch):
        # no predicate of (1, 2, 3) vanishes, but the oracle says reducible
        monkeypatch.setattr(cli, "irreducibility", lambda rep: (False, None))
        code, out, err = run_cli(capsys, "irred", "--params", "[1, 2, 3]")
        assert (code, out) == (1, "")
        assert err == ("check failed: predicate/oracle disagreement: oracle says "
                       "reducible, vanishing predicates: none\n")

    def test_construction_failure_exits_one(self, capsys, monkeypatch):
        import braidreps.reps as reps

        real = reps._build_dim2

        def corrupted(values):
            return [[2 * e for e in row] for row in real(values)]

        monkeypatch.setattr(reps, "_build_dim2", corrupted)
        code, out, err = run_cli(capsys, "verify", "--params", "[1, 2]")
        assert code == 1 and out == ""
        assert err.startswith("check failed: braid relation failed")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestOutputPlumbing:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "semisimple", "--params", "[1, 2]",
                               "--output", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["verdict"] is True

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "build", "--params", "[1, 2]",
                                 "--output", str(target))
        assert code == 2 and out == "" and not target.exists()
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_job_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"X": [1, 2, 3, 6], "dim": 4, "h": "6"}))
        payload = run_json(capsys, "verify", "--params", f"@{cfg}")
        assert payload["spectral"]["C_rho"] == "216"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "semisimple", "--params", "[1, 2, 3]")
        _, out2, _ = run_cli(capsys, "semisimple", "--params", "[1, 2, 3]")
        assert out1 == out2

    def test_parser_reused_without_leaks(self, capsys):
        # one parser serves every call in the process; no option value of
        # one call may reach the next
        first = run_json(capsys, "eval", "--params", "[1, 2, 3]", "--dim", "3",
                         "--words", "s1", "--words", "s2")
        second = run_json(capsys, "eval", "--params", "[1, 2]", "--words", "s1 s2")
        third = run_json(capsys, "irred", "--params", "[2, 1, -4]")
        assert [w["word"] for w in first["words"]] == ["s1", "s2"]
        assert [w["word"] for w in second["words"]] == ["s1 s2"]
        assert second["spec"]["dim"] == 2
        assert third["command"] == "irred" and "words" not in third
        assert third["spec"]["dim"] == 3
        assert cli._make_parser() is cli._make_parser()

    def test_module_entry_point(self):
        src = str(Path(braidreps.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "braidreps", "semisimple", "--params", "[1, 2]"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] is True

    def test_console_script_installed(self):
        exe = shutil.which("braidreps")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "semisimple", "--params", "[1, 2]"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] is True


class TestScan:
    GRID = [[1, 2, 3], [2, 1, -4], [1, 2], [1, 2, 3, 4, 24]]

    def _write_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": self.GRID}))
        return path

    def test_scan_reports_each_point(self, capsys, tmp_path):
        cfg = self._write_grid(tmp_path)
        payload = run_json(capsys, "scan", "--params", f"@{cfg}")
        assert len(payload["points"]) == 4
        assert [p["index"] for p in payload["points"]] == [0, 1, 2, 3]
        assert payload["points"][0]["verdict"] is True
        assert payload["points"][1]["verdict"] is False
        assert "I3(1,2,3)" in payload["points"][1]["failing"]
        assert "J6(1,5)" in payload["points"][3]["failing"]

    def test_worker_count_independence(self, capsys, tmp_path):
        cfg = self._write_grid(tmp_path)
        _, serial, _ = run_cli(capsys, "scan", "--params", f"@{cfg}", "--jobs", "1")
        _, parallel, _ = run_cli(capsys, "scan", "--params", f"@{cfg}", "--jobs", "3")
        assert serial == parallel

    def test_grid_values_read_like_params(self, capsys):
        # coefficient lists of strings, as --params takes them, serially and
        # through the worker pool
        grid = [[["1", "1"], 2, 3], [["1/2", "-1"], "3/4", 5]]
        params = json.dumps({"grid": grid})
        serial, parallel = (run_json(capsys, "scan", "--context", "t^2-24", "--params", params,
                                     "--jobs", jobs) for jobs in ("1", "2"))
        assert serial == parallel
        for point, xs in zip(serial["points"], grid):
            single = run_json(capsys, "semisimple", "--context", "t^2-24",
                              "--params", json.dumps(xs))
            assert point["X"] == single["X"]
            assert point["verdict"] == single["verdict"]
        assert serial["points"][0]["X"] == ["[1, 1]", "2", "3"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, "scan", "--params", '{"grid": [[1, 2]]}',
                                 "--jobs", jobs)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cpus,expected", [(3, [3]), (8, [4]), (None, [])])
    def test_jobs_capped(self, capsys, monkeypatch, tmp_path, cpus, expected):
        # A stub pool records the worker count and runs nothing in parallel.
        import braidreps.cli as climod

        started = []

        class StubPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(t) for t in tasks]

        cfg = self._write_grid(tmp_path)
        _, serial, _ = run_cli(capsys, "scan", "--params", f"@{cfg}")
        monkeypatch.setattr(climod, "Pool", StubPool)
        monkeypatch.setattr(climod.os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, "scan", "--params", f"@{cfg}", "--jobs", "64")
        assert code == 0 and out == serial
        assert started == expected

    def test_grid_required(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--params", "[1, 2]")
        assert code == 2
        assert "grid" in err.lower()
