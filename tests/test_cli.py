"""Command line behavior: outputs, formats, exit codes, and report schema."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from apery.cli import build_parser, main, parse_range

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = json.loads((ROOT / "schema" / "report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


class TestParseRange:
    def test_basic(self):
        assert parse_range("-10..10") == (-10, 10)
        assert parse_range("0..5") == (0, 5)

    def test_rejects_garbage(self):
        for bad in ("10", "a..b", "5..1"):
            with pytest.raises(ValueError):
                parse_range(bad)


class TestAperyCommand:
    def test_value(self, capsys):
        assert run_cli(capsys, "apery", "4") == (0, "33001\n", "")

    def test_negative_argument(self, capsys):
        assert run_cli(capsys, "apery", "-1") == (0, "1\n", "")

    def test_modulus(self, capsys):
        assert run_cli(capsys, "apery", "7", "--mod", "25") == (0, "15\n", "")

    def test_modulus_fast_paths_match_exact(self, capsys):
        # prime, prime square, and generic modulus must agree
        from apery.sequence import apery

        for mod in ("13", "169", "1000", "100160063"):
            code, out, _ = run_cli(capsys, "apery", "123", "--mod", mod)
            assert code == 0
            assert int(out) == apery(123) % int(mod)

    def test_large_prime_modulus(self, capsys):
        # every base-p digit of n is below 20, so by the mod p Lucas
        # congruence A(n) is the product of A(d) over those digits
        from apery.sequence import apery

        p = 1000003
        digits = [3, 0, 19, 7, 1]
        n = sum(d * p**i for i, d in enumerate(digits))
        code, out, _ = run_cli(capsys, "apery", str(n), "--mod", str(p))
        assert code == 0
        assert int(out) == math.prod(apery(d) for d in digits) % p

    def test_large_prime_square_modulus(self, capsys):
        # the digit congruence with A(d), A'(d) from the exact sums: only
        # the digits of n enter, so the tables stop at 19 there
        from apery.sequence import apery, apery_deriv, apery_mod_p2
        from oracles import rational_mod

        p = 1000003
        m = p * p
        n = sum(d * p**i for i, d in enumerate([3, 0, 19, 7, 1]))
        tables = (
            [apery(d) % m for d in range(20)],
            [rational_mod(apery_deriv(d), m).value for d in range(20)],
        )
        code, out, _ = run_cli(capsys, "apery", str(n), "--mod", str(m))
        assert code == 0
        assert int(out) == apery_mod_p2(n, p, tables).value

    def test_index_below_prime_modulus(self, capsys):
        # below p the modular pass answers without a table of p entries
        assert run_cli(capsys, "apery", "-6", "--mod", "1000000007") == (0, "819005\n", "")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "apery", "6", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 6, "value": "21460825"}

    def test_bad_modulus(self, capsys):
        code, _, err = run_cli(capsys, "apery", "3", "--mod", "1")
        assert code == 2 and "error" in err

    def test_malformed_n(self, capsys):
        code, _, _ = run_cli(capsys, "apery", "x")
        assert code == 2

    def test_prints_values_beyond_interpreter_digit_cap(self, capsys):
        code, out, _ = run_cli(capsys, "apery", "3000")
        assert code == 0
        assert len(out.strip()) > 4300 and out.strip().isdigit()


class TestAperydCommand:
    def test_integer_value(self, capsys):
        assert run_cli(capsys, "aperyd", "3") == (0, "4438/1\n", "")

    def test_fractional_value(self, capsys):
        assert run_cli(capsys, "aperyd", "5") == (0, "13276637/5\n", "")

    def test_negative_rejected(self, capsys):
        code, _, err = run_cli(capsys, "aperyd", "-2")
        assert code == 2 and "n >= 0" in err


class TestDigitsCommand:
    def test_single_prime(self, capsys):
        assert run_cli(capsys, "digits", "7") == (0, "7: 0 2 3 4 6\n", "")

    def test_p2(self, capsys):
        assert run_cli(capsys, "digits", "2") == (0, "2: 0 1\n", "")

    def test_composite_rejected(self, capsys):
        code, _, err = run_cli(capsys, "digits", "9")
        assert code == 2 and "not prime" in err

    def test_scan_plain(self, capsys):
        code, out, _ = run_cli(capsys, "digits", "--scan", "30", "--min-size", "4")
        assert code == 0
        assert out == "7: 0 2 3 4 6\n23: 0 7 11 15 22\n"

    def test_scan_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "digits", "--scan", "30", "--min-size", "4", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["p,digits", "7,0 2 3 4 6", "23,0 7 11 15 22"]

    def test_scan_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "digits", "--scan", "10", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert {"p": 7, "digits": [0, 2, 3, 4, 6]} in payload["digit_sets"]

    def test_workers_do_not_change_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "digits", "--scan", "60", "--workers", "1")
        _, out4, _ = run_cli(capsys, "digits", "--scan", "60", "--workers", "4")
        assert out1 == out4

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "digits")
        assert code == 2


class TestCsvRestriction:
    def test_csv_only_for_digit_scans(self, capsys):
        for argv in (["apery", "3"], ["aperyd", "3"], ["taylor", "2"], ["eval", "1"]):
            code, _, err = run_cli(capsys, *argv, "--format", "csv")
            assert code == 2
            assert "csv" in err

    def test_csv_refused_before_handler_checks(self, capsys, monkeypatch):
        monkeypatch.delenv("APERY_CACHE", raising=False)
        for argv in (["verify", "lucas-p"], ["verify", "stuffle", "--tol", "-1"], ["cache", "info"]):
            code, _, err = run_cli(capsys, *argv, "--format", "csv")
            assert code == 2
            assert "csv output is only available" in err


class TestTaylorCommand:
    def test_term_listing(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "5", "--terms")
        assert code == 0
        assert out == "(3,2): -4\n"

    def test_exact(self, capsys):
        assert run_cli(capsys, "taylor", "1", "--exact", "--N", "40") == (0, "0/1\n", "")

    def test_default_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "0")
        assert code == 0 and out == "1/1\n"

    def test_float(self, capsys):
        import math

        code, out, _ = run_cli(capsys, "taylor", "2", "--float", "--N", "10000")
        assert code == 0
        assert abs(float(out) - math.pi**2 / 6) < 1e-6

    def test_float_constant_term(self, capsys):
        # a_0 = 1 has no MZV terms, but its --N is checked like any other m
        assert run_cli(capsys, "taylor", "0", "--float") == (0, "1.0\n", "")
        code, out, err = run_cli(capsys, "taylor", "0", "--float", "--N", "-5")
        assert code == 2 and out == ""
        assert "N must be >= 1, got -5" in err

    def test_json_combined(self, capsys):
        code, out, _ = run_cli(
            capsys, "taylor", "4", "--terms", "--exact", "--N", "20", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["m"] == 4
        assert payload["terms"] == [
            {"composition": [2, 2], "coefficient": "-2"},
            {"composition": [4], "coefficient": "1"},
        ]
        assert "/" in payload["exact"]

    def test_negative_m(self, capsys):
        code, _, _ = run_cli(capsys, "taylor", "-3")
        assert code == 2

    def test_negative_truncation_names_the_flag(self, capsys):
        # the message names --N, the bound the user typed
        assert run_cli(capsys, "taylor", "3", "--N", "-1") == (
            2,
            "",
            "error: N must be >= 0, got -1\n",
        )


class TestEvalCommand:
    def test_integer_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "1", "--terms", "10")
        assert code == 0 and float(out) == 5.0

    def test_complex_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "0.25+0.25j", "--terms", "1000")
        assert code == 0 and "j" in out

    def test_json_carries_residual(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "-0.5", "--terms", "5000", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["terms"] == 5000
        assert payload["residual"] < 1e-6

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "eval", "zebra")
        assert code == 2

    # a point that starts with '-' and is not a plain decimal is read as the
    # point, wherever the flags go, with the output of the '--' and '--z='
    # forms (argparse alone reads it as an option and exits 2)
    @pytest.mark.parametrize(
        "argv, joined",
        [
            (["eval", "-0.5+0.3j"], ["eval", "--", "-0.5+0.3j"]),
            (
                ["eval", "-0.5+0.3j", "--terms", "1000"],
                ["eval", "--terms", "1000", "--", "-0.5+0.3j"],
            ),
            (["eval", "-1e-3", "--terms", "1000"], ["eval", "--terms", "1000", "--", "-1e-3"]),
            (
                ["eval", "--terms", "5000", "-0.5-0.3j", "--format", "json"],
                ["eval", "--terms", "5000", "--format", "json", "--", "-0.5-0.3j"],
            ),
            (
                ["verify", "functional-eq", "--z", "-0.5+0.3j", "--terms", "1000"],
                ["verify", "functional-eq", "--z=-0.5+0.3j", "--terms", "1000"],
            ),
            (
                ["verify", "functional-eq", "--z", "-1e-3", "--terms", "1000", "--format", "json"],
                ["verify", "functional-eq", "--z=-1e-3", "--terms", "1000", "--format", "json"],
            ),
        ],
        ids=[
            "eval",
            "eval-terms",
            "eval-exponent",
            "eval-json",
            "functional-eq",
            "functional-eq-exponent",
        ],
    )
    def test_negative_point(self, capsys, argv, joined):
        want = run_cli(capsys, *joined)
        assert want[0] == 0 and want[1]
        assert run_cli(capsys, *argv) == want

    def test_negative_terms_stay_the_terms_value(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--terms", "-5", "0.5")
        assert code == 2 and out == "" and "terms must be >= 1" in err


class TestNegativeValues:
    # a token that starts with '-' and reads as a number or as LO..HI is a
    # value wherever it stands; argparse alone takes only -7 and -.5 that way
    TOKENS = ("-7", "-.5", "-1e-3", "-0.5+0.3j", "-inf", "-3..5")

    def test_every_value_option_takes_a_negative_value(self, capsys):
        parser = build_parser()
        (subparsers,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, sub in subparsers.choices.items():
            # the positionals the command requires, so that only the option is tried
            head = [command] + [
                a.choices[0] if a.choices else "1"
                for a in sub._actions
                if not a.option_strings and a.nargs is None
            ]
            for action in sub._actions:
                if not action.option_strings or action.nargs == 0:
                    continue
                flag = action.option_strings[0]
                for token in self.TOKENS:
                    try:
                        args = parser.parse_args([*head, flag, token])
                    except SystemExit:
                        # the option took the token and its type or choices refused it
                        err = capsys.readouterr().err
                        assert f"argument {flag}: invalid" in err and repr(token) in err, err
                    else:
                        assert getattr(args, action.dest) == (action.type or str)(token)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "taylor-identity", "--m", "-3..5"], "taylor-identity needs m >= 1"),
            (["cache", "fill", "--n", "-3..5", "--cache", "F"], "cache fill needs n >= 0"),
            (["verify", "lucas-p", "--p", "-7"], "-7 is not prime"),
        ],
        ids=["taylor-identity-m", "cache-fill-n", "lucas-p-p"],
    )
    def test_library_refuses_the_value(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / a) if a == "F" else a for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_help_and_unknown_options_stay_options(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-h")
        assert code == 0 and out.startswith("usage: apery eval")
        code, out, err = run_cli(capsys, "apery", "5", "-x")
        assert code == 2 and out == "" and "unrecognized arguments: -x" in err
        code, out, err = run_cli(capsys, "verify", "functional-eq", "--z", "-x")
        assert code == 2 and out == "" and "argument --z: expected one argument" in err


class TestNonFiniteInput:
    # a point or tolerance that is not a finite number is a usage error, and
    # so is a point where A(z) or the functional equation overflows a double
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "inf"], "expected a number"),
            (["eval", "nan"], "expected a number"),
            (["eval", "1+infj"], "expected a number"),
            (["verify", "functional-eq", "--z", "nan"], "expected a number"),
            (["verify", "functional-eq", "--z", "inf"], "expected a number"),
            (
                ["verify", "functional-eq", "--z", "0.5", "--terms", "1000", "--tol", "nan"],
                "--tol must be finite and positive",
            ),
            (["verify", "stuffle", "--N", "100", "--tol", "nan"], "--tol must be finite"),
            (["verify", "stuffle", "--N", "100", "--tol", "inf"], "--tol must be finite"),
            (["verify", "stuffle", "--N", "100", "--tol", "0"], "--tol must be finite"),
            # the points are finite, but A(z) or a term of the equation is not
            (["eval", "600", "--terms", "1000"], "overflows a double"),
            (["eval", "600", "--terms", "1000", "--format", "json"], "overflows a double"),
            (["eval", "600", "--terms", "53"], "overflows a double"),
            (["eval", "600", "--terms", "53", "--format", "json"], "overflows a double"),
            (
                ["verify", "functional-eq", "--z", "200", "--terms", "1000"],
                "overflows a double",
            ),
            (
                ["verify", "functional-eq", "--z", "200", "--terms", "1000", "--format", "json"],
                "overflows a double",
            ),
            (
                ["verify", "functional-eq", "--z", "1e308"],
                "functional equation overflows a double at z=(1e+308+0j)",
            ),
        ],
        ids=[
            "eval-inf",
            "eval-nan",
            "eval-inf-imag",
            "functional-eq-z-nan",
            "functional-eq-z-inf",
            "functional-eq-tol-nan",
            "stuffle-tol-nan",
            "stuffle-tol-inf",
            "stuffle-tol-zero",
            "eval-overflow",
            "eval-overflow-json",
            "eval-tail-overflow",
            "eval-tail-overflow-json",
            "functional-eq-overflow",
            "functional-eq-overflow-json",
            "functional-eq-cube-overflow",
        ],
    )
    def test_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


class TestVerifyCommand:
    def test_unknown_theorem(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "pumpkin")
        assert code == 2

    def test_lucas_p(self, capsys):
        code, payload = run_report(capsys, "verify", "lucas-p", "--p", "7", "--n", "-10..10")
        assert code == 0
        assert payload["pass"] and payload["checked"] == 7 * 21

    def test_gessel_p2(self, capsys):
        code, payload = run_report(capsys, "verify", "gessel-p2", "--p", "5", "--n", "-6..6")
        assert code == 0 and payload["pass"]

    def test_p3_suite(self, capsys):
        for p in ("2", "3", "5"):
            code, payload = run_report(capsys, "verify", "p3-suite", "--p", p, "--n", "-6..6")
            assert code == 0 and payload["pass"]

    def test_digitset(self, capsys):
        code, payload = run_report(capsys, "verify", "digitset-p2", "--p", "7")
        assert code == 0
        assert payload["conclusive"]
        assert sorted({w["d"] for w in payload["witnesses"]}) == [1, 5]

    def test_digitset_inconclusive_exits_nonzero(self, capsys):
        code, payload = run_report(
            capsys, "verify", "digitset-p2", "--p", "5", "--n", "0..0"
        )
        assert code == 1
        assert payload["pass"] and not payload["conclusive"]

    def test_corollary(self, capsys):
        code, payload = run_report(
            capsys, "verify", "corollary", "--p", "5", "--depth", "3"
        )
        assert code == 0 and payload["pass"]

    def test_lucas_p3(self, capsys):
        code, payload = run_report(
            capsys, "verify", "lucas-p3", "--p", "5", "--depth", "3"
        )
        assert code == 0 and payload["pass"]

    def test_taylor_identity(self, capsys):
        code, payload = run_report(
            capsys, "verify", "taylor-identity", "--m", "1..6", "--N", "12"
        )
        assert code == 0 and payload["pass"]
        assert [c["label"] for c in payload["checks"]] == [f"m={m}" for m in range(1, 7)]

    def test_taylor_identity_negative_truncation(self, capsys):
        code, out, err = run_cli(capsys, "verify", "taylor-identity", "--m", "1..3", "--N", "-1")
        assert code == 2 and out == ""
        assert "N must be >= 0, got -1" in err

    def test_taylor_identity_failure(self, capsys, monkeypatch):
        import apery.mzv

        real = apery.mzv.taylor_terms

        def flipped(m):
            (s, c), *rest = real(m)
            return [apery.mzv.MzvTerm(s, -c)] + rest

        monkeypatch.setattr(apery.mzv, "taylor_terms", flipped)
        code, out, _ = run_cli(capsys, "verify", "taylor-identity", "--m", "8..8", "--N", "20")
        assert code == 1
        assert "m=8: FAIL" in out

    def test_reduced_forms(self, capsys):
        code, payload = run_report(capsys, "verify", "reduced-forms", "--N", "2000")
        assert code == 0 and payload["pass"]
        twelve = [c for c in payload["checks"] if c["label"] == "m=12"]
        assert twelve and twelve[0]["asserted"] is False
        assert "residual" in twelve[0]

    def test_stuffle(self, capsys):
        code, payload = run_report(capsys, "verify", "stuffle", "--N", "2000", "--tol", "1e-5")
        assert code == 0 and payload["pass"]
        assert [c["label"] for c in payload["checks"]] == [
            "zeta(4)zeta(4)",
            "zeta(4)zeta(6)",
            "zeta(2)zeta(2)",
            "zeta(4,4)zeta(2)",
            "zeta(2,2)zeta(6)",
            "zeta(2,2)zeta(4)",
        ]
        assert all(c["asserted"] is True for c in payload["checks"])
        assert payload["parameters"] == {"N": 2000, "tolerance": 1e-5}

    @pytest.mark.parametrize("check, identities", [("stuffle", 6), ("reduced-forms", 5)])
    def test_one_float_mzv_pass(self, capsys, monkeypatch, check, identities):
        # every identity of the command shares one set of divisor tables
        # and tails; N = 50 is too short for the tolerances, so only the
        # report's shape is checked
        import apery.mzv

        real = apery.mzv._mzv_floats
        calls = []

        def counted(compositions, N):
            calls.append(N)
            return real(compositions, N)

        monkeypatch.setattr(apery.mzv, "_mzv_floats", counted)
        _, payload = run_report(capsys, "verify", check, "--N", "50")
        assert len(payload["checks"]) == identities
        assert calls == [50]

    def test_functional_eq(self, capsys):
        code, payload = run_report(
            capsys, "verify", "functional-eq", "--z", "0.5", "--terms", "20000", "--tol", "1e-3"
        )
        assert code == 0 and payload["pass"]

    def test_jacobsthal(self, capsys):
        code, payload = run_report(capsys, "verify", "jacobsthal", "--p", "7")
        assert code == 0 and payload["pass"]

    def test_wolstenholme(self, capsys):
        code, payload = run_report(capsys, "verify", "wolstenholme", "--p", "13")
        assert code == 0 and payload["pass"]

    def test_missing_p(self, capsys):
        code, _, err = run_cli(capsys, "verify", "lucas-p")
        assert code == 2 and "--p" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "stuffle", "--N", "-3"],
            ["taylor", "3", "--float", "--N", "-5"],
            ["verify", "reduced-forms", "--N", "0"],
        ],
    )
    def test_float_series_needs_a_term(self, capsys, argv):
        # an empty partial sum is 0.0, which would pass or fail vacuously
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "N must be >= 1" in err

    def test_bad_tolerance(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "stuffle", "--tol", "-1")
        assert code == 2

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_wolstenholme_below_five_rejected(self, capsys, p):
        # the theorem claims nothing below p = 5; jacobsthal refuses alike
        code, out, err = run_cli(capsys, "verify", "wolstenholme", "--p", p)
        assert code == 2 and out == ""
        assert f"p must be a prime >= 5, got {p}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lucas-p3", "--p", "3"], "lucas-p3 needs a prime --p >= 5, got 3"),
            (["lucas-p3", "--p", "2"], "lucas-p3 needs a prime --p >= 5, got 2"),
            (["corollary", "--p", "2"], "corollary needs an odd prime --p, got 2"),
            (["lucas-p3", "--p", "4"], "4 is not prime"),  # primality comes first
            # the laws cover every n of --depth digits; --n would be ignored
            (["lucas-p3", "--p", "5", "--n", "0..3"], "lucas-p3 takes --depth, not --n"),
            (
                ["corollary", "--p", "5", "--depth", "2", "--n", "0..3"],
                "corollary takes --depth, not --n",
            ),
        ],
        ids=[
            "lucas-p3-3",
            "lucas-p3-2",
            "corollary-2",
            "lucas-p3-composite",
            "lucas-p3-n",
            "corollary-n",
        ],
    )
    def test_multi_digit_rejects_p_by_flag(self, capsys, argv, message):
        # the user typed a flag, not a law or an alphabet
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert message in err and "alphabet" not in err


class TestExplicitValues:
    # an explicit 0 or empty value is a value, not "use the default"
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "jacobsthal", "--p", "0"], "p must be a prime >= 5, got 0"),
            (["verify", "wolstenholme", "--p", "0"], "p must be a prime >= 5, got 0"),
            (["verify", "corollary", "--p", "5", "--depth", "0"], "depth must be >= 1"),
            (["verify", "lucas-p3", "--p", "5", "--depth", "0"], "depth must be >= 1"),
            (["digits", "--scan", "10", "--workers", "0"], "workers must be >= 1"),
            (["verify", "functional-eq", "--z", ""], "expected a number"),
        ],
        ids=[
            "jacobsthal-p",
            "wolstenholme-p",
            "corollary-depth",
            "lucas-p3-depth",
            "scan-workers",
            "functional-eq-z",
        ],
    )
    def test_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


class TestCacheCommand:
    @pytest.fixture
    def rescaled(self, tmp_path):
        # every record 3 A(n): the record on line 2 fails the load check
        from apery.cachefile import cache_store
        from apery.sequence import apery

        path = tmp_path / "a.cache"
        cache_store(path, {n: 3 * apery(n) for n in range(2, 50)})
        return str(path)

    def test_fill_info_verify(self, capsys, tmp_path):
        path = str(tmp_path / "a.cache")
        code, out, _ = run_cli(capsys, "cache", "fill", "--n", "0..30", "--cache", path)
        assert code == 0 and "records=31" in out
        code, out, _ = run_cli(capsys, "cache", "info", "--cache", path)
        assert code == 0 and "n_max=30" in out
        code, out, _ = run_cli(capsys, "cache", "verify", "--cache", path)
        assert code == 0

    def test_fill_merges(self, capsys, tmp_path):
        path = str(tmp_path / "a.cache")
        run_cli(capsys, "cache", "fill", "--n", "0..5", "--cache", path)
        run_cli(capsys, "cache", "fill", "--n", "10..12", "--cache", path)
        code, out, _ = run_cli(capsys, "cache", "info", "--cache", path)
        assert code == 0 and "records=9" in out

    def test_env_var_supplies_path(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "a.cache")
        monkeypatch.setenv("APERY_CACHE", path)
        code, _, _ = run_cli(capsys, "cache", "fill", "--n", "0..3")
        assert code == 0 and os.path.exists(path)

    def test_corrupt_cache_reports_line(self, capsys, tmp_path):
        path = tmp_path / "a.cache"
        run_cli(capsys, "cache", "fill", "--n", "0..10", "--cache", str(path))
        path.write_text(path.read_text().replace("\n2\t49\n", "\n2\t5d\n"))
        code, _, err = run_cli(capsys, "cache", "verify", "--cache", str(path))
        assert code == 2 and "line 4" in err

    def test_fill_rewrites_v1_as_v2(self, capsys, tmp_path):
        from apery.cachefile import cache_load
        from apery.sequence import apery

        path = tmp_path / "a.cache"
        old = {n: apery(n) for n in range(6)}
        path.write_text("apery-cache\t1\tapery\n" + "".join(f"{n}\t{v}\n" for n, v in old.items()))
        code, out, _ = run_cli(capsys, "cache", "fill", "--n", "10..12", "--cache", str(path))
        assert code == 0 and "records=9" in out
        text = path.read_text()
        assert text.startswith("apery-cache\t2\tapery\n") and "\n3\t5a5\n" in text
        assert cache_load(path) == {n: apery(n) for n in (*range(6), 10, 11, 12)}

    def test_fill_needs_range(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cache", "fill", "--cache", str(tmp_path / "c"))
        assert code == 2 and "--n" in err

    def test_needs_path(self, capsys, monkeypatch):
        monkeypatch.delenv("APERY_CACHE", raising=False)
        code, _, err = run_cli(capsys, "cache", "info")
        assert code == 2 and "APERY_CACHE" in err

    def test_commands_accept_cache(self, capsys, tmp_path):
        path = str(tmp_path / "a.cache")
        run_cli(capsys, "cache", "fill", "--n", "0..50", "--cache", path)
        code, out, _ = run_cli(capsys, "apery", "40", "--cache", path)
        from apery.sequence import apery

        assert code == 0 and int(out) == apery(40)

    def test_sweep_on_a_cache_of_its_last_value(self, capsys, tmp_path):
        # a cache that holds A(99) alone, the last index the sweep reads:
        # the values below it are made, and the run reports as without it
        path = str(tmp_path / "a.cache")
        assert run_cli(capsys, "cache", "fill", "--n", "99..99", "--cache", path)[0] == 0
        argv = ["verify", "lucas-p", "--p", "5", "--n", "0..19"]
        want = (0, "lucas-p: PASS (100 cases)\n", "")
        assert run_cli(capsys, *argv, "--cache", path) == want
        assert run_cli(capsys, *argv) == want

    def test_rescaled_cache_refused(self, capsys, tmp_path):
        from apery.cachefile import cache_store
        from apery.sequence import apery

        path = tmp_path / "a.cache"
        cache_store(path, {n: 3 * apery(n) for n in range(2, 50)})
        code, _, err = run_cli(capsys, "apery", "10", "--cache", str(path))
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["apery", "12", "--mod", "35"],  # the exact fallback
            ["verify", "lucas-p", "--p", "5"],
        ],
        ids=["apery-mod-exact", "verify-lucas-p"],
    )
    def test_routes_reading_values_refuse_rescaled_cache(self, capsys, rescaled, argv):
        code, _, err = run_cli(capsys, *argv, "--cache", rescaled)
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["digits", "7"],
            ["digits", "--scan", "10"],
            ["verify", "corollary", "--p", "5", "--depth", "2"],
            ["verify", "lucas-p3", "--p", "5", "--depth", "2"],
            ["apery", "1000", "--mod", "7"],
            ["apery", "1000", "--mod", "49"],
            ["apery", "40", "--mod", "343"],  # the p-adic digit DP
        ],
        ids=[
            "digits",
            "digits-scan",
            "verify-corollary",
            "verify-lucas-p3",
            "apery-mod-p",
            "apery-mod-p2",
            "apery-mod-p3",
        ],
    )
    def test_routes_without_exact_values_ignore_cache(self, capsys, rescaled, argv):
        # a file these commands would never read is not opened, even a bad one
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--cache", rescaled) == plain


class TestConfigFile:
    def test_config_defaults_flags_win(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json"}))
        monkeypatch.setenv("APERY_CONFIG", str(config))
        # config default applies
        code, out, _ = run_cli(capsys, "apery", "2")
        assert code == 0 and json.loads(out)["value"] == "73"
        # an explicit flag overrides it
        code, out, _ = run_cli(capsys, "apery", "2", "--format", "plain")
        assert code == 0 and out == "73\n"

    def test_empty_paths_mean_none(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json"}))
        monkeypatch.setenv("APERY_CONFIG", str(config))
        assert run_cli(capsys, "apery", "5", "--config", "") == (0, "819005\n", "")
        corrupt = tmp_path / "a.cache"
        corrupt.write_text("not a cache\n")
        monkeypatch.setenv("APERY_CACHE", str(corrupt))
        code, out, _ = run_cli(capsys, "apery", "5", "--cache", "", "--format", "plain")
        assert code == 0 and out == "819005\n"

    def test_workers_key_not_read(self, capsys, tmp_path, monkeypatch):
        # scans run serially, so the config file has no workers setting
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": 0}))
        monkeypatch.setenv("APERY_CONFIG", str(config))
        assert run_cli(capsys, "digits", "7") == (0, "7: 0 2 3 4 6\n", "")

    @pytest.mark.parametrize(
        "cache, argv",
        [
            (["a"], ["apery", "5"]),
            (7, ["cache", "fill", "--n", "0..3"]),
            # 2 is stderr's file descriptor, which open() would accept
            (2, ["apery", "5"]),
        ],
        ids=["list", "int", "stderr-fd"],
    )
    def test_non_string_cache_rejected(self, capsys, tmp_path, monkeypatch, cache, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cache": cache}))
        monkeypatch.setenv("APERY_CONFIG", str(config))
        monkeypatch.delenv("APERY_CACHE", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "config key 'cache' must be a path string" in err

    def test_bad_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        monkeypatch.setenv("APERY_CONFIG", str(config))
        code, _, err = run_cli(capsys, "apery", "2")
        assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for sub in ("apery", "aperyd", "digits", "verify", "taylor", "eval", "cache"):
        assert sub in out


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "apery", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_module_entry_point():
    done = run_module("apery", "3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1445\n", "")


def test_module_entry_point_input_error():
    done = run_module("verify", "lucas-p", "--p", "4")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ")
