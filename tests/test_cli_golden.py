"""Byte-for-byte CLI output on a fixed grid of command lines.

tests/data/cli_golden.json holds the argv, exit code, stdout and stderr of
every command line in COMMANDS, run plain (no --format flag), json and csv,
in that order and in one scratch directory.  "{tmp}" in an argv stands for
that directory, in the stored output too.

The float-printing commands (eval, taylor --float, verify stuffle,
reduced-forms and functional-eq) are on the grid too: every float sum that
reaches their output goes through math.fsum, which rounds once on every
Python, so they print the same bytes on each.

Left out on purpose: argparse's own usage errors, whose wording belongs to
the Python version, such as an option given to a command that does not
take it (tests/test_cli.py checks those exit 2).

After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py

and name every entry whose record changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from apery.cli import CACHE_ENV, main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

FORMATS = ((), ("--format", "json"), ("--format", "csv"))

# files written into the scratch directory before the first command
FILES = {
    "bad.cache": "apery-cache\t2\tapery\n0\t1\n1\t6\n2\t74\n",
    "empty.cache": "apery-cache\t2\tapery\n",
}

COMMANDS = [
    # exact values, negative n reflected
    "apery 0", "apery 1", "apery 4", "apery 57", "apery 200",
    "apery -1", "apery -6", "apery -57",
    # --mod: prime and prime-square digit routes
    "apery 123 --mod 13", "apery 123 --mod 169", "apery 7 --mod 25",
    "apery 3 --mod 9", "apery 50 --mod 2", "apery 50 --mod 4",
    "apery -10 --mod 49", "apery 1000000000000000000000 --mod 10007",
    "apery 1000000000000000000000 --mod 10201", "apery -1000000000000000000000 --mod 7",
    # --mod: the x/den pass (no factor of M up to n)
    "apery 30 --mod 97", "apery -6 --mod 1000000007", "apery 123 --mod 100160063",
    "apery 4000 --mod 100160063", "apery 0 --mod 35",
    # --mod: the exact fallback (a factor of M up to n)
    "apery 123 --mod 1000", "apery 40 --mod 35", "apery 50 --mod 8", "apery -41 --mod 343",
    # --mod errors
    "apery 3 --mod 1", "apery 3 --mod 0", "apery 3 --mod -5",
    # A'(n)
    "aperyd 0", "aperyd 1", "aperyd 3", "aperyd 5", "aperyd 30", "aperyd -2",
    # digit sets
    "digits 2", "digits 3", "digits 7", "digits 11", "digits 97", "digits 9", "digits 1",
    "digits 0", "digits -7", "digits", "digits --scan 30 --min-size 4", "digits --scan 60",
    "digits --scan 100 --min-size 5", "digits --scan 2", "digits --scan 1",
    "digits --scan 50 --min-size 99", "digits --scan 60 --workers 2", "digits 7 --scan 20",
    "digits 7 --workers 2",
    # Taylor coefficients, exact and by composition
    "taylor 0", "taylor 0 --terms", "taylor 1 --exact --N 40", "taylor 2", "taylor 3 --terms",
    "taylor 4 --terms --exact", "taylor 6 --exact --N 10", "taylor 3 --N 0",
    "taylor 7 --terms --N 5", "taylor -3",
    # the sweep theorems
    "verify lucas-p --p 7 --n -10..10", "verify lucas-p --p 2 --n 0..12",
    "verify lucas-p --p 5", "verify lucas-p --p 9", "verify lucas-p",
    "verify gessel-p2 --p 5 --n -6..6", "verify gessel-p2 --p 2 --n 0..10",
    "verify gessel-p2 --p 4",
    "verify p3-suite --p 2", "verify p3-suite --p 3", "verify p3-suite --p 5 --n -6..6",
    "verify p3-suite --p 6",
    "verify digitset-p2 --p 7", "verify digitset-p2 --p 11 --n 0..3",
    "verify digitset-p2 --p 5 --n 0..30", "verify digitset-p2 --p 7 --n 0..0",
    # the multi-digit laws
    "verify corollary --p 5 --depth 2", "verify corollary --p 7", "verify corollary --p 2",
    "verify corollary --p 5 --depth 0", "verify corollary --p 4",
    "verify lucas-p3 --p 5 --depth 3", "verify lucas-p3 --p 7", "verify lucas-p3 --p 3",
    # exact identities and elementary congruences
    "verify taylor-identity --m 1..3 --N 10", "verify taylor-identity --m 8..8 --N 20",
    "verify taylor-identity", "verify taylor-identity --m 0..2",
    "verify jacobsthal", "verify jacobsthal --p 7", "verify jacobsthal --tol 0",
    "verify wolstenholme --p 13", "verify wolstenholme", "verify wolstenholme --p 3",
    "verify wolstenholme --tol inf",
    # the float commands: series values, the functional equation, the MZV
    # checks and Taylor coefficients from their compositions
    "eval 0.5", "eval 0.25+0.25j --terms 100000", "eval -0.5 --terms 5000",
    "eval 3 --terms 1000", "verify functional-eq",
    "verify functional-eq --z 1.5 --terms 20000", "verify stuffle --N 2000",
    "verify reduced-forms --N 2000", "taylor 8 --float --N 3000",
    "taylor 12 --float --N 1000", "taylor 2 --float --N 10000", "taylor 16 --float --N 600",
    "taylor 3 --float --N 2000", "taylor 9 --float --N 500",
    # the value cache
    "cache fill --n 0..30 --cache {tmp}/fill.cache", "cache info --cache {tmp}/fill.cache",
    "cache verify --cache {tmp}/fill.cache", "cache fill --n 40..45 --cache {tmp}/fill.cache",
    "cache info --cache {tmp}/fill.cache", "cache info", "cache fill --cache {tmp}/fill.cache",
    "cache fill --n -3..2 --cache {tmp}/fill.cache", "cache verify --cache {tmp}/bad.cache",
    "cache info --cache {tmp}/bad.cache", "cache verify --cache {tmp}/missing.cache",
    "cache info --cache {tmp}/empty.cache",
]


def record(tmp: Path) -> list[dict]:
    """Run every command line in every format inside tmp; return the records."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    records = []
    with mock.patch.dict(os.environ):
        os.environ.pop(CACHE_ENV, None)
        for command in COMMANDS:
            for fmt in FORMATS:
                argv = command.split() + list(fmt)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([a.replace("{tmp}", str(tmp)) for a in argv])
                records.append(
                    {
                        "argv": argv,
                        "code": code,
                        "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
                        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
                    }
                )
    return records


def test_cli_output_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = record(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
