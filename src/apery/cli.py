"""Command line front end.

Subcommands: apery, aperyd, digits, verify, taylor, eval, cache.
Exit codes: 0 everything checked out, 1 a verification found a claim false
or inconclusive, 2 usage or input error.

Each subparser binds its `_cmd_*` handler with `set_defaults(handler=...)`;
`main` builds only the one its first token names (`_parse`).
A handler takes the parsed `args` alone, returns (exit code, payload, text)
and prints nothing.  `main` prints `json.dumps(payload, sort_keys=True)`
under `--format json`, else the text unless it is None.  Only `_cmd_digits`
reads the format (csv), and only `_cmd_cache` the cache path: `--cache`,
else `$APERY_CACHE`.  An option is taken only spelled in full
(`allow_abbrev=False`).  A token that reads as a number or as LO..HI is a
value wherever it stands, negative or not (`_Parser`).

`THEOREMS` maps each `verify` theorem id to (handler, the flags it needs,
{each flag it takes: its default}).  `_cmd_verify` refuses any other flag
and a missing needed one, then fills the defaults onto `args`, so a verify
handler reads `args` alone.

Big integers are serialized as decimal strings and rationals as "num/den";
residues always carry their modulus.  Reports emitted by `verify` follow
schema/report.schema.json at the repository root.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import count, takewhile

from .arith import (
    _require_prime,
    jacobsthal_holds,
    primes_upto,
    wolstenholme_residue,
)
from .cachefile import cache_load, cache_store
from .congruences import (
    digit_set,
    scan_digit_sets,
    verify_digit_set_lucas,
    verify_gessel_mod_p2,
    verify_lucas_mod_p,
    verify_mod_p3_suite,
    verify_multi_digit,
)
from .function import (
    apery_eval,
    functional_equation_residual,
    taylor_coeff_truncated,
)
from .mzv import (
    REDUCED_FORMS,
    reduced_form_residuals,
    stuffle_residuals,
    taylor_coeff_float,
    taylor_identity_holds,
    taylor_terms,
)
from .sequence import AperyCache, apery_deriv, apery_fast, apery_mod

CACHE_ENV = "APERY_CACHE"


def parse_range(text: str) -> tuple[int, int]:
    """Parse 'LO..HI' into an inclusive integer pair."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected LO..HI, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"expected LO..HI, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise ValueError(f"empty range {text!r}")
    return bounds


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text)
    except ValueError:
        z = None
    if z is None or not cmath.isfinite(z):
        raise ValueError(f"expected a number like 0.5 or 0.3+0.2j, got {text!r}")
    return z


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# --- subcommand handlers -------------------------------------------------

Result = tuple[int, dict, "str | None"]


def _cmd_apery(args: argparse.Namespace) -> Result:
    if args.mod is None:
        value = str(apery_fast(args.n))
        return 0, {"n": args.n, "value": value}, value
    if args.mod < 2:
        raise ValueError("--mod must be >= 2")
    residue = apery_mod(args.n, args.mod)
    if residue is None:
        value = str(apery_fast(args.n) % args.mod)
    else:
        value = str(residue.value)
    return 0, {"n": args.n, "modulus": str(args.mod), "value": value}, value


def _cmd_aperyd(args: argparse.Namespace) -> Result:
    if args.n < 0:
        raise ValueError("aperyd takes n >= 0")
    value = _fraction_str(apery_deriv(args.n))
    return 0, {"n": args.n, "value": value}, value


def _cmd_digits(args: argparse.Namespace) -> Result:
    if args.workers is not None and args.workers < 1:
        raise ValueError("workers must be >= 1")
    if args.p is not None and (args.scan, args.min_size) != (None, None):
        raise ValueError("digits P takes neither --scan nor --min-size")
    if args.scan is not None:
        sets = scan_digit_sets(args.scan, 1 if args.min_size is None else args.min_size)
    elif args.p is not None:
        sets = [digit_set(args.p)]  # rejects a p that is not prime
    else:
        raise ValueError("give a prime or --scan BOUND")
    payload = {"digit_sets": [{"p": ds.p, "digits": list(ds.digits)} for ds in sets]}
    if args.format == "csv":
        rows = ["p,digits"] + [f"{ds.p},{' '.join(map(str, ds.digits))}" for ds in sets]
    else:
        rows = [ds.format_row() for ds in sets]
    # an empty plain scan prints nothing, not an empty line
    return 0, payload, "\n".join(rows) or None


def _cmd_taylor(args: argparse.Namespace) -> Result:
    m = args.m
    if m < 0:
        raise ValueError("m must be >= 0")
    show_exact = args.exact or not (args.terms or args.as_float)
    payload: dict = {"m": m}
    lines: list[str] = []
    if args.terms:
        terms = taylor_terms(m) if m >= 1 else []
        payload["terms"] = [
            {"composition": list(s), "coefficient": str(c)} for s, c in terms
        ]
        lines += [f"({','.join(str(p) for p in s)}): {c}" for s, c in terms]
    if show_exact:
        value = taylor_coeff_truncated(m, args.N)
        payload["N"] = args.N
        payload["exact"] = _fraction_str(value)
        lines.append(_fraction_str(value))
    if args.as_float:
        value = taylor_coeff_float(m, args.N)
        payload["N"] = args.N
        payload["float"] = value
        lines.append(repr(value))
    # `taylor 0 --terms` and `taylor 1 --terms` print nothing, not an empty line
    return 0, payload, "\n".join(lines) or None


def _cmd_eval(args: argparse.Namespace) -> Result:
    z = _parse_complex(args.z)
    approx = apery_eval(z, args.terms)
    payload = {
        "z": {"re": z.real, "im": z.imag},
        "re": approx.real,
        "im": approx.imag,
        "terms": approx.terms,
        "residual": approx.residual,
    }
    text = f"{approx.real}{approx.imag:+}j" if approx.imag else str(approx.real)
    return 0, payload, text


def _cmd_cache(args: argparse.Namespace) -> Result:
    # an explicit empty --cache means none, not $APERY_CACHE
    path = os.environ.get(CACHE_ENV) if args.cache is None else args.cache
    if not path:
        raise ValueError(f"give --cache PATH or set {CACHE_ENV}")
    if args.action == "fill":
        if args.n is None:
            raise ValueError("cache fill needs --n LO..HI")
        lo, hi = args.n
        if lo < 0:
            raise ValueError("cache fill needs n >= 0")
        values = cache_load(path) if os.path.exists(path) else {}
        # the file's run A(0), A(1), ... seeds the memo, so a refill walks
        # only the indices past it
        cache = AperyCache(values[n] for n in takewhile(values.__contains__, count()))
        for n in range(lo, hi + 1):
            values[n] = apery_fast(n, cache)
        cache_store(path, values)
        message = {"action": "fill", "records": len(values), "path": path}
    elif args.action == "verify":
        values = cache_load(path)  # raises CacheError on any bad record
        message = {"action": "verify", "records": len(values), "path": path}
    else:  # info
        values = cache_load(path, verify=False)
        message = {
            "action": "info",
            "records": len(values),
            "n_min": min(values, default=None),
            "n_max": max(values, default=None),
            "path": path,
        }
    return 0, message, " ".join(f"{k}={v}" for k, v in message.items())


# --- verify --------------------------------------------------------------


def _check_payload(theorem: str, parameters: dict, checks: list[dict]) -> dict:
    overall = all(c["pass"] for c in checks if c.get("asserted", True))
    return {
        "theorem": theorem,
        "parameters": parameters,
        "pass": overall,
        "checks": checks,
    }


def _residual_check(label: str, residual: float, tol: float | None, asserted=True) -> dict:
    return {
        "label": label,
        "residual": residual,
        "tolerance": tol,
        "asserted": asserted,
        "pass": True if tol is None else residual < tol,
    }


def _verify_congruence(sweep, args) -> dict:
    return sweep(args.p, args.n).to_dict()


def _verify_multi_digit(law, args) -> dict:
    # name the flag, not the law's alphabet that the user never typed
    p = args.p
    _require_prime(p)
    if law == "power":
        if p == 2:
            raise ValueError(f"corollary needs an odd prime --p, got {p}")
        alphabet = {0, (p - 1) // 2, p - 1}
    else:  # unit
        if p < 5:
            raise ValueError(f"lucas-p3 needs a prime --p >= 5, got {p}")
        alphabet = {0, p - 1}
    payload = verify_multi_digit(p, alphabet, args.depth, law).to_dict()
    payload["theorem"] = args.theorem
    return payload


def _verify_taylor_identity(args) -> dict:
    m_lo, m_hi = args.m
    if m_lo < 1:
        raise ValueError("taylor-identity needs m >= 1")
    checks = []
    for m in range(m_lo, m_hi + 1):
        ok = taylor_identity_holds(m, args.N)  # checks every N' <= args.N
        checks.append({"label": f"m={m}", "pass": ok, "asserted": True})
    return _check_payload(
        "taylor-identity", {"m_lo": m_lo, "m_hi": m_hi, "N": args.N}, checks
    )


def _verify_reduced_forms(args) -> dict:
    ms = sorted(REDUCED_FORMS)
    checks = []
    for m, residual in zip(ms, reduced_form_residuals(ms, args.N)):
        asserted = m != 12  # the weight-12 short form is data under test
        checks.append(
            _residual_check(f"m={m}", residual, args.tol if asserted else None, asserted)
        )
    return _check_payload("reduced-forms", {"N": args.N, "tolerance": args.tol}, checks)


def _verify_stuffle(args) -> dict:
    checks = []
    depth1 = [((4,), (4,)), ((4,), (6,)), ((2,), (2,))]
    depth2 = [((4, 4), (2,)), ((2, 2), (6,)), ((2, 2), (4,))]
    pairs = depth1 + depth2
    for (s, t), residual in zip(pairs, stuffle_residuals(pairs, args.N)):
        label = "".join(f"zeta({','.join(map(str, u))})" for u in (s, t))
        checks.append(_residual_check(label, residual, args.tol))
    return _check_payload("stuffle", {"N": args.N, "tolerance": args.tol}, checks)


def _verify_functional_eq(args) -> dict:
    z = _parse_complex(args.z)
    residual = functional_equation_residual(z, args.terms)
    checks = [_residual_check(f"z={args.z}", residual, args.tol)]
    return _check_payload(
        "functional-eq",
        {"z": {"re": z.real, "im": z.imag}, "terms": args.terms, "tolerance": args.tol},
        checks,
    )


def _jacobsthal_upto(p: int, a_max: int) -> bool:
    return all(jacobsthal_holds(a, b, p) for a in range(a_max + 1) for b in range(a + 1))


def _wolstenholme_holds(p: int) -> bool:
    return wolstenholme_residue(p).value == 0


def _verify_lemma(bound, holds, extra, args) -> dict:
    # the lemmas claim nothing below p = 5; without --p, check every prime
    # 5 <= p <= bound.  extra holds the check's own parameters, which the
    # report lists beside the primes
    if args.p is not None and args.p < 5:
        raise ValueError(f"p must be a prime >= 5, got {args.p}")
    primes = [p for p in primes_upto(bound) if p >= 5] if args.p is None else [args.p]
    checks = [
        {"label": f"p={p}", "pass": holds(p, **extra), "asserted": True} for p in primes
    ]
    return _check_payload(args.theorem, {"primes": primes, **extra}, checks)


# the verify theorem ids, in the order the help text lists them, each with
# its handler, the flags it needs, and the flags it takes besides with their
# defaults (the four per-digit sweeps share one); it refuses the others (the
# corollary and lucas-p3 laws cover every n of --depth digits, so --n is unread)
_SWEEP_RANGE = {"n": (-10, 10)}
THEOREMS = {
    "lucas-p": (partial(_verify_congruence, verify_lucas_mod_p), ("p",), _SWEEP_RANGE),
    "gessel-p2": (partial(_verify_congruence, verify_gessel_mod_p2), ("p",), _SWEEP_RANGE),
    "p3-suite": (partial(_verify_congruence, verify_mod_p3_suite), ("p",), _SWEEP_RANGE),
    "digitset-p2": (partial(_verify_congruence, verify_digit_set_lucas), ("p",), _SWEEP_RANGE),
    "corollary": (partial(_verify_multi_digit, "power"), ("p",), {"depth": 4}),
    "lucas-p3": (partial(_verify_multi_digit, "unit"), ("p",), {"depth": 5}),
    "taylor-identity": (_verify_taylor_identity, (), {"m": (1, 12), "N": 50}),
    "reduced-forms": (_verify_reduced_forms, (), {"N": 10_000, "tol": 1e-5}),
    "stuffle": (_verify_stuffle, (), {"N": 10_000, "tol": 1e-6}),
    # at z = 0.5 the equation holds for any A with A(z) = A(-1-z)
    "functional-eq": (_verify_functional_eq, (), {"z": "0.25", "terms": 100_000, "tol": 1e-3}),
    "jacobsthal": (partial(_verify_lemma, 31, _jacobsthal_upto, {"a_max": 8}), (), {"p": None}),
    "wolstenholme": (partial(_verify_lemma, 200, _wolstenholme_holds, {}), (), {"p": None}),
}
_VERIFY_FLAGS = ("p", "n", "m", "N", "terms", "tol", "depth", "z")


def _cmd_verify(args: argparse.Namespace) -> Result:
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise ValueError("--tol must be finite and positive")
    handler, needs, takes = THEOREMS[args.theorem]
    for name in _VERIFY_FLAGS:
        if getattr(args, name) is not None and name not in needs and name not in takes:
            taken = " and ".join(f"--{t}" for t in takes)
            raise ValueError(f"verify {args.theorem} takes {taken}, not --{name}")
    for name in needs:
        if getattr(args, name) is None:
            raise ValueError(f"verify {args.theorem} needs --{name}")
    for name, default in takes.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    payload = handler(args)
    ok = payload["pass"] and payload.get("conclusive", True)
    cases = f" ({payload['checked']} cases)" if "checked" in payload else ""
    lines = [f"{payload['theorem']}: {'PASS' if ok else 'FAIL'}{cases}"]
    for check in payload.get("checks", []):
        status = "PASS" if check["pass"] else "FAIL"
        residual = check.get("residual")
        extra = f" residual={residual:.3e}" if residual is not None else ""
        lines.append(f"  {check['label']}: {status}{extra}")
    lines += [f"  counterexample: {c}" for c in payload.get("counterexamples", [])]
    if payload.get("unwitnessed"):
        lines.append(f"  unwitnessed digits: {payload['unwitnessed']}")
    return (0 if ok else 1), payload, "\n".join(lines)


# --- parser --------------------------------------------------------------

_RANGE_VALUE = re.compile(r"^-?\d+\.\.-?\d+$")


def _value_like(token: str) -> bool:
    """Whether a token reads as LO..HI or as a number to complex()."""
    if _RANGE_VALUE.match(token):
        return True
    try:
        complex(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3, -0.5+0.3j and -10..10 as values.

    argparse itself takes only tokens like -7 and -.5 for values, so it
    would read "--z -1e-3" as a flag missing its value and the point of
    "eval -0.5+0.3j" as an unknown option.  add_subparsers builds each
    subparser from type(self), so every subcommand reads tokens this way.
    """

    def _parse_optional(self, arg_string):
        # None is argparse's answer for a positional, as for -7
        if arg_string.startswith("-") and _value_like(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _apery_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--mod", type=int, help="reduce modulo M (fast for p and p^2)")
    p.set_defaults(handler=_cmd_apery)


def _aperyd_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_aperyd)


def _digits_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("--scan", type=int, metavar="PMAX", help="scan all primes <= PMAX")
    p.add_argument("--min-size", type=int, help="minimum |D(p)| a scan reports (default 1)")
    p.add_argument("--workers", type=int, help="ignored; scans run serially")
    p.set_defaults(handler=_cmd_digits)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("theorem", choices=tuple(THEOREMS))
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=parse_range, metavar="LO..HI")
    p.add_argument("--m", type=parse_range, metavar="LO..HI")
    p.add_argument("--N", type=int, help="truncation bound")
    p.add_argument("--terms", type=int, help="series terms for numeric checks")
    p.add_argument("--tol", type=float, help="numeric tolerance")
    p.add_argument("--depth", type=int, help="base-p digit count for digit laws")
    p.add_argument("--z", help="evaluation point, e.g. 0.5 or 0.3+0.2j")
    p.set_defaults(handler=_cmd_verify)


def _taylor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("m", type=int)
    p.add_argument("--terms", action="store_true", help="list the MZV terms")
    p.add_argument("--exact", action="store_true", help="exact truncated value")
    p.add_argument(
        "--float", dest="as_float", action="store_true", help="extrapolated estimate"
    )
    p.add_argument("--N", type=int, default=50, help="truncation bound")
    p.set_defaults(handler=_cmd_taylor)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("z", help="evaluation point, e.g. -0.5 or 0.25+0.25j")
    p.add_argument("--terms", type=int, default=100_000)
    p.set_defaults(handler=_cmd_eval)


def _cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("fill", "verify", "info"))
    p.add_argument("--n", type=parse_range, metavar="LO..HI", help="range for fill")
    p.add_argument("--cache", help=f"cache file (default ${CACHE_ENV})")
    p.set_defaults(handler=_cmd_cache)


# each command, in the order the help text lists them, with its help line
# and the function that adds its own arguments to its subparser
_COMMANDS = {
    "apery": ("print A(n), optionally mod M", _apery_args),
    "aperyd": ("print A'(n) as num/den", _aperyd_args),
    "digits": ("digit sets D(p)", _digits_args),
    "verify": ("run a verification sweep", _verify_args),
    "taylor": ("Taylor coefficient a_m", _taylor_args),
    "eval": ("numeric A(z)", _eval_args),
    "cache": ("manage the value cache", _cache_args),
}


def _build_parser(commands) -> argparse.ArgumentParser:
    """The parser with a subparser for each of the named commands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain", help="output format"
    )

    parser = _Parser(
        prog="apery",
        allow_abbrev=False,
        description="Apery numbers: exact values, congruence checks, digit "
        "sets, and Taylor/MZV identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_line, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, parents=[common], help=help_line, allow_abbrev=False))
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _build_parser(_COMMANDS)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """build_parser().parse_args(argv), building one subparser when the
    first token names a command.

    Help, a missing or unknown command and any argument left over are left
    to the whole parser: argparse names a left-over argument in the top
    parser's usage line, which lists every command it holds.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] and argv[0] in _COMMANDS:
        args, extras = _build_parser(argv[:1]).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # decimal output of arbitrary-precision values is part of the contract;
    # lift the interpreter's int/str conversion cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "csv" and args.command != "digits":
            raise ValueError("csv output is only available for the digits command")
        code, payload, text = args.handler(args)
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        elif text is not None:
            print(text)
        return code
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
