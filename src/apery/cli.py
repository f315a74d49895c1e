"""Command line front end.

Subcommands: apery, aperyd, digits, verify, taylor, eval, cache.
Exit codes: 0 everything checked out, 1 a verification found a claim false
or inconclusive, 2 usage or input error.

Each `_cmd_*` handler takes the parsed `args` alone, returns (exit code,
payload, text) and prints nothing; `_run_config` has already filled in
`args.format` and `args.cache`.  `main` prints `json.dumps(payload,
sort_keys=True)` under `--format json`, else the text unless it is None.
Only `_cmd_digits` reads the format (csv).  A token that reads as a number
or as LO..HI is a value wherever it stands, negative or not (`_Parser`).

Big integers are serialized as decimal strings and rationals as "num/den";
residues always carry their modulus.  Reports emitted by `verify` follow
schema/report.schema.json at the repository root.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

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
CONFIG_ENV = "APERY_CONFIG"


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _run_config(args: argparse.Namespace) -> None:
    """Fill in args.format and args.cache: the flag, else $APERY_CACHE (the
    cache path only), else the config file, else the default."""
    # an explicit empty --config or --cache means none, not the default
    config_path = args.config
    if config_path is None:
        config_path = os.environ.get(CONFIG_ENV)
    config = _load_config_file(config_path)
    if args.cache is None:
        args.cache = os.environ.get(CACHE_ENV) or config.get("cache")
        if not isinstance(args.cache, (str, type(None))):
            raise ValueError("config key 'cache' must be a path string")
    args.format = args.format or config.get("format", "plain")
    if args.format not in ("plain", "json", "csv"):
        raise ValueError(f"unknown format {args.format!r}")
    # --workers is accepted and ignored (scans run serially), but not 0
    if args.workers is not None and args.workers < 1:
        raise ValueError("workers must be >= 1")


def _open_cache(args: argparse.Namespace) -> AperyCache:
    if args.cache and os.path.exists(args.cache):
        return AperyCache(cache_load(args.cache))
    return AperyCache()


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
        value = str(apery_fast(args.n, _open_cache(args)))
        return 0, {"n": args.n, "value": value}, value
    if args.mod < 2:
        raise ValueError("--mod must be >= 2")
    residue = apery_mod(args.n, args.mod)
    # only the exact fallback reads --cache
    if residue is None:
        value = str(apery_fast(args.n, _open_cache(args)) % args.mod)
    else:
        value = str(residue.value)
    return 0, {"n": args.n, "modulus": str(args.mod), "value": value}, value


def _cmd_aperyd(args: argparse.Namespace) -> Result:
    if args.n < 0:
        raise ValueError("aperyd takes n >= 0")
    value = _fraction_str(apery_deriv(args.n))
    return 0, {"n": args.n, "value": value}, value


def _cmd_digits(args: argparse.Namespace) -> Result:
    if args.scan is not None:
        sets = scan_digit_sets(args.scan, args.min_size)
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
    return 0, payload, "\n".join(lines)


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
    if not args.cache:
        raise ValueError(f"give --cache PATH or set {CACHE_ENV}")
    path = args.cache
    if args.action == "fill":
        lo, hi = args.n
        if lo < 0:
            raise ValueError("cache fill needs n >= 0")
        values = cache_load(path) if os.path.exists(path) else {}
        cache = AperyCache(values)
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


def _verify_congruence(sweep, default, args) -> dict:
    # default is the range without --n; None leaves it to the sweep
    if args.p is None:
        raise ValueError(f"verify {args.theorem} needs --p")
    return sweep(args.p, args.n or default, _open_cache(args)).to_dict()


def _verify_multi_digit(args) -> dict:
    if args.n is not None:
        # the laws range over every n of --depth base-p digits
        raise ValueError(f"verify {args.theorem} takes --depth, not --n")
    if args.p is None:
        raise ValueError(f"verify {args.theorem} needs --p")
    # name the flag, not the law's alphabet that the user never typed
    _require_prime(args.p)
    if args.theorem == "corollary" and args.p == 2:
        raise ValueError(f"corollary needs an odd prime --p, got {args.p}")
    if args.theorem == "lucas-p3" and args.p < 5:
        raise ValueError(f"lucas-p3 needs a prime --p >= 5, got {args.p}")
    if args.theorem == "corollary":
        depth = 4 if args.depth is None else args.depth
        alphabet = {0, (args.p - 1) // 2, args.p - 1}
        report = verify_multi_digit(args.p, alphabet, depth, "power")
    else:  # lucas-p3
        depth = 5 if args.depth is None else args.depth
        report = verify_multi_digit(args.p, {0, args.p - 1}, depth, "unit")
    payload = report.to_dict()
    payload["theorem"] = args.theorem
    return payload


def _verify_taylor_identity(args) -> dict:
    m_lo, m_hi = args.m or (1, 12)
    if m_lo < 1:
        raise ValueError("taylor-identity needs m >= 1")
    upper = args.N if args.N is not None else 50
    checks = []
    for m in range(m_lo, m_hi + 1):
        ok = taylor_identity_holds(m, upper)  # checks every N' <= upper
        checks.append({"label": f"m={m}", "pass": ok, "asserted": True})
    return _check_payload(
        "taylor-identity", {"m_lo": m_lo, "m_hi": m_hi, "N": upper}, checks
    )


def _verify_reduced_forms(args) -> dict:
    N = args.N if args.N is not None else 10_000
    tol = args.tol if args.tol is not None else 1e-5
    ms = sorted(REDUCED_FORMS)
    checks = []
    for m, residual in zip(ms, reduced_form_residuals(ms, N)):
        asserted = m != 12  # the weight-12 short form is data under test
        checks.append(
            _residual_check(f"m={m}", residual, tol if asserted else None, asserted)
        )
    return _check_payload("reduced-forms", {"N": N, "tolerance": tol}, checks)


def _verify_stuffle(args) -> dict:
    N = args.N if args.N is not None else 10_000
    tol = args.tol if args.tol is not None else 1e-6
    checks = []
    depth1 = [((4,), (4,)), ((4,), (6,)), ((2,), (2,))]
    depth2 = [((4, 4), (2,)), ((2, 2), (6,)), ((2, 2), (4,))]
    pairs = depth1 + depth2
    for (s, t), residual in zip(pairs, stuffle_residuals(pairs, N)):
        label = "".join(f"zeta({','.join(map(str, u))})" for u in (s, t))
        checks.append(_residual_check(label, residual, tol))
    return _check_payload("stuffle", {"N": N, "tolerance": tol}, checks)


def _verify_functional_eq(args) -> dict:
    label = "0.5" if args.z is None else args.z
    z = _parse_complex(label)
    terms = args.terms if args.terms is not None else 100_000
    tol = args.tol if args.tol is not None else 1e-3
    residual = functional_equation_residual(z, terms)
    checks = [_residual_check(f"z={label}", residual, tol)]
    return _check_payload(
        "functional-eq",
        {"z": {"re": z.real, "im": z.imag}, "terms": terms, "tolerance": tol},
        checks,
    )


def _verify_jacobsthal(args) -> dict:
    primes = [p for p in primes_upto(31) if p >= 5] if args.p is None else [args.p]
    checks = []
    for p in primes:
        ok = all(
            jacobsthal_holds(a, b, p) for a in range(9) for b in range(a + 1)
        )
        checks.append({"label": f"p={p}", "pass": ok, "asserted": True})
    return _check_payload("jacobsthal", {"primes": primes, "a_max": 8}, checks)


def _verify_wolstenholme(args) -> dict:
    if args.p is not None and args.p < 5:
        raise ValueError(f"p must be a prime >= 5, got {args.p}")
    primes = [p for p in primes_upto(200) if p >= 5] if args.p is None else [args.p]
    checks = [
        {"label": f"p={p}", "pass": wolstenholme_residue(p).value == 0, "asserted": True}
        for p in primes
    ]
    return _check_payload("wolstenholme", {"primes": primes}, checks)


# the verify theorem ids, in the order the help text lists them
THEOREMS = {
    "lucas-p": functools.partial(_verify_congruence, verify_lucas_mod_p, (-10, 10)),
    "gessel-p2": functools.partial(_verify_congruence, verify_gessel_mod_p2, (-10, 10)),
    "p3-suite": functools.partial(_verify_congruence, verify_mod_p3_suite, (-10, 10)),
    "digitset-p2": functools.partial(_verify_congruence, verify_digit_set_lucas, None),
    "corollary": _verify_multi_digit,
    "lucas-p3": _verify_multi_digit,
    "taylor-identity": _verify_taylor_identity,
    "reduced-forms": _verify_reduced_forms,
    "stuffle": _verify_stuffle,
    "functional-eq": _verify_functional_eq,
    "jacobsthal": _verify_jacobsthal,
    "wolstenholme": _verify_wolstenholme,
}


def _cmd_verify(args: argparse.Namespace) -> Result:
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise ValueError("--tol must be finite and positive")
    payload = THEOREMS[args.theorem](args)
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), help="output format"
    )
    common.add_argument("--cache", help=f"cache file path (default ${CACHE_ENV})")
    common.add_argument("--config", help=f"JSON config file (default ${CONFIG_ENV})")
    common.add_argument("--workers", type=int, help="ignored; scans run serially")

    parser = _Parser(
        prog="apery",
        description="Apery numbers: exact values, congruence checks, digit "
        "sets, and Taylor/MZV identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apery", parents=[common], help="print A(n), optionally mod M")
    p.add_argument("n", type=int)
    p.add_argument("--mod", type=int, help="reduce modulo M (fast for p and p^2)")

    p = sub.add_parser("aperyd", parents=[common], help="print A'(n) as num/den")
    p.add_argument("n", type=int)

    p = sub.add_parser("digits", parents=[common], help="digit sets D(p)")
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("--scan", type=int, metavar="PMAX", help="scan all primes <= PMAX")
    p.add_argument("--min-size", type=int, default=1, help="minimum |D(p)| to report")

    p = sub.add_parser("verify", parents=[common], help="run a verification sweep")
    p.add_argument("theorem", choices=tuple(THEOREMS))
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=parse_range, metavar="LO..HI")
    p.add_argument("--m", type=parse_range, metavar="LO..HI")
    p.add_argument("--N", type=int, help="truncation bound")
    p.add_argument("--terms", type=int, help="series terms for numeric checks")
    p.add_argument("--tol", type=float, help="numeric tolerance")
    p.add_argument("--depth", type=int, help="base-p digit count for digit laws")
    p.add_argument("--z", help="evaluation point, e.g. 0.5 or 0.3+0.2j")

    p = sub.add_parser("taylor", parents=[common], help="Taylor coefficient a_m")
    p.add_argument("m", type=int)
    p.add_argument("--terms", action="store_true", help="list the MZV terms")
    p.add_argument("--exact", action="store_true", help="exact truncated value")
    p.add_argument(
        "--float", dest="as_float", action="store_true", help="extrapolated estimate"
    )
    p.add_argument("--N", type=int, default=50, help="truncation bound")

    p = sub.add_parser("eval", parents=[common], help="numeric A(z)")
    p.add_argument("z", help="evaluation point, e.g. -0.5 or 0.25+0.25j")
    p.add_argument("--terms", type=int, default=100_000)

    p = sub.add_parser("cache", parents=[common], help="manage the value cache")
    p.add_argument("action", choices=("fill", "verify", "info"))
    p.add_argument("--n", type=parse_range, metavar="LO..HI", help="range for fill")

    return parser


_HANDLERS = {
    "apery": _cmd_apery,
    "aperyd": _cmd_aperyd,
    "digits": _cmd_digits,
    "verify": _cmd_verify,
    "taylor": _cmd_taylor,
    "eval": _cmd_eval,
    "cache": _cmd_cache,
}


def main(argv: list[str] | None = None) -> int:
    # decimal output of arbitrary-precision values is part of the contract;
    # lift the interpreter's int/str conversion cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _run_config(args)
        if args.command == "cache" and args.action == "fill" and args.n is None:
            raise ValueError("cache fill needs --n LO..HI")
        if args.format == "csv" and args.command != "digits":
            raise ValueError("csv output is only available for the digits command")
        code, payload, text = _HANDLERS[args.command](args)
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
