"""Command line front end.

Subcommands: apery, aperyd, digits, verify, taylor, eval, cache.
Exit codes: 0 everything checked out, 1 a verification found a claim false
or inconclusive, 2 usage or input error.

Each `_cmd_*` handler returns (exit code, payload, text) and prints nothing;
`main` prints `json.dumps(payload, sort_keys=True)` under `--format json`,
else the text unless it is None.  Only `_cmd_digits` reads the format (csv).

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
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    PRIMALITY_BOUND,
    Residue,
    _require_prime,
    is_prime,
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
    reduced_form_residual,
    stuffle_depth1_residual,
    stuffle_depth2_residual,
    taylor_coeff_float,
    taylor_identity_holds,
    taylor_terms,
)
from .sequence import (
    AperyCache,
    _recurrence_mod,
    apery_deriv,
    apery_fast,
    apery_mod_p,
    apery_mod_p2,
)

CACHE_ENV = "APERY_CACHE"
CONFIG_ENV = "APERY_CONFIG"


@dataclass
class RunConfig:
    """Cross-cutting options, merged from config file, environment, flags."""

    format: str = "plain"
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in ("plain", "json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _run_config(args: argparse.Namespace) -> RunConfig:
    # an explicit empty --config or --cache means none, not the default
    config_path = getattr(args, "config", None)
    if config_path is None:
        config_path = os.environ.get(CONFIG_ENV)
    config = _load_config_file(config_path)
    cache_path = getattr(args, "cache", None)
    if cache_path is None:
        cache_path = os.environ.get(CACHE_ENV) or config.get("cache")
        if not isinstance(cache_path, (str, type(None))):
            raise ValueError("config key 'cache' must be a path string")
    cfg = RunConfig(
        format=getattr(args, "format", None) or config.get("format", "plain"),
        cache_path=cache_path,
    )
    # --workers is accepted and ignored (scans run serially), but not 0
    if args.workers is not None and args.workers < 1:
        raise ValueError("workers must be >= 1")
    return cfg


def _open_cache(cfg: RunConfig) -> AperyCache:
    if cfg.cache_path and os.path.exists(cfg.cache_path):
        return AperyCache(cache_load(cfg.cache_path))
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


def _cmd_apery(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if args.mod is None:
        value = str(apery_fast(args.n, _open_cache(cfg)))
        return 0, {"n": args.n, "value": value}, value
    if args.mod < 2:
        raise ValueError("--mod must be >= 2")
    value = str(_reduce_apery(args.n, args.mod, cfg).value)
    return 0, {"n": args.n, "modulus": str(args.mod), "value": value}, value


def _reduce_apery(n: int, modulus: int, cfg: RunConfig) -> Residue:
    if n < 0:
        n = -1 - n
    # the digit routes for prime and prime-squared moduli build their tables
    # up to the largest base-p digit of n; below p that would be the whole
    # pass to n, which the modular pass makes without a primality test
    if modulus <= min(n, PRIMALITY_BOUND) and is_prime(modulus):
        return apery_mod_p(n, modulus)
    root = math.isqrt(modulus)
    if root * root == modulus and root <= min(n, PRIMALITY_BOUND) and is_prime(root):
        return apery_mod_p2(n, root)
    # x/den is A(n) mod M unless some k <= n shares a factor with M
    for x, den in _recurrence_mod(modulus, n):
        pass
    if math.gcd(den, modulus) == 1:
        return Residue(x * pow(den, -1, modulus), modulus)
    return Residue(apery_fast(n, _open_cache(cfg)) % modulus, modulus)


def _cmd_aperyd(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if args.n < 0:
        raise ValueError("aperyd takes n >= 0")
    value = _fraction_str(apery_deriv(args.n))
    return 0, {"n": args.n, "value": value}, value


def _cmd_digits(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if args.scan is not None:
        sets = scan_digit_sets(args.scan, args.min_size)
    elif args.p is not None:
        sets = [digit_set(args.p)]  # rejects a p that is not prime
    else:
        raise ValueError("give a prime or --scan BOUND")
    payload = {"digit_sets": [{"p": ds.p, "digits": list(ds.digits)} for ds in sets]}
    if cfg.format == "csv":
        rows = ["p,digits"] + [f"{ds.p},{' '.join(map(str, ds.digits))}" for ds in sets]
    else:
        rows = [ds.format_row() for ds in sets]
    # an empty plain scan prints nothing, not an empty line
    return 0, payload, "\n".join(rows) or None


def _cmd_taylor(args: argparse.Namespace, cfg: RunConfig) -> Result:
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


def _cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> Result:
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


def _cmd_cache(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if not cfg.cache_path:
        raise ValueError(f"give --cache PATH or set {CACHE_ENV}")
    path = cfg.cache_path
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


def _verify_congruence(sweep, args, cfg) -> dict:
    if args.p is None:
        raise ValueError(f"verify {args.theorem} needs --p")
    default = (-args.p, args.p) if args.theorem == "digitset-p2" else (-10, 10)
    return sweep(args.p, args.n or default, _open_cache(cfg)).to_dict()


def _verify_multi_digit(args, cfg) -> dict:
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


def _verify_taylor_identity(args, cfg) -> dict:
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


def _verify_reduced_forms(args, cfg) -> dict:
    N = args.N if args.N is not None else 10_000
    tol = args.tol if args.tol is not None else 1e-5
    checks = []
    for m in (4, 6, 8, 10, 12):
        asserted = m != 12  # the weight-12 short form is data under test
        checks.append(
            _residual_check(
                f"m={m}",
                reduced_form_residual(m, N),
                tol if asserted else None,
                asserted,
            )
        )
    return _check_payload("reduced-forms", {"N": N, "tolerance": tol}, checks)


def _verify_stuffle(args, cfg) -> dict:
    N = args.N if args.N is not None else 10_000
    tol = args.tol if args.tol is not None else 1e-6
    checks = []
    for a, b in ((4, 4), (4, 6), (2, 2)):
        checks.append(
            _residual_check(
                f"zeta({a})zeta({b})", stuffle_depth1_residual(a, b, N), tol
            )
        )
    for a, b, c in ((4, 4, 2), (2, 2, 6), (2, 2, 4)):
        checks.append(
            _residual_check(
                f"zeta({a},{b})zeta({c})", stuffle_depth2_residual(a, b, c, N), tol
            )
        )
    return _check_payload("stuffle", {"N": N, "tolerance": tol}, checks)


def _verify_functional_eq(args, cfg) -> dict:
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


def _verify_jacobsthal(args, cfg) -> dict:
    primes = [p for p in primes_upto(31) if p >= 5] if args.p is None else [args.p]
    checks = []
    for p in primes:
        ok = all(
            jacobsthal_holds(a, b, p) for a in range(9) for b in range(a + 1)
        )
        checks.append({"label": f"p={p}", "pass": ok, "asserted": True})
    return _check_payload("jacobsthal", {"primes": primes, "a_max": 8}, checks)


def _verify_wolstenholme(args, cfg) -> dict:
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
    "lucas-p": functools.partial(_verify_congruence, verify_lucas_mod_p),
    "gessel-p2": functools.partial(_verify_congruence, verify_gessel_mod_p2),
    "p3-suite": functools.partial(_verify_congruence, verify_mod_p3_suite),
    "digitset-p2": functools.partial(_verify_congruence, verify_digit_set_lucas),
    "corollary": _verify_multi_digit,
    "lucas-p3": _verify_multi_digit,
    "taylor-identity": _verify_taylor_identity,
    "reduced-forms": _verify_reduced_forms,
    "stuffle": _verify_stuffle,
    "functional-eq": _verify_functional_eq,
    "jacobsthal": _verify_jacobsthal,
    "wolstenholme": _verify_wolstenholme,
}


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise ValueError("--tol must be finite and positive")
    payload = THEOREMS[args.theorem](args, cfg)
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), help="output format"
    )
    common.add_argument("--cache", help=f"cache file path (default ${CACHE_ENV})")
    common.add_argument("--config", help=f"JSON config file (default ${CONFIG_ENV})")
    common.add_argument("--workers", type=int, help="ignored; scans run serially")

    parser = argparse.ArgumentParser(
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


_RANGE_VALUE = re.compile(r"^-?\d+\.\.-?\d+$")
# eval's options that take a value: the token after one is never the point
_EVAL_VALUE_FLAGS = ("--terms", "--format", "--cache", "--config", "--workers")


def _negative_point(tok: str) -> bool:
    """A token argparse reads as an option that complex() reads as a
    number, such as -0.5+0.3j or -1e-3."""
    if not tok.startswith("-"):
        return False
    try:
        complex(tok)
    except ValueError:
        return False
    return True


def _merge_flag_values(argv: list[str]) -> list[str]:
    # argparse reads "--n -10..10" and "--z -0.5+0.3j" as a flag missing its
    # value, and the point of "eval -0.5+0.3j" as an unknown option: join a
    # flag and its value with '=', and move eval's point behind '--'
    out, point, i = argv[:1], None, 1
    seeking = out == ["eval"]  # eval's point not yet found
    while i < len(argv):
        tok = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else None
        if tok == "--":
            out += argv[i:]
            break
        if value is not None and (
            (tok in ("--n", "--m") and _RANGE_VALUE.match(value))
            or (tok == "--z" and _negative_point(value))
        ):
            out.append(f"{tok}={value}")
            i += 2
            continue
        if seeking and tok in _EVAL_VALUE_FLAGS:
            out += argv[i : i + 2]
            i += 2
            continue
        if seeking and _negative_point(tok):
            point = tok
        else:
            out.append(tok)
        # a plain token is eval's point as typed; other options keep looking
        seeking = seeking and point is None and tok.startswith("-")
        i += 1
    return out if point is None else out + ["--", point]


def main(argv: list[str] | None = None) -> int:
    # decimal output of arbitrary-precision values is part of the contract;
    # lift the interpreter's int/str conversion cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_flag_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _run_config(args)
        if args.command == "cache" and args.action == "fill" and args.n is None:
            raise ValueError("cache fill needs --n LO..HI")
        if cfg.format == "csv" and args.command != "digits":
            raise ValueError("csv output is only available for the digits command")
        code, payload, text = _HANDLERS[args.command](args, cfg)
        if cfg.format == "json":
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
