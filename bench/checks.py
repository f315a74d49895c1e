"""Answer checks, run after each request's timer has stopped.

check() returns ("ok" | "failed" | "wrong", detail):
- "failed": the request raised, died, or exited 2 (a usage error);
- "wrong": it returned an answer that disagrees with the reference, or
  exited 1, which claims a true theorem false;
- "ok": exit 0 and the answer agrees.
Every request counts toward failed_frac unless it is "ok"; only "wrong"
answers make the run's `correct` false.
"""

from __future__ import annotations

import json

import oracle
import workloads


def _crt(r1: int, q1: int, r2: int, q2: int) -> int:
    return (r1 + q1 * ((r2 - r1) * pow(q1, -1, q2) % q2)) % (q1 * q2)


class Checker:
    def __init__(self, refs: oracle.References):
        self.refs = refs
        self.err_max = 0.0  # over float answers: |answer - ref| / max(1, |ref|)
        self.residual_ratio_max = 0.0  # actual error / reported residual
        self._digits: dict[int, oracle.PrimeDigits] = {}
        self._sums: oracle.DirectSums | None = None
        self._taylor: oracle.TaylorPartialSums | None = None

    def digits(self, p: int) -> oracle.PrimeDigits:
        if p not in self._digits:
            self._digits[p] = oracle.PrimeDigits(p)
        return self._digits[p]

    def sums(self) -> oracle.DirectSums:
        """Direct sums modulo 2^61 - 1 over every index a session requests."""
        if self._sums is None:
            self._sums = oracle.DirectSums(workloads.SESSION_N_MAX)
        return self._sums

    def check(self, request: dict, reply: dict) -> tuple[str, str]:
        if reply.get("raised"):
            return "failed", reply["raised"]
        if "argv" in request:
            code = reply["code"]
            if code == 1:
                return "wrong", f"exit 1: {reply['stdout'][:200]}"
            if code != 0:
                return "failed", f"exit {code}: {reply['stderr'].strip()[:200]}"
            kind, *params = request["check"]
            problem = getattr(self, "_cli_" + kind)(reply["stdout"], *params)
        else:
            problem = getattr(self, "_call_" + request["call"])(request, reply["answer"])
        return ("wrong", problem) if problem else ("ok", "")

    # --- modular-cli -------------------------------------------------------

    def _cli_mod_p(self, out: str, n: int, p: int) -> str | None:
        expected = oracle.apery_mod_p(n, self.digits(p))
        return None if out == f"{expected}\n" else f"A({n}) mod {p}: got {out!r}, want {expected}"

    def _cli_mod_p2(self, out: str, n: int, p: int) -> str | None:
        expected = oracle.apery_mod_p2(n, self.digits(p))
        return None if out == f"{expected}\n" else f"A({n}) mod {p}^2: got {out!r}, want {expected}"

    def _row(self, p: int) -> str:
        return f"{p}: " + " ".join(str(d) for d in self.refs.digit_sets[p])

    def _cli_digits(self, out: str, p: int) -> str | None:
        want = self._row(p) + "\n"
        return None if out == want else f"D({p}): got {out!r}, want {want!r}"

    def _cli_scan(self, out: str, bound: int, min_size: int) -> str | None:
        rows = [
            self._row(p)
            for p in sorted(self.refs.digit_sets)
            if p <= bound and len(self.refs.digit_sets[p]) >= min_size
        ]
        want = "".join(row + "\n" for row in rows)
        return None if out == want else f"scan {bound} --min-size {min_size} differs"

    def _cli_verify(self, out: str, theorem: str, cases: int) -> str | None:
        want = f"{theorem}: PASS ({cases} cases)\n"
        return None if out == want else f"got {out[:200]!r}, want {want!r}"

    def _cli_composite(self, out: str, n: int, q1: int, q2: int) -> str | None:
        m = abs(n)
        r1 = oracle.DirectSums(m, q1).apery(n)
        r2 = oracle.DirectSums(m, q2).apery(n)
        expected = _crt(r1, q1, r2, q2)
        return None if out == f"{expected}\n" else f"A({n}) mod {q1 * q2}: got {out!r}, want {expected}"

    # --- analytic-cli ------------------------------------------------------

    def _float_error(self, value: complex, ref: complex) -> float:
        err = abs(value - ref) / max(1.0, abs(ref))
        self.err_max = max(self.err_max, err)
        return err

    def _cli_eval(self, out: str, z_text: str, terms: int, as_json: bool) -> str | None:
        ref = self.refs.points[z_text]
        z = complex(z_text)
        if as_json:
            data = json.loads(out)
            value = complex(data["re"], data["im"])
            if data["terms"] != terms:
                return f"eval {z_text}: summed {data['terms']} terms, asked {terms}"
        else:
            value = complex(out.strip())
        actual = abs(value - ref)
        self._float_error(value, ref)
        if as_json and data["residual"] > 0:
            self.residual_ratio_max = max(self.residual_ratio_max, actual / data["residual"])
        bound = 1.5 * oracle.series_tail(z, terms) + 1e-12 * max(1.0, abs(ref))
        if actual > bound:
            return f"eval {z_text} --terms {terms}: error {actual:.3e} above tail {bound:.3e}"
        return None

    def _cli_functional_eq(self, out: str, z_text: str, terms: int, tol: float) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2 or lines[0] != "functional-eq: PASS":
            return f"functional-eq {z_text}: {out[:200]!r}"
        residual = float(lines[1].rsplit("residual=", 1)[1])
        z = complex(z_text)
        # each partial sum is short of A by its tail; the equation's
        # coefficients scale those tails
        weight = abs(z) ** 3 + abs(34 * z**3 - 51 * z**2 + 27 * z - 5) + abs(z - 1) ** 3
        bound = weight * 1.5 * oracle.series_tail(z, terms - 2) + 1e-9
        if not residual < tol or residual > bound:
            return f"functional-eq {z_text}: residual {residual:.3e}, bound {bound:.3e}"
        return None

    def _cli_taylor_float(self, out: str, m: int, n: int) -> str | None:
        value = float(out)
        ref = self.refs.taylor[m]
        self._float_error(value, ref)
        # Richardson leaves an error of order (log N)^j / N^2
        tol = 20 * max(1.0, abs(ref)) / n**2
        if abs(value - ref) > tol:
            return f"taylor {m} --float --N {n}: {value!r}, ref {ref!r}"
        return None

    def _cli_verify_lines(self, out: str, theorem: str, checks: int) -> str | None:
        lines = out.splitlines()
        if lines[:1] != [f"{theorem}: PASS"] or len(lines) != checks + 1:
            return f"{theorem}: {out[:200]!r}"
        if not all(": PASS" in line for line in lines[1:]):
            return f"{theorem}: a check failed"
        return None

    def _cli_taylor_exact(self, out: str, m: int, n: int) -> str | None:
        if self._taylor is None:
            self._taylor = oracle.TaylorPartialSums(20)
        q = self._taylor.coefficient(m, n)
        want = f"{q.numerator}/{q.denominator}\n"
        return None if out == want else f"taylor {m} --exact --N {n} differs"

    # --- exact-session -----------------------------------------------------

    @staticmethod
    def _report(answer: dict, checked: int) -> str | None:
        if not answer["pass"] or not answer["conclusive"] or answer["counterexamples"]:
            return f"{answer['theorem']}: reported a failure"
        if answer["checked"] != checked:
            return f"{answer['theorem']}: checked {answer['checked']}, want {checked}"
        return None

    def _call_lucas(self, request: dict, answer: dict) -> str | None:
        return self._report(answer, request["p"] * (request["hi"] - request["lo"] + 1))

    _call_gessel = _call_lucas

    def _call_p3(self, request: dict, answer: dict) -> str | None:
        per_n = {2: 1, 3: 3}.get(request["p"], 2)
        return self._report(answer, per_n * (request["hi"] - request["lo"] + 1))

    def _call_unit(self, request: dict, answer: dict) -> str | None:
        return self._report(answer, 2 ** request["depth"])

    def _call_digitset(self, request: dict, answer: dict) -> str | None:
        p, lo, hi = request["p"], request["lo"], request["hi"]
        members = self.refs.digit_sets[p]
        if tuple(answer["parameters"]["digits"]) != members:
            return f"D({p}) = {answer['parameters']['digits']}, want {members}"
        witnessed = sorted(w["d"] for w in answer["witnesses"])
        if witnessed != [d for d in range(p) if d not in members]:
            return f"digitset-p2 {p}: witnesses for {witnessed}"
        digits, m = self.digits(p), p * p
        checked = (hi - lo + 1) * len(members)
        for w in answer["witnesses"]:
            d, n = w["d"], w["n"]
            lhs = oracle.apery_mod_p2(d + p * n, digits)
            rhs = digits.a_mod_p2(d)[0] * oracle.apery_mod_p2(n, digits) % m
            if lhs == rhs or (str(lhs), str(rhs)) != (w["lhs"]["value"], w["rhs"]["value"]):
                return f"digitset-p2 {p}: witness d={d} n={n} is not a violation"
            checked += n - lo + 1
        return self._report(answer, checked)

    def _call_point(self, request: dict, answer: dict) -> str | None:
        n, sums = request["n"], self.sums()
        if answer["value"] % sums.q != sums.apery(n):
            return f"A({n}) differs from the binomial sum"
        if sums.reduce(*answer["deriv"]) != sums.apery_deriv(n):
            return f"A'({n}) differs from the harmonic binomial sum"
        return None

    def _call_cache(self, request: dict, answer: dict) -> str | None:
        lo, hi = request["slice"]
        if answer["keys"] != sorted(set(range(lo, hi + 1)) | set(request["isolated"])):
            return "cache round trip lost or added records"
        if not answer["round_trip"]:
            return "cache round trip changed a value"
        sums = self.sums()
        for n, value in answer["spot"].items():
            if value is None or value % sums.q != sums.apery(n):
                return f"cached A({n}) differs from the binomial sum"
        return None
