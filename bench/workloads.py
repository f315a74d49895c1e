"""Seeded request lists for the three workloads.

Every list is a pure function of (workload, seed, count).  Each request
class gets a fixed share of the list, and within a class the size parameter
is drawn by stratified sampling: the i-th of n requests takes the
((i + u) / n)-quantile of the class's size range, u uniform.  Whatever else
moves the cost (the pool prime, m, a flag) cycles with i, and the seed
draws only what leaves the cost alone (signs, digits of N, the evaluation
point, the order).  Two seeds therefore give nearly the same multiset of
request costs, and the union of the classes spreads latency smoothly from
about 20 ms to about a second, so no percentile sits on a cliff between
classes.
"""

from __future__ import annotations

import math
import random

# Requests per second of service time, measured on the reference machine;
# they size a list so that serving it takes about --seconds.
RATE = {"modular-cli": 6.0, "exact-session": 5.2, "analytic-cli": 7.0}
MIN_REQUESTS = 100
SEGMENTS = 6  # requests_per_s is the median over these

# exact-session keeps every index below this, so the shared memo stays near
# 30 MB and the prefix to it is built once per session.
SESSION_N_MAX = 10_000
SESSION_POOL = (5, 7, 11, 13, 23, 31, 47, 61, 83, 101)


def request_count(workload: str, seconds: int) -> int:
    return max(MIN_REQUESTS, round(RATE[workload] * seconds))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _log_between(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _apportion(total: int, shares: dict[str, float]) -> dict[str, int]:
    """Largest-remainder split of total by the shares."""
    raw = {k: total * s / sum(shares.values()) for k, s in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    left = total - sum(counts.values())
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[:left]:
        counts[k] += 1
    return counts


def _signed_big(rng: random.Random) -> int:
    """An integer of 1 to 40 decimal digits, either sign."""
    digits = rng.randint(1, 40)
    n = rng.randrange(10 ** (digits - 1), 10**digits)
    return n if rng.random() < 0.5 else -n


# --- modular-cli ---------------------------------------------------------

MODULAR_SHARES = {
    "mod_p": 0.26,
    "mod_p2": 0.18,
    "digits": 0.12,
    "scan": 0.18,
    "corollary": 0.16,
    "composite": 0.10,
}


def _modular(rng: random.Random, cls: str, u: float, j: int) -> dict:
    if cls == "mod_p":
        p = next_prime(round(_log_between(2000, 8500, u)))
        n = _signed_big(rng)
        return {"argv": ["apery", str(n), "--mod", str(p)], "check": ("mod_p", n, p)}
    if cls == "mod_p2":
        p = next_prime(round(_log_between(90, 230, u)))
        n = _signed_big(rng)
        return {"argv": ["apery", str(n), "--mod", str(p * p)], "check": ("mod_p2", n, p)}
    if cls == "digits":
        p = next_prime(round(_log_between(2000, 4400, u)))
        return {"argv": ["digits", str(p)], "check": ("digits", p)}
    if cls == "scan":
        bound = round(_log_between(450, 2200, u))
        min_size = rng.randint(1, 6)
        argv = ["digits", "--scan", str(bound), "--min-size", str(min_size)]
        if j % 3 == 0:  # a third of the scans ask for two workers
            argv += ["--workers", "2"]
        return {"argv": argv, "check": ("scan", bound, min_size)}
    if cls == "corollary":
        p = next_prime(round(_log_between(53, 200, u)))
        depth = 3 + j % 4
        argv = ["verify", "corollary", "--p", str(p), "--depth", str(depth)]
        return {"argv": argv, "check": ("verify", "corollary", 3**depth)}
    # composite modulus: the exact fallback route
    n = round(_log_between(2200, 5000, u))
    n = n if rng.random() < 0.5 else -1 - n
    factors = sorted(rng.sample(range(10_007, 1_000_000), 2))
    q1, q2 = next_prime(factors[0]), next_prime(factors[1] + 1)
    if q1 == q2:
        q2 = next_prime(q2 + 1)
    return {"argv": ["apery", str(n), "--mod", str(q1 * q2)], "check": ("composite", n, q1, q2)}


# --- analytic-cli --------------------------------------------------------

ANALYTIC_SHARES = {
    "eval": 0.20,
    "functional_eq": 0.10,
    "taylor_float": 0.12,
    "stuffle": 0.06,
    "reduced_forms": 0.06,
    "identity": 0.19,
    "taylor_exact": 0.19,
    "negative_complex": 0.05,  # the CLI cannot parse these; see below
}


def _eval(z: str, u: float, as_json: bool) -> dict:
    terms = round(_log_between(30_000, 500_000, u))
    argv = ["eval", z, "--terms", str(terms)] + (["--format", "json"] if as_json else [])
    return {"argv": argv, "check": ("eval", z, terms, as_json)}


def _functional_eq(z: str, u: float) -> dict:
    terms = round(_log_between(15_000, 160_000, u))
    argv = ["verify", "functional-eq", "--z", z, "--terms", str(terms), "--tol", "0.01"]
    return {"argv": argv, "check": ("functional_eq", z, terms, 0.01)}


def _analytic(
    rng: random.Random, cls: str, u: float, j: int, usable: list[str], rejected: list[str]
) -> dict:
    if cls == "eval":
        return _eval(rng.choice(usable), u, bool(j % 2))
    if cls == "functional_eq":
        return _functional_eq(rng.choice(usable), u)
    if cls == "taylor_float":
        m = 8 + j % 9
        # cost grows about 1.52x per unit of m at fixed N
        n = round(_log_between(1500, 15_000, u) / 1.52 ** (m - 10))
        n = max(n, 600)
        return {"argv": ["taylor", str(m), "--float", "--N", str(n)], "check": ("taylor_float", m, n)}
    if cls == "stuffle":
        n = round(_log_between(1000, 6000, u))
        return {"argv": ["verify", "stuffle", "--N", str(n)], "check": ("verify_lines", "stuffle", 6)}
    if cls == "reduced_forms":
        n = round(_log_between(1000, 3000, u))
        argv = ["verify", "reduced-forms", "--N", str(n)]
        return {"argv": argv, "check": ("verify_lines", "reduced-forms", 5)}
    if cls == "identity":
        m_hi = 4 + j % 9
        # cost is about 0.14 ms * 1.3^(m_hi - 4) * N^2
        target_ms = _log_between(25, 700, u)
        n = round(math.sqrt(target_ms / (0.14 * 1.3 ** (m_hi - 4))))
        n = min(max(n, 5), 60)
        argv = ["verify", "taylor-identity", "--m", f"1..{m_hi}", "--N", str(n)]
        return {"argv": argv, "check": ("verify_lines", "taylor-identity", m_hi)}
    if cls == "taylor_exact":
        m = 10 + j % 11
        n = round(_log_between(120, 360, u))
        return {"argv": ["taylor", str(m), "--exact", "--N", str(n)], "check": ("taylor_exact", m, n)}
    # a complex point left of Re z = 0, typed as a user would; argparse takes
    # the leading '-' for an option and exits 2
    z = rng.choice(rejected)
    return _eval(z, u, False) if j % 2 else _functional_eq(z, u)


# --- exact-session -------------------------------------------------------

SESSION_SHARES = {
    "lucas": 0.14,
    "gessel": 0.12,
    "p3": 0.10,
    "digitset": 0.10,
    "unit": 0.10,
    "point": 0.20,
    "cache": 0.24,
}

# (p, depth) for the rolling mod p^3 sweep to p^depth - 1, in sweep length;
# these are the session's heaviest requests
UNIT_CASES = ((5, 5), (17, 3), (19, 3), (23, 3), (11, 4), (5, 6), (7, 5))
DIGITSET_POOL = (5, 7, 11, 13)  # D(p) is small, so witnesses end most digits early
DIGITS_PER_INDEX = 1.5311  # log10 of the growth rate (1 + sqrt 2)^4 of A(n)


def _n_range(rng: random.Random, length: int, limit: int) -> tuple[int, int]:
    """A range of `length` integers around zero inside [-limit, limit]."""
    length = min(length, 2 * limit)
    lo = -round(length * rng.uniform(0.3, 0.7))
    lo = min(max(lo, -limit), limit + 1 - length)
    return lo, lo + length - 1


def _session(rng: random.Random, cls: str, u: float, j: int) -> dict:
    if cls in ("lucas", "gessel"):
        p = SESSION_POOL[j % len(SESSION_POOL)]
        cases = _log_between(9000, 20_000, u)
        # indices d + p n reach p * max(|lo|, hi + 1)
        lo, hi = _n_range(rng, round(cases / p), SESSION_N_MAX // p - 1)
        return {"call": cls, "p": p, "lo": lo, "hi": hi}
    if cls == "digitset":
        p = DIGITSET_POOL[j % len(DIGITSET_POOL)]
        length = round(_log_between(2000, 4000, u))
        lo, hi = _n_range(rng, length, SESSION_N_MAX // p - 1)
        return {"call": "digitset", "p": p, "lo": lo, "hi": hi}
    if cls == "p3":
        p = (2, 3, 5)[j % 3]
        per_n = {2: 1, 3: 3, 5: 2}[p]
        cases = _log_between(8000, 20_000, u)
        limit = SESSION_N_MAX - 1 if p == 2 else SESSION_N_MAX // p - 1
        lo, hi = _n_range(rng, round(cases / per_n), limit)
        return {"call": "p3", "p": p, "lo": lo, "hi": hi}
    if cls == "unit":
        p, depth = UNIT_CASES[min(int(u * len(UNIT_CASES)), len(UNIT_CASES) - 1)]
        return {"call": "unit", "p": p, "depth": depth}
    if cls == "point":
        return {"call": "point", "n": round(_log_between(450, 1800, u))}
    # a cache round trip of a contiguous memo slice holding about `digits`
    # decimal digits, plus three isolated records above 400
    digits = _log_between(6e5, 3e6, u)
    start = round((j * 0.6180339887) % 1 * SESSION_N_MAX / 2)
    end = start
    while digits > 0 and end < SESSION_N_MAX - 1:
        digits -= DIGITS_PER_INDEX * end + 1
        end += 1
    ns = set(range(start, end))
    isolated: set[int] = set()
    while len(isolated) < 3:
        n = rng.randrange(401, SESSION_N_MAX)
        if all(abs(n - m) > 1 for m in ns | isolated):
            isolated.add(n)
    return {
        "call": "cache",
        "slice": [start, end - 1],
        "isolated": sorted(isolated),
        "spot": [start, end - 1, min(isolated)],
    }


def build(workload: str, seed: int, count: int, points: dict) -> list[dict]:
    """The request list: dicts with "argv" (CLI workloads) or "call"
    (exact-session), a "check" spec for CLI requests, and a "segment".

    The list is SEGMENTS consecutive segments with the same mix: each block
    of SEGMENTS neighbouring strata of a class is dealt out one per segment,
    so every segment samples every class across its whole size range.
    """
    rng = random.Random(f"{workload}:{seed}")
    shares = {
        "modular-cli": MODULAR_SHARES,
        "analytic-cli": ANALYTIC_SHARES,
        "exact-session": SESSION_SHARES,
    }[workload]
    parsed = {text: complex(text) for text in points}
    usable = [t for t, z in parsed.items() if z.imag == 0 or z.real > 0]
    rejected = [t for t, z in parsed.items() if z.imag != 0 and z.real < 0]
    segments: list[list[dict]] = [[] for _ in range(SEGMENTS)]
    for cls, n in _apportion(count, shares).items():
        deal: list[int] = []
        while len(deal) < n:
            block = list(range(SEGMENTS))
            rng.shuffle(block)
            deal += block
        for i in range(n):
            u = (i + rng.random()) / n
            if workload == "modular-cli":
                req = _modular(rng, cls, u, i)
            elif workload == "analytic-cli":
                req = _analytic(rng, cls, u, i, usable, rejected)
            else:
                req = _session(rng, cls, u, i)
            req["class"] = cls
            req["segment"] = deal[i]
            segments[deal[i]].append(req)
    out = []
    for segment in segments:
        rng.shuffle(segment)
        out += segment
    return out
