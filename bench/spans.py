"""Spans around the package's public functions, recorded from outside it.

install() replaces every public function of every apery module, under each
name any apery module binds it to (cli and congruences import
mod_p2_tables from sequence, for instance), plus AperyCache.get and
AperyCache.put.  Every call is counted.  A call opens a span when it enters
another layer than the span it runs in: a layer is one of GROUPS, or a
single function outside them.  So apery_fast -> apery_via_recurrence ->
AperyCache.get is one "sequence.prefix" span with three call counts, which
keeps the per-step memo calls cheap to record.

Spans are aggregated into a calling-context tree per request: one node per
(parent node, function that opened it) with its span count, total time and
the time covered by its children, so self time is total minus children.
The tree stays in memory; the benchmark writes all trees out at the end.

Only the thread that owns the tracer records anything.  Calls made from the
thread pool of `digits --scan --workers 2` pass through, so their time
stays with the span that waits for them (scan_digit_sets).
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import Counter
from time import perf_counter

MODULES = ("sequence", "congruences", "function", "mzv", "cachefile", "cli", "arith")

# layer -> the functions it is made of
GROUPS = {
    "sequence.prefix": (
        "sequence.apery_fast",
        "sequence.apery_via_recurrence",
        "sequence.AperyCache.get",
        "sequence.AperyCache.put",
    ),
    "sequence.tables": ("sequence.mod_p_table", "sequence.mod_p2_tables"),
    "sequence.deriv": ("sequence.apery_deriv", "sequence.apery_deriv_reflected"),
    "sequence.digit_route": ("sequence.apery_mod_p", "sequence.apery_mod_p2"),
    "sequence.sweep": ("sequence.apery_mod_sweep",),
    "congruences.verify": (
        "congruences.verify_lucas_mod_p",
        "congruences.verify_gessel_mod_p2",
        "congruences.verify_mod_p3_suite",
        "congruences.verify_digit_set_lucas",
        "congruences.verify_multi_digit",
    ),
    "congruences.digit_set": ("congruences.digit_set", "congruences.scan_digit_sets"),
    "function.eval": ("function.apery_eval", "function.functional_equation_residual"),
    "function.taylor_dp": ("function.taylor_coeff_truncated",),
    "mzv.partial": ("mzv.mzv_partial",),
    "mzv.identity": ("mzv.taylor_identity_holds",),
    "mzv.float": ("mzv.mzv_float",),
    "cachefile.load": ("cachefile.cache_load",),
    "cachefile.store": ("cachefile.cache_store",),
    "arith.is_prime": ("arith.is_prime",),
    "arith.rational_mod": ("arith.rational_mod",),
}
LAYER = {name: group for group, names in GROUPS.items() for name in names}

# a tree node is [function, parent node, spans opened, total_s, child_s]
SPANS, TOTAL, CHILD = 2, 3, 4

TRUST_ABOVE = 400  # cachefile recomputes isolated records up to this index


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.nodes: list[list] = [["request", -1, 0, 0.0, 0.0]]
        self.index: dict[tuple[int, str], int] = {}
        self.current = 0
        self.layer = "request"
        self.calls: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.misses = 0  # AperyCache.get calls that found nothing
        self.owner = threading.get_ident()

    def node(self, parent: int, name: str) -> int:
        key = (parent, name)
        found = self.index.get(key)
        if found is None:
            found = self.index[key] = len(self.nodes)
            self.nodes.append([name, parent, 0, 0.0, 0.0])
        return found

    def snapshot(self) -> dict:
        counters = dict(self.counters, **{"memo.misses": self.misses})
        return {"nodes": self.nodes, "calls": dict(self.calls), "counters": counters}


def _trusted_records(values: dict) -> int:
    """Records cache_load takes on trust: outside every run of three or more
    consecutive indices, and above the direct-recomputation bound."""
    keys = set(values)
    in_run = set()
    for n in keys:
        if n - 1 not in keys and n + 1 in keys and n + 2 in keys:
            m = n
            while m in keys:
                in_run.add(m)
                m += 1
    return sum(1 for n in keys if n not in in_run and n > TRUST_ABOVE)


def _hook(name: str):
    """Counters recorded at a call boundary: f(counters, args, kwargs, result)."""
    if name == "sequence.AperyCache.put":

        def hook(c, args, kwargs, result):
            c["prefix.peak_bits"] = max(c["prefix.peak_bits"], args[2].bit_length())

    elif name == "sequence.apery_mod_sweep":

        def hook(c, args, kwargs, result):
            c["sweep.steps"] += max(max(args[0], default=0) - 1, 0)

    elif name == "function.apery_eval":

        def hook(c, args, kwargs, result):
            c["eval.terms"] += result.terms

    elif name.startswith("congruences.verify_"):

        def hook(c, args, kwargs, result):
            c["verify.cases"] += result.checked

    elif name == "cachefile.cache_load":

        def hook(c, args, kwargs, result):
            if kwargs.get("verify", args[1] if len(args) > 1 else True):
                c["cachefile.trusted_records"] += _trusted_records(result)

    else:
        return None
    return hook


def _wrap(tracer: Tracer, name: str, fn):
    hook = _hook(name)
    layer = LAYER.get(name, name)
    get_ident, clock = threading.get_ident, perf_counter
    # the memo lookup is the most frequent call; its misses are counted
    # inline rather than through a hook
    is_get = name == "sequence.AperyCache.get"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t = tracer
        if get_ident() != t.owner:
            return fn(*args, **kwargs)
        calls = t.calls
        calls[name] = calls.get(name, 0) + 1
        if t.layer is layer:  # still inside this layer's span
            result = fn(*args, **kwargs)
        else:
            parent, outer = t.current, t.layer
            node = t.index.get((parent, name))
            if node is None:
                node = t.node(parent, name)
            t.current, t.layer = node, layer
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                t.current, t.layer = parent, outer
                nodes = t.nodes
                record = nodes[node]
                record[SPANS] += 1
                record[TOTAL] += elapsed
                nodes[parent][CHILD] += elapsed
        if is_get:
            if result is None:
                t.misses += 1
        elif hook is not None:
            hook(t.counters, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the package's public functions; returns a function that undoes it."""
    import apery
    from apery import arith, cachefile, cli, congruences, function, mzv, sequence

    defining = (arith, sequence, cachefile, congruences, function, mzv, cli)
    wrappers = {}
    for module in defining:
        short = module.__name__.rsplit(".", 1)[1]
        names = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")
        ]
        for n in names:
            obj = getattr(module, n)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[obj] = _wrap(tracer, f"{short}.{n}", obj)
    undo = []
    for module in (apery,) + defining:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                undo.append((module, attr, obj))
    cache_cls = sequence.AperyCache
    for method in ("get", "put"):
        original = cache_cls.__dict__[method]
        setattr(cache_cls, method, _wrap(tracer, f"sequence.AperyCache.{method}", original))
        undo.append((cache_cls, method, original))

    def uninstall() -> None:
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)

    return uninstall


class Profile:
    """Calls, self time and total time per function, summed over requests."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counters: Counter = Counter()

    def add(self, snapshot: dict) -> None:
        for name, parent, spans, total, child in snapshot["nodes"][1:]:
            self.self_s[name] += total - child
            # a layer never opens a span inside its own span, so no time is
            # counted twice here
            self.total_s[name] += total
        self.calls.update(snapshot["calls"])
        for key, value in snapshot["counters"].items():
            if key == "prefix.peak_bits":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def group(self, layer: str, field: str) -> float:
        table = {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s}[field]
        return sum(table[name] for name in GROUPS[layer])

    def module_self(self, module: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(module + "."))
