"""Benchmark for apery: three workloads, each served closed-loop by one client.

    python3 bench/run.py --workload modular-cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root; the package is imported from src/.  A run
builds a fixed request list from --seed, sized from --seconds
(workloads.RATE), and serves it one request at a time through a worker
process (worker.py).  Every answer is checked after its timer stops,
against a route independent of the one the request exercises (checks.py,
oracle.py).

--trace 0 prints the end-to-end metrics:
  setup_s         median of the cold starts spread over the run (spawn a
                  fresh interpreter until apery and apery.cli are imported)
  requests_per_s  successful requests per second of service time, the
                  median over the list's equal-mix segments
  req_p50_s, req_p90_s
                  request latency; a failed request counts as +inf
  peak_rss_mb     largest RSS of the serving process or a request's child
  ok_frac         share of attempted requests answered correctly
--trace 1 serves the same list through a worker whose package functions
are wrapped (spans.py) and prints the per-module metrics; its leading
PAIRED_SHARE of requests also go to an untraced worker, which gives
trace.overhead_frac.  Span trees go to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds diagnostics (the
speed probe at both ends, service time by request class, failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from worker import read_frame, write_frame  # noqa: E402

WORKLOADS = ("modular-cli", "exact-session", "analytic-cli")
PAIRED_SHARE = 0.1  # traced runs also serve this leading share untraced
SERVE_LIMIT_S = 120.0  # requests not started by then count as failed


class Worker:
    """One serving process; its start-up time is a setup_s sample."""

    def __init__(self, root: str, traced: bool):
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--trace", str(int(traced))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=root,
        )
        ready = read_frame(self.proc.stdout)
        self.setup_s = perf_counter() - start
        if not ready:
            self.proc.wait()
            raise RuntimeError("worker exited before it was ready")

    def ask(self, message: dict) -> dict:
        write_frame(self.proc.stdin, message)
        reply = read_frame(self.proc.stdout)
        if reply is None:
            raise RuntimeError("worker exited mid-request")
        return reply

    def close(self) -> None:
        try:
            write_frame(self.proc.stdin, {"op": "exit"})
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def speed_probe() -> float:
    """A fixed pure-Python loop: 2e6 multiply-adds.  Diagnostic only."""
    start = perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 3 + i) & 0xFFFF
    return perf_counter() - start


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests are +inf."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def message_for(request: dict, out_dir: str, tag: str) -> dict:
    if "argv" in request:
        return {"op": "cli", "argv": request["argv"]}
    message = dict(request, op="call")
    if request["call"] == "cache":
        message["path"] = os.path.join(out_dir, f"cache-{os.getpid()}-{tag}.txt")
    return message


def run_workload(root: str, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    refs = oracle.References()
    count = workloads.request_count(workload, seconds)
    requests = workloads.build(workload, seed, count, refs.points)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    checker = Checker(refs)
    probe_start = speed_probe()

    setup, plain, paired = [], None, 0
    if traced:
        worker, plain = Worker(root, traced=True), Worker(root, traced=False)
        paired = math.ceil(PAIRED_SHARE * count)
    else:
        worker = Worker(root, traced=False)
        setup.append(worker.setup_s)

    def cold_start() -> None:
        # spread over the run, so the median sees the run's typical speed
        if not traced:
            extra = Worker(root, traced=False)
            setup.append(extra.setup_s)
            extra.close()

    latencies, rss, outcomes, trees = [], [], [], []
    profile = spans.Profile()
    service_s = traced_s = untraced_s = 0.0
    output_bytes = 0
    identity_m = 0
    by_class: dict[str, list] = {}
    by_segment: dict[int, list] = {}
    serve_start = perf_counter()
    try:
        for i, request in enumerate(requests):
            if i == 0 or request["segment"] != requests[i - 1]["segment"]:
                cold_start()
            if perf_counter() - serve_start > SERVE_LIMIT_S:
                outcomes.append(("failed", request["class"], "not served: time limit"))
                latencies.append(math.inf)
                continue
            if i < paired:
                # alternate which side goes first, so drift cancels
                first, second = (plain, worker) if i % 2 == 0 else (worker, plain)
                a = first.ask(message_for(request, out_dir, f"{i}a"))
                b = second.ask(message_for(request, out_dir, f"{i}b"))
                base, reply = (a, b) if first is plain else (b, a)
                untraced_s += base["latency_s"]
                traced_s += reply["latency_s"]
                if i == paired - 1:
                    plain.close()
                    plain = None
            else:
                reply = worker.ask(message_for(request, out_dir, str(i)))
            verdict, detail = checker.check(request, reply)
            outcomes.append((verdict, request["class"], detail))
            service_s += reply["latency_s"]
            seg = by_segment.setdefault(request["segment"], [0, 0.0])
            seg[0] += verdict == "ok"
            seg[1] += reply["latency_s"]
            spent = by_class.setdefault(request["class"], [0, 0.0])
            spent[0] += 1
            spent[1] += reply["latency_s"]
            latencies.append(reply["latency_s"] if verdict == "ok" else math.inf)
            rss.append(reply.get("rss_mb", 0.0))
            output_bytes += len(reply.get("stdout", ""))
            if request.get("argv", [None, None])[:2] == ["verify", "taylor-identity"]:
                identity_m += int(request["argv"][3].split("..")[1])
            if reply.get("trace"):
                profile.add(reply["trace"])
                trees.append({"request": i, "class": request["class"], **reply["trace"]})
        cold_start()
        probes = worker.ask({"op": "probe"}) if traced else {}
    finally:
        for w in (worker, plain):
            if w is not None:
                w.close()
    probe_end = speed_probe()

    attempted = len(requests)
    ok = sum(1 for verdict, _, _ in outcomes if verdict == "ok")
    wrong = [o for o in outcomes if o[0] == "wrong"]
    failed = [o for o in outcomes if o[0] != "ok"]
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "requests": attempted,
        "service_s": service_s,
        "wall_s": perf_counter() - serve_start,
        "probe_start_s": probe_start,
        "probe_end_s": probe_end,
        "segment_rates": [n / s for _, (n, s) in sorted(by_segment.items())],
        "service_by_class": by_class,
        "failed_by_class": Counter(cls for _, cls, _ in failed),
        "wrong": wrong[:5],
        "err_max": checker.err_max,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    if traced:
        metrics = _layer_metrics(profile, probes, checker, service_s)
        metrics["cli.output_bytes"] = (output_bytes, "bytes")
        metrics["mzv.identity.truncations_per_m"] = (
            profile.calls["mzv.taylor_identity_holds"] / identity_m if identity_m else 0.0,
            "count",
        )
        metrics["trace.overhead_frac"] = (
            traced_s / untraced_s - 1 if untraced_s else 0.0,
            "1",
        )
        metrics["probe.start_s"] = (probe_start, "s")
        metrics["probe.end_s"] = (probe_end, "s")
        _write_trees(out_dir, workload, seed, trees)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "requests_per_s": (
                statistics.median(n / s for n, s in by_segment.values()),
                "1/s",
            ),
            "req_p50_s": (percentile(latencies, 0.5), "s"),
            "req_p90_s": (percentile(latencies, 0.9), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "ok_frac": (ok / attempted, "1"),
        }
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _layer_metrics(profile: spans.Profile, probes: dict, checker: Checker, service_s: float) -> dict:
    c = profile.counters
    verify_total = profile.group("congruences.verify", "total_s")
    gets = profile.calls["sequence.AperyCache.get"]
    m = {
        "sequence.prefix.self_s": (profile.group("sequence.prefix", "self_s"), "s"),
        "sequence.prefix.steps": (profile.calls["sequence.AperyCache.put"], "count"),
        "sequence.prefix.peak_bits": (c["prefix.peak_bits"], "bits"),
        "sequence.memo.hit_ratio": (1 - c["memo.misses"] / gets if gets else 0.0, "1"),
        "sequence.tables.self_s": (profile.group("sequence.tables", "self_s"), "s"),
        "sequence.tables.builds": (profile.group("sequence.tables", "calls"), "count"),
        "sequence.deriv.self_s": (profile.group("sequence.deriv", "self_s"), "s"),
        "sequence.deriv.calls": (profile.group("sequence.deriv", "calls"), "count"),
        "sequence.digit_route.self_s": (profile.group("sequence.digit_route", "self_s"), "s"),
        "sequence.digit_route.calls": (profile.group("sequence.digit_route", "calls"), "count"),
        "sequence.sweep.self_s": (profile.group("sequence.sweep", "self_s"), "s"),
        "sequence.sweep.steps": (c["sweep.steps"], "count"),
        "congruences.verify.self_s": (profile.group("congruences.verify", "self_s"), "s"),
        "congruences.verify.cases": (c["verify.cases"], "count"),
        "congruences.verify.cases_per_s": (
            c["verify.cases"] / verify_total if verify_total else 0.0,
            "1/s",
        ),
        "congruences.digit_set.self_s": (profile.group("congruences.digit_set", "self_s"), "s"),
        "function.eval.self_s": (profile.group("function.eval", "self_s"), "s"),
        "function.eval.terms": (c["eval.terms"], "count"),
        "function.eval.residual_ratio_max": (checker.residual_ratio_max, "1"),
        "function.taylor_dp.self_s": (profile.group("function.taylor_dp", "self_s"), "s"),
        "function.taylor_dp.calls": (profile.group("function.taylor_dp", "calls"), "count"),
        "mzv.partial.self_s": (profile.group("mzv.partial", "self_s"), "s"),
        "mzv.float.self_s": (profile.group("mzv.float", "self_s"), "s"),
        "cachefile.load.self_s": (profile.group("cachefile.load", "self_s"), "s"),
        "cachefile.store.self_s": (profile.group("cachefile.store", "self_s"), "s"),
        "cachefile.trusted_records": (c["cachefile.trusted_records"], "count"),
        "cli.self_s": (profile.module_self("cli"), "s"),
        "arith.is_prime.calls": (profile.group("arith.is_prime", "calls"), "count"),
        "arith.is_prime.self_s": (profile.group("arith.is_prime", "self_s"), "s"),
        "arith.rational_mod.calls": (profile.group("arith.rational_mod", "calls"), "count"),
        "arith.rational_mod.self_s": (profile.group("arith.rational_mod", "self_s"), "s"),
        "err_max": (checker.err_max, "1"),
    }
    for name, value in probes.items():
        m[name] = (value, "1")
    for module in spans.MODULES:
        m[f"{module}.share"] = (profile.module_self(module) / service_s, "1")
    return m


def _write_trees(out_dir: str, workload: str, seed: int, trees: list) -> None:
    """One row per span-tree node: request id, node id, parent node, the
    function that opened it, spans opened, total and self time."""
    rows = []
    for tree in trees:
        for node_id, (name, parent, opened, total, child) in enumerate(tree["nodes"]):
            rows.append(
                {
                    "request": tree["request"],
                    "class": tree["class"],
                    "span": node_id,
                    "parent": parent,
                    "name": name,
                    "spans": opened,
                    "total_s": total,
                    "self_s": total - child,
                }
            )
    requests = [
        {"request": t["request"], "calls": t["calls"], "counters": t["counters"]} for t in trees
    ]
    path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"spans": rows, "requests": requests}, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "apery", "__init__.py")):
        print("error: run from the repository root (src/apery not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, args.trace == 1)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
