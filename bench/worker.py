"""The serving process.  Started by run.py as

    python3 bench/worker.py --trace 0|1

with src/ on PYTHONPATH.  It imports apery and apery.cli, reports ready,
then answers framed requests on stdin with framed replies on stdout:

- {"op": "cli", "argv": [...]}: fork a child that runs apery.cli.main(argv)
  with stdout and stderr captured, like one `apery ...` invocation with the
  package already imported.  Nothing the child does survives it.  The timed
  span starts after the fork and ends when main returns.
- {"op": "call", ...}: one library call in this process, on the package's
  shared memo, which stays warm from one request to the next.
- {"op": "probe"}: the growth probes reported by the traced run.

Frames are a 4-byte big-endian length and a pickle.  The worker moves its
own stdout out of the way first, so nothing the package prints can corrupt
a frame.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import pickle
import resource
import struct
import sys
from time import perf_counter

import spans


def read_frame(stream):
    head = stream.read(4)
    if len(head) < 4:
        return None
    (size,) = struct.unpack(">I", head)
    return pickle.loads(stream.read(size))


def write_frame(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack(">I", len(data)) + data)
    stream.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def serve_cli(argv: list[str], tracer) -> dict:
    from apery import cli

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_end)
            if tracer is not None:
                tracer.reset()
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            raised = None
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # the request failed; report it
                code, raised = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            reply = {
                "code": code,
                "raised": raised,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "latency_s": elapsed,
                "rss_mb": _peak_rss_mb(),
                "trace": tracer.snapshot() if tracer is not None else None,
            }
            with os.fdopen(write_end, "wb") as fh:
                fh.write(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)
    os.close(write_end)
    data = _read_all(read_end)
    os.close(read_end)
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"code": None, "raised": f"child died with status {status}", "latency_s": math.inf}
    return pickle.loads(data)


def _call(request: dict):
    import apery

    call = request["call"]
    if call in ("lucas", "gessel", "p3", "digitset"):
        fn = {
            "lucas": apery.verify_lucas_mod_p,
            "gessel": apery.verify_gessel_mod_p2,
            "p3": apery.verify_mod_p3_suite,
            "digitset": apery.verify_digit_set_lucas,
        }[call]
        return fn(request["p"], (request["lo"], request["hi"]))
    if call == "unit":
        p = request["p"]
        return apery.verify_multi_digit(p, {0, p - 1}, request["depth"], "unit")
    if call == "point":
        n = request["n"]
        return apery.apery_fast(n), apery.apery_deriv(n)
    if call == "cache":
        lo, hi = request["slice"]
        values = {n: apery.apery_fast(n) for n in range(lo, hi + 1)}
        values.update((n, apery.apery_fast(n)) for n in request["isolated"])
        apery.cache_store(request["path"], values)
        return values, apery.cache_load(request["path"])
    raise ValueError(f"unknown call {call!r}")


def _answer(request: dict, result):
    """What the client needs to check a library result."""
    call = request["call"]
    if call == "point":
        value, deriv = result
        return {"value": value, "deriv": (deriv.numerator, deriv.denominator)}
    if call == "cache":
        stored, loaded = result
        os.remove(request["path"])
        return {
            "keys": sorted(loaded),
            "round_trip": loaded == stored,
            "spot": {n: loaded.get(n) for n in request["spot"]},
        }
    return result.to_dict()


def serve_call(request: dict, tracer) -> dict:
    if tracer is not None:
        tracer.reset()
    start = perf_counter()
    try:
        result = _call(request)
    except Exception as exc:  # the request failed; report it
        return {
            "code": None,
            "raised": f"{type(exc).__name__}: {exc}",
            "latency_s": perf_counter() - start,
            "rss_mb": _peak_rss_mb(),
        }
    elapsed = perf_counter() - start
    return {
        "code": 0,
        "raised": None,
        "answer": _answer(request, result),
        "latency_s": elapsed,
        "rss_mb": _peak_rss_mb(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def _timed(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def probes() -> dict:
    """Growth exponents and the scan's two-worker speed-up, each from two
    timings of the untraced functions with a fresh memo."""
    from apery import AperyCache, apery_mod_sweep, mod_p2_tables, scan_digit_sets

    t_small = _timed(mod_p2_tables, 101, AperyCache())
    t_large = _timed(mod_p2_tables, 211, AperyCache())
    s_small = _timed(apery_mod_sweep, [4000], 1000)
    s_large = _timed(apery_mod_sweep, [8000], 1000)
    one = _timed(scan_digit_sets, 900, 1, 1, AperyCache())
    two = _timed(scan_digit_sets, 900, 1, 2, AperyCache())
    return {
        "sequence.tables.growth_exp": math.log(t_large / t_small) / math.log(211 / 101),
        "sequence.sweep.growth_exp": math.log(s_large / s_small) / math.log(2),
        "congruences.scan.workers2_speedup": one / two,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    traced = parser.parse_args().trace == 1

    channel_in = os.fdopen(os.dup(0), "rb")
    channel_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import apery  # noqa: F401  (the import is what readiness waits for)
    import apery.cli  # noqa: F401

    tracer = uninstall = None
    if traced:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
    write_frame(channel_out, {"ready": True})
    while True:
        request = read_frame(channel_in)
        if request is None or request["op"] == "exit":
            break
        if request["op"] == "cli":
            reply = serve_cli(request["argv"], tracer)
        elif request["op"] == "call":
            reply = serve_call(request, tracer)
        else:
            if uninstall is not None:
                uninstall()
            reply = probes()
        write_frame(channel_out, reply)


if __name__ == "__main__":
    main()
