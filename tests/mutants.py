"""Hand mutants of the package, each run against the tests recorded for it.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry names a file, an exact old text, its new text, pytest node ids,
and whether the mutant must be killed or is known to be equivalent.  For
each entry the script copies src, tests, schema, demos and pyproject.toml
to a temporary directory, replaces the old text, which must occur exactly
once, and runs each node id there in its own pytest process;
pyproject.toml's pythonpath = ["src"] puts the mutated copy first on
sys.path.  A killed mutant must fail every one of its node ids, and an
equivalent one must pass every one: an equivalent mutant is recorded so
that no test is written to kill it.  Any other pytest exit (a node id that
selects nothing, an error at collection) is an error of the entry.

Two self-checks run first: a whitespace-only mutant must survive, and a
known-bad one must be killed.  The exit status is 0 when every entry
behaves as recorded, 1 otherwise.  The script takes no arguments: given
any, it prints its usage line and exits 2 before it copies anything.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "schema", "demos", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    nodes: tuple[str, ...]
    killed: bool = True


SWEEP_DIRECT = "tests/test_sequence.py::TestModSweep::test_matches_direct_reduction"
NEVER_OPEN = "tests/test_cli.py::TestCacheCommand::test_exact_values_never_open_cache"
SURFACE = "tests/test_cli.py::test_each_command_takes_only_the_options_it_reads"
WHOLE_PARSER = "tests/test_cli.py::test_usage_errors_and_help_match_whole_parser"
ABBREV = "tests/test_cli.py::test_abbreviated_options_are_usage_errors"
CACHEFILE = "tests/test_cachefile.py"
DERIV = "tests/test_sequence.py::TestDerivative"
SAME_REPORT = "tests/test_congruences.py::TestSameReport"
SPLIT = "tests/test_congruences.py::TestSplitScan"
# the mod p^2 instance of the value-and-slope kernel, _digit_tables
SLOPES_MOD_P2 = (
    "tests/test_sequence.py::TestDigitTables::test_kernel_matches_exact_reduction",
    "tests/test_sequence.py::TestAperyMod::test_route_grid",
    "tests/test_acceptance.py::test_01_sequence_fidelity",
    "tests/test_acceptance.py::test_10_mod_p2_digit_route_budget",
    "tests/test_cli_golden.py::test_cli_output_matches_golden",
)

SELF_CHECKS = (
    Mutant("self-check: whitespace only", "src/apery/sequence.py",
           "    total = 0\n", "    total  =  0\n", (SWEEP_DIRECT,), killed=False),
    Mutant("self-check: known bad", "src/apery/sequence.py",
           "    total = 0\n", "    total = 1\n", (SWEEP_DIRECT,)),
)

MUTANTS = (
    # the kept pass left one index short when top is the first index past it
    Mutant("_kept_upto: >= made >", "src/apery/cachefile.py",
           "if top >= len(kept) // 2:", "if top > len(kept) // 2:",
           ("tests/test_cachefile.py::test_kept_prefix_is_the_one_pass",)),
    # the same pairs, grown into the array a reader may hold
    Mutant("_kept_upto: in-place extend", "src/apery/cachefile.py",
           '_kept = kept + array("Q", chain.from_iterable(pairs))',
           "kept.extend(chain.from_iterable(pairs))",
           ("tests/test_cachefile.py::test_extension_leaves_a_held_prefix_alone",)),
    # a stalled extension publishes its shorter array over a longer one
    Mutant("_kept_upto: no lock", "src/apery/cachefile.py",
           "    with _kept_lock:\n", "    if True:\n",
           ("tests/test_cachefile.py::test_extensions_take_turns",)),
    # the resume reads x(K) where x(K - 1) belongs
    Mutant("_kept_upto: resume from x(K) twice", "src/apery/cachefile.py",
           "kept[-2], kept[-4], kept[-1])", "kept[-2], kept[-2], kept[-1])",
           ("tests/test_cachefile.py::test_kept_prefix_is_the_one_pass",
            "tests/test_cachefile.py::test_each_index_passed_once")),
    # a load extends the pass to a record the length bound then refuses
    Mutant("cache_load: pass extended before the length bound", "src/apery/cachefile.py",
           "    ns = sorted(values)\n"
           "    for n in ns:\n"
           "        if values[n].bit_length() <= 4 * n - 2 * (2 * n + 1).bit_length():\n"
           "            return n\n"
           "    kept = _kept_upto(ns[-1] if ns else 0)\n",
           "    ns = sorted(values)\n"
           "    kept = _kept_upto(ns[-1] if ns else 0)\n"
           "    for n in ns:\n"
           "        if values[n].bit_length() <= 4 * n - 2 * (2 * n + 1).bit_length():\n"
           "            return n\n",
           ("tests/test_cachefile.py::test_floor_failure_leaves_prefix_alone",)),
    # a mask in place of the reduction: 2^61 reads as 0, not 1, modulo q
    Mutant("_wrong_mod_q: hash made a 61-bit mask", "src/apery/cachefile.py",
           "(hash(value) * den - x) % _Q", "((value & _Q) * den - x) % _Q",
           (f"{CACHEFILE}::test_fold_is_the_remainder",
            f"{CACHEFILE}::test_fold_boundaries[2^61]",
            f"{CACHEFILE}::test_round_trip_beyond_interpreter_digit_cap")),
    # the product compared unreduced: right only while value * den < q
    Mutant("_wrong_mod_q: final % q dropped", "src/apery/cachefile.py",
           "(hash(value) * den - x) % _Q != 0", "hash(value) * den - x != 0",
           (f"{CACHEFILE}::test_fold_is_the_remainder",
            f"{CACHEFILE}::test_fold_boundaries[q-1]",
            f"{CACHEFILE}::test_round_trip")),
    # a read resumes from the mark above n, past the n it wants
    Mutant("apery_deriv: read from mark n // 64 + 1", "src/apery/sequence.py",
           "marks[n // _MARK_SPACING]", "marks[n // _MARK_SPACING + 1]",
           (f"{DERIV}::test_reads_below_the_top_match_harmonic_sum[descending]",
            f"{DERIV}::test_each_index_stepped_once")),
    # a stalled extension publishes its shorter marks over a longer list
    Mutant("_marks_upto: no lock", "src/apery/sequence.py",
           "    with _marks_lock:\n", "    if True:\n",
           (f"{DERIV}::test_extensions_take_turns",
            f"{DERIV}::test_each_index_stepped_once")),
    # a waiting extension resumes from the last mark it saw before the lock
    Mutant("_marks_upto: marks read before the lock", "src/apery/sequence.py",
           "    with _marks_lock:\n        marks = _marks\n",
           "    marks = _marks\n    with _marks_lock:\n",
           (f"{DERIV}::test_extensions_take_turns",)),
    # the new marks grown into the list a reader may hold
    Mutant("_marks_upto: marks extended in place", "src/apery/sequence.py",
           "_marks = marks + new", "marks += new",
           (f"{DERIV}::test_extension_leaves_held_marks_alone",)),
    # the window's lcm stops at 2k + 126: the window at 448 misses 1024
    Mutant("_lift: range ends at 2k + 126", "src/apery/sequence.py",
           "range(2 * k + 1, 2 * k + 2 * _MARK_SPACING + 1)",
           "range(2 * k + 1, 2 * k + 2 * _MARK_SPACING - 1)",
           (f"{DERIV}::test_recurrence_matches_harmonic_sum",
            f"{DERIV}::test_marks_are_the_pass_state")),
    # the seed at scale 1, where A'(5) = 13276637/5 is no integer
    Mutant("_marks: seed mark at scale 1", "src/apery/sequence.py",
           "_marks = [(0, 0, _lift(1, 0), 0, 0, _lift(1, 0))]",
           "_marks = [(0, 0, 1, 0, 0, 1)]",
           (f"{DERIV}::test_head_of_sequence",
            "tests/test_cli_golden.py::test_cli_output_matches_golden")),
    # the lift taken at the window's start k0, before its steps: each
    # window then runs at the scale of its own mark, one window behind,
    # which the values up to 1801 tolerate but the marks' scales do not
    Mutant("_marks_upto: lift taken before the window's steps", "src/apery/sequence.py",
           "                steps = _with_slopes(k, _exact_div, (k0, *state))\n"
           "                (a2, s2), (a1, s1) = islice(steps, _MARK_SPACING - 1, None)"
           "  # k - 1, k\n"
           "                f = _lift(scale, k)\n",
           "                f = _lift(scale, k0)\n"
           "                steps = _with_slopes(k, _exact_div, (k0, *state))\n"
           "                (a2, s2), (a1, s1) = islice(steps, _MARK_SPACING - 1, None)"
           "  # k - 1, k\n",
           (f"{DERIV}::test_marks_are_the_pass_state",)),
    # the value-and-slope kernel: each derivative term, in both instances
    Mutant("_with_slopes: sign of -3k^2 A(k) flipped", "src/apery/sequence.py",
           "- 3 * (k * k * a + j * j * a2)", "- 3 * (j * j * a2 - k * k * a)",
           (f"{DERIV}::test_recurrence_matches_harmonic_sum", *SLOPES_MOD_P2)),
    Mutant("_with_slopes: r1'(k) constant 27 made 26", "src/apery/sequence.py",
           "102 * k * j + 27", "102 * k * j + 26",
           (f"{DERIV}::test_recurrence_matches_harmonic_sum", *SLOPES_MOD_P2)),
    Mutant("_with_slopes: 3(k-1)^2 A(k-2) made 3k^2 A(k-2)", "src/apery/sequence.py",
           "(k * k * a + j * j * a2)", "(k * k * a + k * k * a2)",
           (f"{DERIV}::test_recurrence_matches_harmonic_sum", *SLOPES_MOD_P2)),
    # the inverse of (k-1)^3 where that of k^3 belongs, k = 1 kept
    Mutant("_digit_tables: divides by (k-1)^3", "src/apery/sequence.py",
           "lambda x, k: x * inverses[k] % m", "lambda x, k: x * inverses[max(k - 1, 1)] % m",
           ("tests/test_sequence.py::TestDigitTables::test_kernel_matches_exact_reduction",
            "tests/test_sequence.py::TestAperyMod::test_route_grid",
            "tests/test_congruences.py::TestGesselModP2::test_small_primes",
            "tests/test_cli_golden.py::test_cli_output_matches_golden")),
    Mutant("taylor_coeff_float: negative-m guard dropped", "src/apery/mzv.py",
           '    if m < 0:\n        raise ValueError(f"m must be >= 0, got {m}")\n', "",
           ("tests/test_mzv.py::TestReducedForms::test_negative_m_rejected",)),
    Mutant("taylor_coeff_float: head-3 weight 2 made 1", "src/apery/mzv.py",
           "weight, heads = 2, [(old, _divisors(3, top))]",
           "weight, heads = 1, [(old, _divisors(3, top))]",
           ("tests/test_mzv.py::TestAgainstReferenceLoop::test_taylor_coeff_float",
            "tests/test_mzv.py::TestReducedForms::test_float_expansion_matches_exact_truncation",
            "tests/test_cli_golden.py::test_cli_output_matches_golden")),
    # A(-1) meets the coefficient (m-1)^3 = 0 at m = 1, so no test can see it
    Mutant("apery_mod_sweep: seed A(-1) = 1 made 0", "src/apery/sequence.py",
           "initial=(1, 1),", "initial=(0, 1),",
           ("tests/test_sequence.py::TestModSweep",
            "tests/test_sequence.py::TestPadicEvaluator::test_matches_sweep_at_scattered_indices",
            "tests/test_acceptance.py::test_07_base5_power_law"),
           killed=False),
    # a sweep that loads the file $APERY_CACHE names again, bad files and all
    Mutant("_verify_congruence: cache file opened", "src/apery/cli.py",
           "return sweep(args.p, args.n).to_dict()",
           "os.environ.get(CACHE_ENV) and cache_load(os.environ[CACHE_ENV])\n"
           "    return sweep(args.p, args.n).to_dict()",
           ("tests/test_cli.py::TestCacheCommand::test_sweeps_never_open_cache",)),
    # `apery N` that pours the file $APERY_CACHE names into a memo again
    Mutant("_cmd_apery: cache file opened", "src/apery/cli.py",
           "value = str(apery_fast(args.n))\n",
           "value = str(apery_fast(args.n, os.environ.get(CACHE_ENV) and AperyCache("
           "cache_load(os.environ[CACHE_ENV]).values())))\n",
           (f"{NEVER_OPEN}[env-rescaled-apery]", f"{NEVER_OPEN}[env-not-a-cache-apery]")),
    # a refill that walks from A(0), past the run the file already holds
    Mutant("cache fill: empty prefix seeded", "src/apery/cli.py",
           "cache = AperyCache(values[n] for n in takewhile(values.__contains__, count()))",
           "cache = AperyCache()",
           ("tests/test_cli.py::TestCacheCommand::test_refill_walks_only_past_the_file_prefix",)),
    # the fallback that reduces the memo's exact A(k), which holds A(0..k)
    Mutant("apery_mod: fallback through the exact memo", "src/apery/sequence.py",
           "return Residue(apery_mod_sweep([k], modulus)[k], modulus)",
           "return Residue(apery_fast(k) % modulus, modulus)",
           ("tests/test_acceptance.py::test_27_composite_modulus_streams_memory",
            "tests/test_sequence.py::TestAperyMod::test_no_pass_for_a_modulus_at_most_n")),
    # the fallback given n, which the sweep refuses below 0
    Mutant("apery_mod: fallback given n, not its reflection", "src/apery/sequence.py",
           "return Residue(apery_mod_sweep([k], modulus)[k], modulus)",
           "return Residue(apery_mod_sweep([n], modulus)[n], modulus)",
           ("tests/test_sequence.py::TestAperyMod::test_route_grid",)),
    # the fold to the mirrored digit off by one: p - d is no digit's mirror
    Mutant("apery_mod_p: fold written as min(d, p - d)", "src/apery/sequence.py",
           "digits = [min(d, p - 1 - d) for d in digits]", "digits = [min(d, p - d) for d in digits]",
           ("tests/test_sequence.py::TestFastModPaths::test_folded_digits_match_exact_reduction[5]",
            "tests/test_sequence.py::TestFastModPaths::test_folded_digits_match_exact_reduction[8467]")),
    # a memo with a gap, whose walk would read a value it never made
    Mutant("AperyCache.put: append at any index", "src/apery/sequence.py",
           "if n == len(values):", "if n >= len(values):",
           ("tests/test_sequence.py::TestCache::test_put_appends_only_at_the_end",)),
    # two threads past the length check append at the same index
    Mutant("AperyCache.put: no lock", "src/apery/sequence.py",
           "        with self._lock:\n            values = self._values\n",
           "        if True:\n            values = self._values\n",
           ("tests/test_sequence.py::TestCache::test_walks_from_threads",)),
    # the residue rows: each block anchored by the digit DP at its multiple
    # of p, then the recurrence modulo the rows' modulus through the rest
    Mutant("_blocks: anchor read at digit 1, not 0", "src/apery/congruences.py",
           "jp, _dp_value(jp, p) % m)", "jp, _dp_value(jp + 1, p) % m)",
           ("tests/test_sequence.py::TestCache::test_residues_are_prefixes",
            "tests/test_sequence.py::TestBlockRoute::test_two_and_three[None-3]")),
    Mutant("_blocks: block pass started at jp + 1", "src/apery/congruences.py",
           "min(jp + p - 1, hi), jp, _dp_value", "min(jp + p - 1, hi), jp + 1, _dp_value",
           ("tests/test_sequence.py::TestCache::test_residues_are_prefixes",
            f"{SAME_REPORT}::test_session_pool_primes[lucas-p-47]")),
    # the rows mod p^2, which p3-suite at p >= 5 reads as mod p^3
    Mutant("_row_modulus: rows kept mod p^2 at p >= 5", "src/apery/congruences.py",
           "9 if p == 3 else p**3", "9 if p == 3 else p * p",
           ("tests/test_congruences.py::TestSweepFailures::"
            "test_corrupted_value_is_reported[p3-suite-5]",
            f"{SAME_REPORT}::test_half_spans[p3-suite-from-zero]",
            "tests/test_sequence.py::TestCache::test_residues_are_prefixes")),
    Mutant("_blocks: p = 2 mask made 3", "src/apery/congruences.py",
           "apery_fast(k) & 7", "apery_fast(k) & 3",
           ("tests/test_congruences.py::TestP3Suite::test_all_small_primes",
            "tests/test_sequence.py::TestBlockRoute::test_two_and_three[None-2]")),
    # an extension grown into the array a reader may hold, with no lock
    Mutant("_rows: table extended in place, outside the lock", "src/apery/congruences.py",
           "        with _tables_lock:\n"
           "            table = _tables.get(p, array(\"q\"))\n",
           "        if True:\n"
           "            table = _tables.setdefault(p, array(\"q\"))\n"
           "            table.extend(_blocks(p, len(table), top - top % p + p - 1))\n",
           ("tests/test_sequence.py::TestCache::test_residues_from_threads",
            "tests/test_sequence.py::TestCache::test_residues_are_prefixes")),
    # the column of digit d over n < 0 read at offset p - d, the next
    # row's digit 0 for d = 0
    Mutant("_sweep: mirrored digit read as p - d", "src/apery/congruences.py",
           "mirror = p - 1 - d  # the digit", "mirror = p - d  # the digit",
           (f"{SAME_REPORT}::test_half_spans[lucas-p-below-zero]",
            f"{SAME_REPORT}::test_session_pool_primes[gessel-p2-47]",
            "tests/test_congruences.py::TestSweepFailures")),
    # a witness at position i counts i cases, one short of the cases run
    Mutant("_sweep: witness counts its position, not position + 1", "src/apery/congruences.py",
           "report.checked += i + 1", "report.checked += i",
           (f"{SAME_REPORT}::test_witnesses_on_both_sides_of_zero",
            "tests/test_congruences.py::TestSweepFailures::"
            "test_corrupted_value_is_reported[digitset-p2-7]")),
    # cases left in column order, digit by digit
    Mutant("_sweep: (n, d) sort dropped", "src/apery/congruences.py",
           "    for found in (report.counterexamples, report.witnesses):\n"
           '        found.sort(key=attrgetter("n", "d"))\n', "",
           (f"{SAME_REPORT}::test_two_wrong_values_listed_by_n_then_digit",
            f"{SAME_REPORT}::test_witnesses_on_both_sides_of_zero",
            "tests/test_congruences.py::TestSweepFailures::"
            "test_corrupted_value_is_reported[p3-suite-5]")),
    # the last share's blocks never run
    Mutant("_deal: one share dropped", "src/apery/congruences.py",
           "    return shares\n", "    return shares[:-1]\n",
           (f"{SPLIT}::test_split_matches_serial[600]",
            f"{SPLIT}::test_shares_balance_the_estimated_cost")),
    # each helper's share run again in the caller, its reply thrown away
    Mutant("_split: a helper's sets ignored", "src/apery/congruences.py",
           "sets += got if got is not None else _run(share)", "sets += _run(share)",
           (f"{SPLIT}::test_caller_runs_only_its_own_share",)),
    # helpers left as zombies
    Mutant("_reap: waitpid skipped", "src/apery/congruences.py",
           "return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])", "return 0",
           (f"{SPLIT}::test_every_helper_reaped",)),
    # a share whose helper failed is lost
    Mutant("_split: failure fallback removed", "src/apery/congruences.py",
           "sets += got if got is not None else _run(share)", "sets += got or []",
           (f"{SPLIT}::test_failed_share_runs_in_the_caller[fork-raises]",
            f"{SPLIT}::test_failed_share_runs_in_the_caller[helper-exits-1]",
            f"{SPLIT}::test_failed_share_runs_in_the_caller[short-write]")),
    # one helper per block, whatever the CPUs
    Mutant("scan_digit_sets: CPU cap removed", "src/apery/congruences.py",
           "w = min(workers, _usable_cpus(), len(blocks))", "w = min(workers, len(blocks))",
           (f"{SPLIT}::test_helpers_capped_by_usable_cpus[2]",)),
    # 5^n in place of 5^(n+1) over n < 0 at p = 2
    Mutant("verify_mod_p3_suite: p = 2 phase for n < 0 flipped", "src/apery/congruences.py",
           "(lo, heads[neg.start : neg.stop][::-1], lo + 1),",
           "(lo, heads[neg.start : neg.stop][::-1], lo),",
           (f"{SAME_REPORT}::test_half_spans[p3-suite-below-zero]",
            "tests/test_congruences.py::TestReadOnce::"
            "test_warm_sweep_asks_the_memo_once[p3-suite-2]")),
    # the stop of an empty n < 0 half left negative, where a slice wraps
    Mutant("_halves: stop of the n < 0 half unclamped", "src/apery/congruences.py",
           "range(-1 - min(hi, -1), max(-lo, 0))", "range(-1 - min(hi, -1), -lo)",
           (f"{SAME_REPORT}::test_half_spans[lucas-p-above-zero]",
            f"{SAME_REPORT}::test_half_spans[p3-suite-above-zero]")),
    Mutant("THEOREMS: digitset-p2 default made -7..7", "src/apery/cli.py",
           '"digitset-p2": (partial(_verify_congruence, verify_digit_set_lucas), ("p",), '
           "_SWEEP_RANGE),",
           '"digitset-p2": (partial(_verify_congruence, verify_digit_set_lucas), ("p",), '
           '{"n": (-7, 7)}),',
           ("tests/test_cli.py::TestVerifyCommand::test_defaults_spelled_out[digitset-p2]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden",
            "tests/test_acceptance.py::test_25_digitset_default_range_budget")),
    Mutant("_cmd_digits: prime-and-scan-flag check deleted", "src/apery/cli.py",
           "    if args.p is not None and (args.scan, args.min_size) != (None, None):\n"
           '        raise ValueError("digits P takes neither --scan nor --min-size")\n', "",
           ("tests/test_cli.py::TestDigitsCommand::test_prime_takes_no_scan_flags",
            "tests/test_cli_golden.py::test_cli_output_matches_golden")),
    Mutant("_cmd_digits: prime with --scan let through", "src/apery/cli.py",
           "(args.scan, args.min_size) != (None, None)", "args.min_size is not None",
           ("tests/test_cli.py::TestDigitsCommand::test_prime_takes_no_scan_flags[scan]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden")),
    # an explicit --min-size 0 read as the default 1
    Mutant("_cmd_digits: min-size default by truth value", "src/apery/cli.py",
           "1 if args.min_size is None else args.min_size", "args.min_size or 1",
           ("tests/test_cli.py::TestExplicitValues::test_exits_2[scan-min-size]",)),
    Mutant("_cmd_digits: prime with --workers let through", "src/apery/cli.py",
           "    if args.p is not None and args.workers is not None:\n"
           '        raise ValueError("digits P takes no --workers")\n', "",
           ("tests/test_cli.py::TestDigitsCommand::test_prime_takes_no_workers[2]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden")),
    Mutant("scan_digit_sets: --workers check dropped", "src/apery/congruences.py",
           "    elif workers < 1:\n"
           '        raise ValueError("workers must be >= 1")\n', "",
           ("tests/test_cli.py::TestExplicitValues::test_exits_2[scan-workers]",)),
    # every command takes --cache, as a --cache on the shared parent would give
    Mutant("_build_parser: --cache on every command", "src/apery/cli.py",
           "        add_arguments(sub.add_parser(name, parents=[common], help=help_line, "
           "allow_abbrev=False))\n",
           "        add_arguments(sub.add_parser(name, parents=[common], help=help_line, "
           "allow_abbrev=False))\n"
           "        if name != \"cache\":\n"
           "            sub.choices[name].add_argument(\"--cache\")\n",
           (f"{SURFACE}[apery]", f"{SURFACE}[verify]")),
    # the config file's flag back on every command
    Mutant("_build_parser: --config on the shared parent", "src/apery/cli.py",
           'default="plain", help="output format"\n    )\n',
           'default="plain", help="output format"\n    )\n'
           '    common.add_argument("--config")\n',
           (f"{SURFACE}[apery]", f"{SURFACE}[cache]")),
    # each command's options taken by any prefix that names one of them
    Mutant("_build_parser: subparsers take abbreviations", "src/apery/cli.py",
           "help=help_line, allow_abbrev=False)", "help=help_line)",
           (f"{ABBREV}[format]", f"{ABBREV}[min-size]", f"{ABBREV}[command-help]")),
    # a command line with a token the one-command parser left over runs
    Mutant("_parse: fallback to the whole parser dropped", "src/apery/cli.py",
           "        if not extras:\n            return args\n", "        return args\n",
           (f"{WHOLE_PARSER}[apery 7 --bogus]", f"{WHOLE_PARSER}[cache info extra]")),
    # usage errors name the one-command parser's usage line
    Mutant("_parse: parse_args on the one-command parser", "src/apery/cli.py",
           "args, extras = _build_parser(argv[:1]).parse_known_args(argv)",
           "args, extras = _build_parser(argv[:1]).parse_args(argv), []",
           (f"{WHOLE_PARSER}[digits 7 --bogus]", f"{WHOLE_PARSER}[taylor 4 extra]")),
)


def run(mutant: Mutant) -> str | None:
    """None when the mutant behaves as recorded, else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, target)
        path = Path(tmp) / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        want = 1 if mutant.killed else 0
        for node in mutant.nodes:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            if code != want:
                outcome = {0: "passed", 1: "failed"}.get(code, f"exited {code}")
                return f"{node} {outcome}"
    return None


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tests/mutants.py  (takes no arguments)", file=sys.stderr)
        return 2
    bad = 0
    for mutant in SELF_CHECKS + MUTANTS:
        start = time.perf_counter()
        problem = run(mutant)
        verdict = "killed" if mutant.killed else "survives"
        status = "ok" if problem is None else f"WRONG: {problem}"
        print(f"{mutant.name}: {verdict}, {status} ({time.perf_counter() - start:.1f} s)",
              flush=True)
        bad += problem is not None
        if problem is not None and mutant in SELF_CHECKS:
            print("the harness itself is broken; no mutant was run", flush=True)
            return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
