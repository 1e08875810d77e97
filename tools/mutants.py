"""Run a fixed catalogue of mutants against the tests expected to kill them.

Each entry of ``CATALOGUE`` names a module of ``src/zflab``, a snippet that
occurs in it exactly once, the snippet's replacement, the tests expected to
fail with the replacement in place, and whether those tests also run under
``python -O``.  For each entry this copies ``src/`` and ``tests/`` to a
temporary directory, applies the mutant there and runs

    python [-O] -m pytest -x -q -p no:cacheprovider <tests>

on the copy.  A mutant is killed when pytest reports a failed test, and
survives when every named test passes.  Before any mutant runs, the named
tests run once on an unmutated copy in each mode, and must pass there.

    python3 tools/mutants.py

Each mutant's line gives its name, its verdict in each mode and its wall
time.  The exit status is 0 when
every mutant was killed, 1 when one survived, and 2 when the unmutated tests
fail or pytest cannot run one entry's tests.  The tier-1 suite only checks
that every snippet still occurs exactly once; it never runs the mutants.
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
PACKAGE = ROOT / "src" / "zflab"


class Mutant(NamedTuple):
    name: str
    module: str      # a file of src/zflab
    snippet: str     # occurs exactly once in the module
    replacement: str
    tests: tuple     # pytest node ids, relative to the repository root
    optimized: bool = False  # also run the tests under python -O


CROSS = "tests/test_cross_checks.py::"
CLI = "tests/test_cli.py::"
CONSTRUCTION = "tests/test_construction.py::"
GOLDEN_JSON = (CLI + "test_reports_are_golden", CLI + "test_seeded_reports_are_golden")
GOLDEN_TEXT = (CLI + "test_text_report_is_golden",)
RAISES = CROSS + "test_each_cross_check_raises_when_its_routes_disagree"
NOT_A_CHOICE = CROSS + "test_a_graph_that_is_not_a_choice_function_fails_verify"
DISAGREEMENT = CROSS + "test_a_broken_equivalence_side_fails_verify_and_fuzz"
INTERVALS = "tests/test_intervals.py::"
CONTAINS = (INTERVALS + "test_containment",
            INTERVALS + "test_contains_matches_the_fraction_comparisons")
EMPTINESS = (INTERVALS + "test_empty_intervals_rejected",
             INTERVALS + "test_emptiness_matches_the_fraction_comparisons")
HFS = "tests/test_hfs.py::"
KEY_REFERENCE = HFS + "test_rank_key_and_hash_match_the_reference_on_rank3_sets_and_pairs"
MAKE_SET_SPELLINGS = HFS + "test_make_set_finds_one_node_for_any_order_duplicates_or_generator"
PER_PICK = (CONSTRUCTION + "test_the_per_pick_row_test_equals_the_per_q_loop",
            CONSTRUCTION + "test_the_per_pick_row_test_equals_the_per_q_loop_on_every_small_family")
DIRECT_ROWS = ("tests/test_orders.py::test_order_rows_equal_the_brute_force_filter",
               "tests/test_orders.py::test_direct_order_rows_at_four_equal_the_brute_force_filter")

CATALOGUE = (
    # Each cross-check, weakened to an assert: a wrong error type normally,
    # and no check at all under -O.
    Mutant("literal-product-check", "construction.py",
           'raise CrossCheckFailed("literal Q_S survivors',
           'assert False, ("literal Q_S survivors',
           (RAISES, CROSS + "test_verify_fails_on_a_corrupted_least_and_a_literal_non_product"),
           optimized=True),
    Mutant("qs-filter-check", "construction.py",
           'raise CrossCheckFailed("product enumeration disagrees',
           'assert False, ("product enumeration disagrees',
           (RAISES, CROSS + "test_cli_reports_a_failed_cross_check_with_exit_1",
            CROSS + "test_verify_fails_on_orders_laid_column_major"),
           optimized=True),
    Mutant("u1-check", "construction.py",
           'raise CrossCheckFailed(f"counted |U1|',
           'assert False, (f"counted |U1|',
           (RAISES, CROSS + "test_verify_fails_on_a_corrupted_u1_mask_set"), optimized=True),
    Mutant("order-rows-check", "orders.py",
           'raise CrossCheckFailed("direct route',
           'assert False, ("direct route',
           (RAISES,), optimized=True),
    Mutant("order-count-check", "oracle.py",
           "raise CrossCheckFailed(\n                f\"order count depends",
           "assert False, (\n                f\"order count depends",
           (RAISES,), optimized=True),
    # Each verify check, passing whatever it compares.
    Mutant("oracle-fc-match", "cli.py",
           "match = fcs == verdict.graphs", "match = True",
           (CROSS + "test_verify_fails_on_a_corrupted_least_and_a_literal_non_product",),
           optimized=True),
    Mutant("route-agreement", "cli.py",
           "agree = direct == fcs", "agree = True",
           (CROSS + "test_verify_fails_on_a_corrupted_least_and_a_literal_non_product",),
           optimized=True),
    Mutant("induced-order-roundtrip", "cli.py",
           "roundtrip = _induced_orders_roundtrip(fcs)", "roundtrip = True",
           (CROSS + "test_a_broken_induced_order_fails_verify_and_fuzz",), optimized=True),
    Mutant("equivalence-agree", "oracle.py",
           "return self.has_choice == self.all_members_have_pol", "return True",
           ("tests/test_oracle.py", CLI + "test_verify_reports_the_expected_sizes",
            "tests/test_acceptance.py::test_criterion_6_choice_orderability_equivalence",
            DISAGREEMENT), optimized=True),
    Mutant("equivalence-failure", "cli.py",
           '    if not verdict.agree:\n        failures.append("choice existence',
           '    if False:\n        failures.append("choice existence',
           ("tests/test_oracle.py", CLI + "test_verify_reports_the_expected_sizes", DISAGREEMENT),
           optimized=True),
    Mutant("f-c-all-valid", "construction.py",
           '"f_c_all_valid": all(is_choice_function(g, family) for g in fcs)',
           '"f_c_all_valid": True',
           (NOT_A_CHOICE,), optimized=True),
    # The QSet dispatch of both report writers.
    Mutant("json-writer-qset", "cli.py",
           "elif isinstance(value, (list, tuple, QSet)):", "elif isinstance(value, (list, tuple)):",
           GOLDEN_JSON),
    Mutant("json-writer-qset-literal", "cli.py",
           "            if isinstance(value, QSet):\n", "            if False:\n",
           GOLDEN_JSON),
    Mutant("json-writer-empty-qset", "cli.py",
           'write(f"\\n{pad}]" if value else "[]")',
           'write(f"\\n{pad}]" if value or isinstance(value, QSet) else "[]")',
           GOLDEN_JSON),
    Mutant("text-writer-nested-qset", "cli.py",
           "_NESTED = (dict, list, QSet)", "_NESTED = (dict, list)",
           GOLDEN_TEXT),
    Mutant("text-writer-qset", "cli.py",
           "    elif isinstance(value, QSet):\n        for item in value.literals():",
           "    elif isinstance(value, HfSet):\n        for item in value.literals():",
           GOLDEN_TEXT),
    # Mutants that earlier changes ran by hand on a copy.
    Mutant("first-q-last-pick", "construction.py",
           "for b in _bits(member_picks[0][0])", "for b in _bits(member_picks[-1][0])",
           GOLDEN_JSON),
    Mutant("fc-one-least-per-member", "construction.py",
           "sorted({least for _, least in member_picks})]",
           "sorted({least for _, least in member_picks})[:1]]",
           GOLDEN_JSON),
    Mutant("literal-filter-ignores-empty", "construction.py",
           "if pick is not None and others_admit_empty:", "if pick is not None:",
           (CONSTRUCTION + "test_literal_mask_filter_follows_members_that_admit_the_empty_relation",
            CONSTRUCTION + "test_qs_literal_empty_for_multi_member_families")),
    Mutant("literal-empty-never-survives", "construction.py",
           "    if None not in empty:\n", "    if False:\n",
           (CONSTRUCTION + "test_literal_mask_filter_follows_members_that_admit_the_empty_relation",)),
    Mutant("union-masks-without-offsets", "construction.py",
           "[[mask << offset for mask, _ in member_picks]", "[[mask for mask, _ in member_picks]",
           GOLDEN_JSON),
    Mutant("pair-table-transposed", "construction.py",
           "ordered_pair(x, y) for x in tag for y in tag",
           "ordered_pair(x, y) for y in tag for x in tag",
           (CONSTRUCTION + "test_pair_table_is_the_tagged_product",)),
    Mutant("q-s-literals-reversed", "construction.py",
           "for m in subset_order(base, masks))", "for m in reversed(subset_order(base, masks)))",
           GOLDEN_JSON + GOLDEN_TEXT),
    Mutant("pair-literal-table-reversed", "construction.py",
           "text = [hfs_literal(p) for p in base.children]",
           "text = [hfs_literal(p) for p in reversed(base.children)]",
           GOLDEN_JSON),
    Mutant("json-literal-unquoted", "cli.py",
           "write(f'{sep}{inner}\"{{{item}}}\"')", "write(f'{sep}{inner}{{{item}}}')",
           GOLDEN_JSON),
    Mutant("roundtrip-memo-true", "cli.py",
           "return is_member(m, a) and phi3_holds(pointed_order(a, m), a, m)", "return True",
           (CROSS + "test_a_broken_induced_order_fails_verify_and_fuzz",), optimized=True),
    Mutant("roundtrip-without-membership", "cli.py",
           "return is_member(m, a) and phi3_holds(", "return phi3_holds(",
           (NOT_A_CHOICE,)),
    Mutant("roundtrip-passes-a-non-pair", "cli.py",
           "    except NotAPair:\n        return False\n    return all(",
           "    except NotAPair:\n        return True\n    return all(",
           (NOT_A_CHOICE,)),
    Mutant("choice-function-ignores-membership", "construction.py",
           "for a in members.children for x in a.children]",
           "for a in members.children for x in self.union.children]",
           (NOT_A_CHOICE, CONSTRUCTION + "test_choice_function_validation",
            CONSTRUCTION + "test_the_pair_table_check_equals_the_sorted_membership_check")),
    Mutant("roundtrip-dedupe-merges-pairs", "cli.py",
           "{id(p): p for graph in fcs", "{len(p): p for graph in fcs",
           (CROSS + "test_the_roundtrip_checks_each_distinct_pair_once",
            CROSS + "test_the_distinct_pair_roundtrip_equals_the_per_occurrence_decode")),
    Mutant("invalid-graph-not-a-failure", "cli.py",
           'failures.append("a built graph is not a choice function on the family")', "pass",
           (NOT_A_CHOICE,)),
    # The integer interval checks, the F_c separation's visit and the sample
    # rows, each against the formulation it replaced.
    Mutant("contains-open-lo-end", "intervals.py",
           "if c < 0 or (c == 0 and not self.lo_closed):", "if c < 0:", CONTAINS),
    Mutant("contains-open-hi-end", "intervals.py",
           "if c < 0 or (c == 0 and not self.hi_closed):", "if c < 0:", CONTAINS),
    Mutant("contains-hi-sign", "intervals.py",
           "c = hn * d - n * hd", "c = n * hd - hn * d", CONTAINS),
    Mutant("empty-interval-unchecked", "intervals.py",
           "            if c < 0:\n                raise EmptyInterval",
           "            if False:\n                raise EmptyInterval", EMPTINESS),
    Mutant("point-interval-unchecked", "intervals.py",
           "if c == 0 and not (self.lo_closed and self.hi_closed):", "if False:", EMPTINESS),
    Mutant("choice-value-no-halving", "intervals.py",
           "return Fraction(ln * hd + hn * ld, 2 * ld * hd)",
           "return Fraction(ln * hd + hn * ld, ld * hd)",
           (INTERVALS + "test_choice_values",
            INTERVALS + "test_choice_value_matches_the_fraction_arithmetic")),
    Mutant("sample-rows-strict", "intervals.py",
           "            if kx <= ky:\n", "            if kx < ky:\n",
           (INTERVALS + "test_sample_rows_are_the_pol_compare_rows",)),
    Mutant("fc-visit-half-powerset", "construction.py",
           "valid_masks.intersection(range(1 << k))", "valid_masks.intersection(range(1 << k - 1))",
           (CONSTRUCTION + "test_the_intersection_visit_equals_the_comprehension_it_replaces",)),
    # The per-pick row test of the F_c separation, against the per-Q loop.
    Mutant("fc-row-test-any-bit", "construction.py",
           "mask >> i * n & full == full", "mask >> i * n & full != 0", PER_PICK),
    Mutant("fc-row-shift-unscaled", "construction.py",
           "mask >> i * n & full", "mask >> i & full", PER_PICK),
    # The order generator's candidates, against the brute-force filter.
    Mutant("pol-candidates-clear-bit-0", "orders.py",
           "or not row >> m & 1]", "or not row & 1]", DIRECT_ROWS),
    Mutant("unique-universal-candidates-clear-m", "orders.py",
           "if kind is OrderKind.UNIQUE_UNIVERSAL or not", "if not", DIRECT_ROWS),
    # The flat canonical key, each against its from-scratch reference and
    # the nested-tuple order it replaced.
    Mutant("key-long-field-little-endian", "hfs.py",
           'b"\\xff" + v.to_bytes(4, "big")', 'b"\\xff" + v.to_bytes(4, "little")',
           (HFS + "test_long_cardinality_fields_order_as_the_tuple_key",
            HFS + "test_long_rank_fields_order_as_the_tuple_key")),
    Mutant("key-fields-swapped", "hfs.py",
           "_field(rank) + _field(n)", "_field(n) + _field(rank)",
           (KEY_REFERENCE,
            HFS + "test_the_flat_key_orders_rank3_sets_and_pairs_as_the_tuple_key")),
    Mutant("key-header-dropped", "hfs.py",
           '_field(rank) + _field(n) + b"".join(', 'b"".join(',
           (KEY_REFERENCE, HFS + "test_a_key_holds_two_bytes_per_brace_of_the_literal")),
    # The intern table's order-free key, against every spelling of a set.
    Mutant("intern-key-drops-a-child", "hfs.py",
           "key = frozenset(map(id, elems))", "key = frozenset(map(id, elems[1:]))",
           (MAKE_SET_SPELLINGS, HFS + "test_extensional_dedup_and_interning")),
    Mutant("make-set-keeps-duplicates", "hfs.py",
           "if len(key) < len(elems):", "if False:",
           (MAKE_SET_SPELLINGS, HFS + "test_a_dead_node_is_rebuilt_once_with_one_live_entry")),
    Mutant("config-unchecked", "cli.py",
           "        _check_config(cfg)\n", "",
           (CLI + "test_execute_reports_a_config_main_would_refuse",)),
    Mutant("allow-empty-unchecked", "cli.py",
           "    if type(cfg.allow_empty) is not bool:\n", "    if False:\n",
           (CLI + "test_execute_reports_a_config_main_would_refuse",)),
    Mutant("empty-out-is-stdout", "cli.py",
           "    if cfg.out is not None:\n", "    if cfg.out:\n",
           (CLI + "test_an_empty_out_path_is_a_diagnostic",)),
)


def occurrences(mutant: Mutant, package: Path = PACKAGE) -> int:
    """How often the mutant's snippet occurs in its module under ``package``."""
    return (package / mutant.module).read_text(encoding="utf-8").count(mutant.snippet)


def copy_tree(workdir: Path) -> None:
    """Copy ``src/`` and ``tests/`` into ``workdir``, without bytecode."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name, ignore=ignore)


def pytest_status(workdir: Path, tests: tuple, optimized: bool) -> int:
    """pytest's exit status on ``tests`` in the copy at ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, *(["-O"] if optimized else []),
               "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def verdict(status: int) -> str:
    # pytest exits 1 when a test failed and 0 when all passed; anything
    # else (a usage error, no tests collected, an interrupt) judges nothing.
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def run_mutant(mutant: Mutant) -> tuple:
    """The mutant's verdict in each of its modes, and its wall time."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        copy_tree(workdir)
        path = workdir / "src" / "zflab" / mutant.module
        source = path.read_text(encoding="utf-8")
        path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        modes = (False, True) if mutant.optimized else (False,)
        verdicts = [verdict(pytest_status(workdir, mutant.tests, mode)) for mode in modes]
    return verdicts, time.perf_counter() - start


def baseline() -> list:
    """The modes in which the catalogue's tests fail on an unmutated copy."""
    failing = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        copy_tree(workdir)
        for optimized in (False, True):
            tests = tuple(dict.fromkeys(
                test for m in CATALOGUE if m.optimized or not optimized for test in m.tests))
            if pytest_status(workdir, tests, optimized) != 0:
                failing.append("-O" if optimized else "plain")
    return failing


def main() -> int:
    misplaced = [m.name for m in CATALOGUE if occurrences(m) != 1]
    if misplaced:
        print(f"snippet not found exactly once: {', '.join(misplaced)}", file=sys.stderr)
        return 2
    failing = baseline()
    if failing:
        print(f"the unmutated tests fail ({', '.join(failing)})", file=sys.stderr)
        return 2
    results = []
    for mutant in CATALOGUE:
        verdicts, seconds = run_mutant(mutant)
        modes = "  ".join(f"{v}{' -O' if i else ''}" for i, v in enumerate(verdicts))
        print(f"{mutant.name:38} {modes:24} {seconds:6.1f} s", flush=True)
        results.append(verdicts)
    flat = [v for verdicts in results for v in verdicts]
    killed = flat.count("killed")
    print(f"{killed} of {len(flat)} runs killed over {len(CATALOGUE)} mutants")
    if any(v.startswith("error") for v in flat):
        return 2
    return 0 if killed == len(flat) else 1


if __name__ == "__main__":
    sys.exit(main())
